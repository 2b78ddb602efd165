"""Seeded inputs: the program only ever receives the generated trees.

Sentence *lengths* are the stratified quantiles of the treebank's
clipped log-normal, so every seed offers the same number of tree nodes
and the same length mix; the seed decides which length lands in which
step and slot, the words, the labels and every parse shape.  Drawing
lengths independently instead would put a +-15% spread of node counts
between seeds under every throughput number.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from repro.data import make_treebank

__all__ = ["stratified_lengths", "make_trees"]


def stratified_lengths(n: int, mean_log: float, sigma_log: float,
                       lo: int, hi: int) -> tuple:
    """``n`` sentence lengths at the (i + 1/2)/n quantiles of the
    treebank's ``exp(N(mean_log, sigma_log))`` clipped to ``[lo, hi]``."""
    dist = NormalDist(mean_log, sigma_log)
    return tuple(min(hi, max(lo, int(math.exp(dist.inv_cdf((i + 0.5) / n)))))
                 for i in range(n))


def make_trees(seed: int, lengths) -> list:
    """One labelled binary tree per entry of ``lengths``, seed-shuffled.

    Goes through the public generator only: the seeded treebank supplies
    the vocabulary and ``trees_of_length`` the words, natural parse shape
    and composed labels.
    """
    # a wide stride keeps neighbouring seeds' per-tree generators apart
    # (trees_of_length seeds each call with config.seed + 1000 + k)
    bank = make_treebank(num_train=0, num_val=0, vocab_size=200,
                         seed=seed * 100_003)
    order = np.random.default_rng(seed).permutation(len(lengths))
    return [bank.trees_of_length(int(lengths[j]), 1, seed=k)[0]
            for k, j in enumerate(order)]

