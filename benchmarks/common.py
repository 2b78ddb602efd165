"""Shared configuration for the reproduction benchmarks.

Under the default ``event`` backend every benchmark measures **virtual
testbed time** (the deterministic discrete-event simulation of the
paper's 36-core machine / Titan X GPU), so reported instances/second are
stable across host machines; wall-clock time of the bench process itself
is what pytest-benchmark records.  Routing the suite through the
wall-clock backend (``--engine workerpool``, or REPRO_BENCH_ENGINE)
makes the reported times **host wall-clock** — useful for comparing
backends on one machine, not portable baselines;
the recorded BENCH_*.json files carry an ``engine_provenance`` stamp so
rows stay attributable.

The dataset is a seeded synthetic treebank standing in for the Large Movie
Review sentences (see DESIGN.md for the substitution rationale).
"""

from __future__ import annotations

import json
import os
import sys
from functools import lru_cache

import numpy as np

import repro
from repro.data import make_treebank
from repro.harness import RunnerConfig
from repro.harness.reporting import (engine_provenance, host_provenance,
                                     peak_rss_mb)
from repro.models import (ModelConfig, RNTNSentiment, TreeLSTMSentiment,
                          TreeRNNSentiment, tree_lstm_config)
from repro.runtime.scheduler import resolve_executor

#: the paper's testbed: 2 x 18-core Xeon
WORKERS = 36
BATCH_SIZES = (1, 10, 25)
STEPS = 2

#: Executor backend every bench resolves its sessions/runners through.
#: One knob for the whole suite: ``pytest benchmarks --engine workerpool``
#: (see benchmarks/conftest.py) or the REPRO_BENCH_ENGINE environment
#: variable; defaults to the deterministic virtual-time backend the
#: recorded baselines were measured on.
_BENCH_ENGINE = os.environ.get("REPRO_BENCH_ENGINE", "event")


def set_bench_engine(name: str) -> None:
    """Select the executor for this bench process (validated by
    ``resolve_executor``)."""
    global _BENCH_ENGINE
    resolve_executor(name)  # fail loudly on unknown backends
    _BENCH_ENGINE = name


def bench_engine() -> str:
    """The executor backend name benches pass as ``engine=``."""
    resolve_executor(_BENCH_ENGINE)
    return _BENCH_ENGINE


@lru_cache(maxsize=None)
def treebank():
    """The benchmark treebank (seeded; ~34 words/sentence, up to 250)."""
    return make_treebank(num_train=60, num_val=20, vocab_size=200, seed=7)


MODEL_FACTORIES = {
    "TreeRNN": lambda runtime: TreeRNNSentiment(ModelConfig(), runtime),
    "RNTN": lambda runtime: RNTNSentiment(ModelConfig(), runtime),
    "TreeLSTM": lambda runtime: TreeLSTMSentiment(tree_lstm_config(),
                                                  runtime),
}


def fresh_model(name: str):
    """A freshly-initialized model on its own runtime."""
    return MODEL_FACTORIES[name](repro.Runtime())


def runner_config(**overrides) -> RunnerConfig:
    defaults = dict(num_workers=WORKERS, engine=bench_engine())
    defaults.update(overrides)
    return RunnerConfig(**defaults)


def save_bench_json(name: str, payload: dict) -> str:
    """Persist a machine-readable trajectory file at the repository root.

    ``BENCH_<name>.json`` is the perf baseline future PRs diff against
    (e.g. ``BENCH_fig8.json`` records unbatched vs batched inference
    throughput).  Every payload is stamped with executor provenance
    (which backend produced the rows, and the registry listing at the
    time) and host provenance (cpu_count/platform — pool-scaling rows
    are uninterpretable without it) unless the bench recorded its own.
    """
    payload.setdefault("engine_provenance", engine_provenance(bench_engine()))
    payload.setdefault("host_provenance", host_provenance())
    #: process peak RSS at save time — the memory footprint stamp every
    #: recorded row set carries (MiB; sticky high-water mark)
    payload.setdefault("peak_rss_mb", peak_rss_mb())
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    path = os.path.join(root, f"BENCH_{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return path


def merge_bench_json(name: str, updates: dict) -> str:
    """Merge top-level sections into ``BENCH_<name>.json`` in place.

    Lets independent benches share one trajectory file — e.g. the SLO
    overload bench and the soak harness each own a section of
    ``BENCH_serving.json`` without clobbering the admission baseline
    recorded by ``bench_serving.py``.  Missing or unreadable files start
    from an empty payload.
    """
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    path = os.path.join(root, f"BENCH_{name}.json")
    payload = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            payload = {}
    payload.update(updates)
    return save_bench_json(name, payload)


def call_counts(fn, by_function=None) -> tuple:
    """``(Python calls, C calls)`` made by ``fn()`` on this thread
    (``sys.setprofile``'s ``call`` / ``c_call`` events); given a
    ``collections.Counter`` as ``by_function``, the C calls are also
    tallied there by function name."""
    counts = [0, 0]

    def profile(frame, event, arg):
        if event == "call":
            counts[0] += 1
        elif event == "c_call":
            counts[1] += 1
            if by_function is not None:
                module = getattr(arg, "__module__", None)
                name = getattr(arg, "__qualname__", repr(arg))
                by_function[f"{module}.{name}" if module else name] += 1
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return tuple(counts)
