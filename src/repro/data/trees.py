"""Binary parse trees with per-node sentiment labels.

A :class:`Tree` owns a root :class:`TreeNode`; every node carries a label
(all nodes are labeled, as in sentiment treebanks).  ``to_arrays`` flattens
the tree into post-order-indexed arrays — children always receive smaller
indices than their parent, which is exactly the topologically-sorted
indexing the paper's iterative implementation requires (Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

__all__ = ["TreeNode", "Tree", "TreeArrays", "shape_profile_of"]


def shape_profile_of(node: "TreeNode") -> tuple:
    """The structural shape signature of a subtree as nested tuples.

    A leaf is ``()``; an internal node is the tuple of its children's
    profiles — so two trees have equal profiles iff they have identical
    shape (ignoring words/labels).  This is what the compiled tier
    (:mod:`repro.runtime.level_plan`) instantiates its level template
    from, and what its instantiation memo keys on.
    """
    # iterative post-order build: degenerate chain trees exceed the
    # default recursion limit long before they exceed memory
    out: dict[int, tuple] = {}
    stack = [(node, False)]
    while stack:
        cur, expanded = stack.pop()
        if cur.is_leaf:
            out[id(cur)] = ()
        elif expanded:
            out[id(cur)] = (out[id(cur.left)], out[id(cur.right)])
        else:
            stack.append((cur, True))
            stack.append((cur.right, False))
            stack.append((cur.left, False))
    return out[id(node)]


def _profile_stats(profile: tuple) -> tuple[int, int, int]:
    """(num_nodes, num_leaves, depth) of a shape profile, iteratively."""
    nodes = leaves = 0
    depth = 0
    stack = [(profile, 1)]
    while stack:
        p, d = stack.pop()
        nodes += 1
        if d > depth:
            depth = d
        if not p:
            leaves += 1
        else:
            for child in p:
                stack.append((child, d + 1))
    return nodes, leaves, depth


class TreeNode:
    """A node of a binary parse tree."""

    __slots__ = ("word", "left", "right", "label", "score")

    def __init__(self, word: Optional[int] = None,
                 left: Optional["TreeNode"] = None,
                 right: Optional["TreeNode"] = None, label: int = 0,
                 score: float = 0.0):
        if (word is None) == (left is None):
            raise ValueError("a node is either a leaf (word) or internal "
                             "(two children)")
        if (left is None) != (right is None):
            raise ValueError("internal nodes need exactly two children")
        self.word = word
        self.left = left
        self.right = right
        self.label = label
        self.score = score

    @property
    def is_leaf(self) -> bool:
        return self.word is not None

    def size(self) -> int:
        """Total number of nodes in this subtree."""
        if self.is_leaf:
            return 1
        return 1 + self.left.size() + self.right.size()

    def num_leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.num_leaves() + self.right.num_leaves()

    def depth(self) -> int:
        """Height of this subtree (a leaf has depth 1)."""
        if self.is_leaf:
            return 1
        return 1 + max(self.left.depth(), self.right.depth())

    def leaves(self) -> Iterator["TreeNode"]:
        if self.is_leaf:
            yield self
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()

    def post_order(self) -> Iterator["TreeNode"]:
        if not self.is_leaf:
            yield from self.left.post_order()
            yield from self.right.post_order()
        yield self


@dataclass
class TreeArrays:
    """Flat array form of one tree (children-before-parent indexing)."""

    words: np.ndarray      # int32 [n], -1 at internal nodes
    children: np.ndarray   # int32 [n, 2], -1 at leaves
    is_leaf: np.ndarray    # bool [n]
    labels: np.ndarray     # int32 [n]
    root: int

    @property
    def num_nodes(self) -> int:
        return len(self.words)


class Tree:
    """A labeled binary parse tree (one data instance)."""

    def __init__(self, root: TreeNode):
        self.root = root
        self._shape_profile: Optional[tuple] = None
        self._stats: Optional[tuple] = None

    @property
    def shape_profile(self) -> tuple:
        """Cached structural shape signature (see :func:`shape_profile_of`).

        Computed once per tree; admission-time consumers (the level-plan
        fast path, serving size hints) read the cached tuple instead of
        re-walking the tree on every request.
        """
        if self._shape_profile is None:
            self._shape_profile = shape_profile_of(self.root)
        return self._shape_profile

    def _cached_stats(self) -> tuple:
        if self._stats is None:
            self._stats = _profile_stats(self.shape_profile)
        return self._stats

    @property
    def num_nodes(self) -> int:
        return self._cached_stats()[0]

    @property
    def num_leaves(self) -> int:
        return self._cached_stats()[1]

    @property
    def num_words(self) -> int:
        return self._cached_stats()[1]

    @property
    def depth(self) -> int:
        return self._cached_stats()[2]

    @property
    def label(self) -> int:
        return self.root.label

    def words(self) -> list[int]:
        return [leaf.word for leaf in self.root.leaves()]

    def balancedness(self) -> float:
        """1.0 for a perfectly balanced tree, -> 0 for a linear chain.

        Defined as ``log2(num_leaves) / (depth - 1)`` (1.0 when depth is
        minimal, smaller when the tree degenerates towards a chain).
        """
        leaves = self.num_leaves
        if leaves <= 1 or self.depth <= 1:
            return 1.0
        return float(np.log2(leaves) / (self.depth - 1))

    def to_arrays(self) -> TreeArrays:
        """Flatten into topologically-indexed arrays (post-order)."""
        order = list(self.root.post_order())
        index = {id(node): i for i, node in enumerate(order)}
        n = len(order)
        words = np.full(n, -1, dtype=np.int32)
        children = np.full((n, 2), -1, dtype=np.int32)
        is_leaf = np.zeros(n, dtype=np.bool_)
        labels = np.zeros(n, dtype=np.int32)
        for i, node in enumerate(order):
            labels[i] = node.label
            if node.is_leaf:
                words[i] = node.word
                is_leaf[i] = True
            else:
                children[i, 0] = index[id(node.left)]
                children[i, 1] = index[id(node.right)]
        return TreeArrays(words=words, children=children, is_leaf=is_leaf,
                          labels=labels, root=n - 1)

    def __repr__(self) -> str:
        return (f"<Tree words={self.num_words} nodes={self.num_nodes} "
                f"depth={self.depth} label={self.label}>")
