"""BTree baseline: a from-scratch B+tree secondary index on the key
column (standing in for Google's cpp-btree, which is not available
offline).

The tree is bulk-loaded from the already-sorted key column: level ``k``
holds the first key of every node at level ``k+1`` (leaves are
``_ORDER``-wide runs of the key column itself). Per the paper's query
process, each covering cell is answered by *probing the tree for the
first child* and then *scanning the sorted raw data until no further
tuple qualifies*. Here the engine is BinarySearch with the tree's lower
bound in place of ``searchsorted``: two descents per cell, one for the
scan start and one at the cell's range end, all made together in one
``lower_bound`` call per query. The scan itself is the
aggregation shared with BinarySearch, which touches every tuple of the
range anyway, so the end descent only bounds it. BTree and BinarySearch
thus differ only in how a tuple range is located, exactly as in the
paper.
"""
import numpy as np

from repro.baselines.binary_search import BinarySearchEngine
from repro.core.raw import RawTable

__all__ = ["BPlusTree", "BTreeEngine"]

_ORDER = 64  # keys per node (cpp-btree likewise uses cache-line-wide nodes)
_LANES = np.arange(_ORDER)


class BPlusTree:
    """Static bulk-loaded B+tree over a sorted int64 key array.

    ``lower_bound(probes)`` returns the position of the first key >= each
    probe, found by root-to-leaf descent with an ``_ORDER``-wide
    separator search per level (the operation the paper benchmarks
    against plain binary search).
    """

    def __init__(self, keys: np.ndarray):
        if len(keys) == 0:
            raise ValueError("cannot index an empty key array")
        self.keys = keys
        levels = []
        step = _ORDER
        arr = keys[::step].copy()
        while len(arr) > _ORDER:
            levels.append(arr)
            step *= _ORDER
            arr = keys[::step].copy()
        levels.append(arr)
        levels.reverse()  # root (<= _ORDER separators) first
        self.levels = levels
        self.height = len(levels) + 1  # + leaf level

    def size_bytes(self) -> int:
        """Index overhead: all separator arrays (leaf payload is the
        shared raw key column)."""
        return int(sum(lv.nbytes for lv in self.levels))

    def lower_bound(self, probes) -> np.ndarray:
        """First position with key >= each of ``probes``, all probes
        descending together. Counting entries strictly below the probe
        keeps the descent duplicate-safe: with repeated separators the
        chosen subtree may end just before the first key >= the probe,
        and the leaf count then lands exactly on the next leaf's first
        position (leaves are contiguous)."""
        probes = np.asarray(probes, dtype=np.int64)[:, None]
        start = np.zeros(len(probes), dtype=np.int64)  # the root node
        for lv in self.levels:
            start = (start + np.maximum(_count_below(lv, start, probes) - 1, 0)) * _ORDER
        return start + _count_below(self.keys, start, probes)


def _count_below(level, start, probes):
    """Entries below each probe (a column) in its node: the ``_ORDER``
    entries of ``level`` from ``start``, read as one gather. A node that
    runs past the end of the level gathers the level's last entry in its
    place; that entry is the largest, so the count, capped at the node's
    real width, stays exact."""
    below = (level.take(start[:, None] + _LANES, mode="clip") < probes).sum(axis=1)
    return np.minimum(below, len(level) - start)


class BTreeEngine(BinarySearchEngine):
    """BinarySearch with the B+tree's lower bound (see the module
    docstring): the same tuple ranges and aggregation, located by two
    tree descents per covering cell."""

    def __init__(self, raw: RawTable, level: int):
        super().__init__(raw, level)
        self.tree = BPlusTree(raw.keys)
        self.lower_bound = self.tree.lower_bound

    def size_bytes(self) -> int:
        return self.tree.size_bytes()
