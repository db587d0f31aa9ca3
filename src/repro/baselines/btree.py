"""BTree baseline: a from-scratch B+tree secondary index on the key
column (standing in for Google's cpp-btree, which is not available
offline).

The tree is bulk-loaded from the already-sorted key column: level ``k``
holds the first key of every node at level ``k+1`` (leaves are
``_ORDER``-wide runs of the key column itself). Per the paper's query
process, each covering cell is answered by *probing the tree for the
first child* and then *scanning the sorted raw data until no further
tuple qualifies* — the scan runs over the shared
:class:`~repro.core.raw.RawTable` arrays, so BTree and BinarySearch
differ only in how the scan start is located, exactly as in the paper.
"""
import numpy as np

from repro.core.geoblock import AggAccumulator, checked_cells, gather_ranges, needed_stats
from repro.core.raw import RawTable
from repro.s2lite.cell import range_max, range_min
from repro.s2lite.covering import exterior_covering

__all__ = ["BPlusTree", "BTreeEngine"]

_ORDER = 64  # keys per node (cpp-btree likewise uses cache-line-wide nodes)


class BPlusTree:
    """Static bulk-loaded B+tree over a sorted int64 key array.

    ``lower_bound(k)`` returns the position of the first key >= ``k``,
    found by root-to-leaf descent with an ``_ORDER``-wide separator
    search per level (the operation the paper benchmarks against plain
    binary search).
    """

    def __init__(self, keys: np.ndarray):
        if len(keys) == 0:
            raise ValueError("cannot index an empty key array")
        self.keys = keys
        self.n = len(keys)
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

    def lower_bound(self, key: int) -> int:
        # side="left" keeps the descent duplicate-safe: with repeated
        # separator keys the chosen subtree may end just before the first
        # key >= `key`, and the final leaf search then lands exactly on
        # the next leaf's first position (leaves are contiguous).
        idx = max(0, int(np.searchsorted(self.levels[0], key, side="left")) - 1)
        for lv in self.levels[1:]:
            win = lv[idx * _ORDER : (idx + 1) * _ORDER]
            j = max(0, int(np.searchsorted(win, key, side="left")) - 1)
            idx = idx * _ORDER + j
        start = idx * _ORDER
        leaf = self.keys[start : start + _ORDER]
        # If key exceeds every key in this leaf the result is the first
        # position of the next leaf — start + _ORDER is exactly that.
        return start + int(np.searchsorted(leaf, key, side="left"))


class BTreeEngine:
    """Covering-cell query engine backed by the B+tree probe + scan."""

    # The paper scans tuple-by-tuple after the probe; we scan the raw key
    # array in fixed chunks so cost stays proportional to tuples touched
    # without per-tuple Python interpreter overhead.
    _CHUNK = 1024

    def __init__(self, raw: RawTable, level: int):
        self.raw = raw
        self.level = level
        self.tree = BPlusTree(raw.keys)

    def size_bytes(self) -> int:
        return self.tree.size_bytes()

    def cover(self, polygon):
        return exterior_covering(polygon, self.level)

    def _scan_end(self, lo: int, rmax: int) -> int:
        """Scan forward from ``lo`` until the first key > ``rmax``."""
        keys = self.raw.keys
        pos = lo
        while pos < len(keys):
            end = min(pos + self._CHUNK, len(keys))
            chunk = keys[pos:end]
            if chunk[-1] > rmax:
                return pos + int(np.searchsorted(chunk, rmax, side="right"))
            pos = end
        return pos

    def _cell_range(self, cid: int):
        lo = self.tree.lower_bound(range_min(int(cid)))
        hi = self._scan_end(lo, range_max(int(cid)))
        return lo, hi

    def query_cells(self, cells, specs):
        """Tree-probe each covering cell's scan start, chunk-scan to the
        scan end, then aggregate all tuple ranges with the shared segment
        reductions (same fairness argument as BinarySearch: the probe
        cost differs, the aggregation path is identical)."""
        cols = needed_stats(specs)
        acc = AggAccumulator(cols)
        los, his = [], []
        for cid in checked_cells(cells, self.level)[0].tolist():
            lo, hi = self._cell_range(cid)
            if hi > lo:
                los.append(lo)
                his.append(hi)
        if los:
            idx = gather_ranges(np.asarray(los, dtype=np.int64), np.asarray(his, dtype=np.int64))
            acc.combine(len(idx), self.raw.values(cols, idx))
        return acc.finalize(specs)

    def query_select(self, polygon, specs):
        return self.query_cells(self.cover(polygon), specs)

    def count_cells(self, cells) -> int:
        total = 0
        for cid in checked_cells(cells, self.level)[0].tolist():
            lo, hi = self._cell_range(cid)
            total += max(0, hi - lo)
        return total

    def query_count(self, polygon) -> int:
        return self.count_cells(self.cover(polygon))
