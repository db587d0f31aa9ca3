"""BinarySearch baseline: on-the-fly aggregation over sorted raw data.

"This is the simplest baseline. Instead of indexing the data we use the
same binary search as for locating the CellBlock Header to locate the
first and last contained raw tuple in the data. Afterwards, we loop over
all tuples in between and aggregate them."

The engine shares the :class:`~repro.core.raw.RawTable` with the
GeoBlock (same keys, same columnar layout) and answers the *same*
cell-covering queries, so its results are identical to the GeoBlock's by
construction — only the cost differs: it touches every qualifying tuple
where the GeoBlock touches one header per occupied cell.
"""
import numpy as np

from repro.core.geoblock import AggAccumulator, gather_ranges, needed_stats
from repro.core.raw import RawTable
from repro.s2lite.cell import range_max, range_min
from repro.s2lite.covering import exterior_covering

__all__ = ["BinarySearchEngine"]


class BinarySearchEngine:
    def __init__(self, raw: RawTable, level: int):
        self.raw = raw
        self.level = level  # covering granularity (same cells as the block)

    def size_bytes(self) -> int:
        """No index: zero overhead beyond the raw data (the paper omits
        BinarySearch from the size-overhead figure for this reason)."""
        return 0

    def cover(self, polygon):
        return exterior_covering(polygon, self.level)

    def _tuple_range(self, cid: int):
        lo = int(np.searchsorted(self.raw.keys, range_min(int(cid)), side="left"))
        hi = int(np.searchsorted(self.raw.keys, range_max(int(cid)), side="right"))
        return lo, hi

    def query_cells(self, cells, specs):
        """Binary-search the tuple range of every covering cell, then
        aggregate the raw tuples in between (vectorized over cells with
        the same segment reductions the GeoBlock uses over headers, so
        both engines' costs stay proportional to elements scanned)."""
        cols = needed_stats(specs)
        acc = AggAccumulator(cols)
        cells = np.asarray(cells, dtype=np.int64)
        lsb = cells & -cells
        keys = self.raw.keys
        i0 = keys.searchsorted(cells - lsb + 1, side="left")
        i1 = keys.searchsorted(cells + lsb - 1, side="right")
        m = i1 > i0
        if m.any():
            idx = gather_ranges(i0[m], i1[m])
            acc.combine(len(idx), self.raw.values(cols, idx))
        return acc.finalize(specs)

    def query_select(self, polygon, specs):
        return self.query_cells(self.cover(polygon), specs)

    def count_cells(self, cells) -> int:
        total = 0
        for cid in cells:
            lo, hi = self._tuple_range(cid)
            total += max(0, hi - lo)
        return total

    def query_count(self, polygon) -> int:
        return self.count_cells(self.cover(polygon))
