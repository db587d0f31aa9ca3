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
from repro.core.geoblock import aggregate, cell_ranges, gather_ranges, normalized_cells
from repro.core.raw import RawTable
from repro.s2lite.covering import exterior_covering

__all__ = ["BinarySearchEngine"]


class BinarySearchEngine:
    def __init__(self, raw: RawTable, level: int):
        self.raw = raw
        self.level = level  # covering granularity (same cells as the block)
        self.lower_bound = raw.keys.searchsorted  # first key >= each probe

    def size_bytes(self) -> int:
        """No index: zero overhead beyond the raw data (the paper omits
        BinarySearch from the size-overhead figure for this reason)."""
        return 0

    def cover(self, polygon):
        return exterior_covering(polygon, self.level)

    def query_cells(self, cells, specs):
        """Find the raw tuple range of every covering cell with
        :attr:`lower_bound` (vectorized over cells), then aggregate the
        raw tuples in between with the same segment reductions the
        GeoBlock uses over headers, so both engines' costs stay
        proportional to elements scanned. Each needed column is gathered
        once; a raw value is its own min, max and sum."""
        i0, i1 = cell_ranges(normalized_cells(cells, self.level), self.lower_bound)
        idx = gather_ranges(i0, i1)
        cols = {c for c, op in specs if op != "count"}
        vals = {c: self.raw.columns[c][idx] for c in cols}
        return aggregate(specs, len(idx), lambda c, s: vals[c])

    def query_select(self, polygon, specs):
        return self.query_cells(self.cover(polygon), specs)

    def count_cells(self, cells) -> int:
        i0, i1 = cell_ranges(normalized_cells(cells, self.level), self.lower_bound)
        return int((i1 - i0).sum())

    def query_count(self, polygon) -> int:
        return self.count_cells(self.cover(polygon))
