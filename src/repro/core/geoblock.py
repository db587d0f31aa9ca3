"""The GeoBlock storage layout and query algorithms (paper section 3).

A :class:`GeoBlock` holds, per non-empty grid cell at the configured
block level, a "CellBlock Header": spatial key, offset of the cell's
first tuple in the sorted raw data, tuple count, and min/max/sum for
every retained column — all as parallel sorted numpy arrays (the
columnar equivalent of the paper's contiguous header array). A
block-wide header holds the global aggregates; the block's key range
(``key_min``/``key_max``) seeds the StatsTrie root.

Every query runs in two steps, plan then execute:

- **Plan.** Query cells are normalized first: sorted, with repeated
  cells and cells nested in another dropped; cells finer than the block
  level are rejected. A plan is one index array of header rows. V1 plans
  each covering cell with an upper-bound binary search for its first and
  last contained CellBlock Header. V2 (adaptive) keeps the aggregates of
  the cells its :class:`~repro.core.agg_trie.AggregateTrie` caches as
  rows ``n_cells + slot`` after the headers (the paper's reserved area)
  and records the covering in a :class:`~repro.core.stats_trie.StatsTrie`;
  a cached cell becomes its row, an uncached cell with cached *direct
  children* becomes their rows plus the children left over, and every
  other cell is planned as in V1 (Figure 5 of the paper).
- **Execute.** One gather and one reduction over the plan's rows, by
  :func:`aggregate`, the answer step every engine shares. Cost is
  proportional to the number of CellBlocks scanned, as in the paper
  (gathered reductions, deliberately not prefix sums).

COUNT reads only the first and last header of each V1 range:
``offset_last + count_last - offset_first``.
"""
import time

import numpy as np

from repro.core.agg_trie import AggregateTrie
from repro.core.raw import RawTable
from repro.core.stats_trie import StatsTrie
from repro.s2lite.cell import MAX_LEVEL
from repro.s2lite.covering import exterior_covering

__all__ = ["GeoBlock", "AdaptiveGeoBlock", "aggregate", "cell_ranges"]

_STATS = ("min", "max", "sum")
_OPS = ("count", "sum", "avg", *_STATS)


def gather_ranges(i0, i1):
    """Indices of all elements in the union of ``[i0[j], i1[j])`` ranges.

    The vectorized equivalent of the paper's per-cell scan loop: one
    reduction over ``arr[gather_ranges(i0, i1)]`` touches exactly the
    elements the covering cells select — cost stays proportional to
    elements scanned, without Python-interpreter overhead per cell (the
    same courtesy the C++ implementation gets from the compiler). Used
    by the GeoBlock (over CellBlock headers) and by the
    BinarySearch/BTree baselines (over raw tuples), so the comparison
    stays fair. Empty segments give no indices.
    """
    lens = i1 - i0
    ends = np.cumsum(lens)
    total = ends[-1] if len(ends) else 0
    return np.arange(total, dtype=np.int64) + np.repeat(i0 - ends + lens, lens)


def checked_cells(cells, level: int):
    """Query cells as an int64 array and their lowest set bits, after
    checking that none is finer than ``level``: an engine answers cells
    at or above its block level only, as finer aggregates do not exist."""
    cells = np.asarray(cells, dtype=np.int64)
    lsb = cells & -cells
    if lsb.min(initial=1 << 62) < 1 << (2 * (MAX_LEVEL - level)):
        raise ValueError(f"query cells must be at or above the block level {level}")
    return cells, lsb


def normalized_cells(cells, level: int):
    """Query cells, after :func:`checked_cells`, as a sorted int64 array
    in which no cell repeats or lies inside another, so every tuple under
    them counts once. Quadtree cells are nested or disjoint: sorted by
    ``(lo, -hi)`` of their key bounds ``cell -/+ lsb``, a cell is kept iff
    it ends after every cell before it. Exterior coverings are already
    sorted and disjoint and come back as they are."""
    cells, lsb = checked_cells(cells, level)
    lo, hi = cells - lsb, cells + lsb
    if (lo[1:] >= hi[:-1]).all():
        return cells
    order = np.lexsort((-hi, lo))
    hi = hi[order]
    return cells[order][np.r_[True, hi[1:] > np.maximum.accumulate(hi)[:-1]]]


def cell_ranges(cells, lower_bound):
    """Range ``[i0, i1)`` of the keys under each query cell in a sorted
    key array (``i1 >= i0``). ``lower_bound(probes)`` gives the position
    of the first key >= each probe: the GeoBlock and BinarySearch pass
    ``keys.searchsorted``, BTree its B+tree descent. A cell's descendants
    are the keys in ``[cell - lsb + 1, cell + lsb)``; both ends are found
    in one call, so a fixed cost per call (BTree's) is paid once per
    query. The level is not checked here: each public entry checks its
    cells once, by :func:`normalized_cells` or :func:`checked_cells`."""
    cells = np.asarray(cells, dtype=np.int64)
    lsb = cells & -cells
    bounds = lower_bound(np.concatenate([cells - lsb + 1, cells + lsb]))
    return bounds[: len(cells)], bounds[len(cells) :]


def aggregate(specs, count, values):
    """The answer to ``specs`` over ``count`` selected tuples, the one
    answer step of every engine. ``values(col, stat)`` gives the array
    that reduces by ``stat`` (min, max or sum; ``avg`` is the sum over the
    count) to the column's answer: the ``stat`` of the selected header
    rows, or the selected raw values, each its own min, max and sum. An
    unknown op is rejected also when nothing is selected; an empty answer
    sums to 0.0 and has no min, max or avg. The answer is keyed by the
    spec tuples themselves, not copies, so answers a caller keeps share
    their keys."""
    specs = list(map(tuple, specs))
    for _, op in specs:
        if op not in _OPS:
            raise ValueError(f"unknown aggregate op {op!r}")
    count = int(count)
    out = {}
    for key in specs:
        col, op = key
        if op == "count":
            out[key] = count
        elif count == 0:
            out[key] = 0.0 if op == "sum" else None
        elif op == "avg":
            out[key] = float(values(col, "sum").sum()) / count
        else:
            out[key] = float(getattr(values(col, op), op)())
    return out


def _reduce_segments(values, starts):
    """Per-segment min/max/sum of ``values`` (``{col: {stat: array}}``),
    a segment running from each of ``starts`` to the next: the
    pre-aggregation behind CellBlock headers and cached cells alike."""
    return {
        c: {
            "min": np.minimum.reduceat(v["min"], starts),
            "max": np.maximum.reduceat(v["max"], starts),
            "sum": np.add.reduceat(v["sum"], starts),
        }
        for c, v in values.items()
    }


def _with_rows(a, n: int, extra: int):
    """A new array holding the first ``n`` elements of ``a`` and room for
    ``extra`` more."""
    out = np.empty(n + extra, dtype=a.dtype)
    out[:n] = a[:n]
    return out


class GeoBlock:
    """The non-adaptive GeoBlock (paper's "Blocks V1")."""

    # Per-CellBlock header bytes: key + offset + count (8 bytes each) plus
    # min/max/sum per column — the size model behind the paper's overhead
    # figures and the AggregateTrie threshold accounting.
    _FIXED_HEADER_FIELDS = 3

    def __init__(self, *, level, keys, offsets, counts, aggs, value_cols, key_min, key_max):
        self.level = level
        self.keys = keys  # sorted cell ids at `level`
        self.offsets = offsets
        self.counts = counts
        self.aggs = aggs  # {col: {"min": arr, "max": arr, "sum": arr}}
        self.value_cols = list(value_cols)
        self.key_min = key_min  # smallest point key in the block
        self.key_max = key_max
        self.block_header = aggregate(
            [(c, op) for c in self.value_cols for op in ("count", *_STATS)],
            counts.sum(),
            lambda c, s: aggs[c][s],
        )

    # -- construction -----------------------------------------------------
    @classmethod
    def build_from_raw(cls, raw: RawTable, level: int) -> "GeoBlock":
        """Single pass over the sorted raw data (the paper's "Building"
        phase — Table 1's second column). Wall time lands in
        ``raw.timings['build']``."""
        t0 = time.perf_counter()
        cells = raw.cells_at(level)
        n = len(cells)
        if n == 0:
            raise ValueError("cannot build a GeoBlock over empty data")
        starts = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
        keys = cells[starts]
        counts = np.diff(np.r_[starts, n]).astype(np.int64)
        aggs = _reduce_segments(
            {c: dict.fromkeys(_STATS, arr) for c, arr in raw.columns.items()}, starts
        )
        blk = cls(
            level=level,
            keys=keys,
            offsets=starts.astype(np.int64),
            counts=counts,
            aggs=aggs,
            value_cols=list(raw.columns),
            key_min=int(raw.keys[0]),
            key_max=int(raw.keys[-1]),
        )
        raw.timings["build"] = time.perf_counter() - t0
        return blk

    # -- sizes ------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return len(self.keys)

    def header_size_bytes(self) -> int:
        per_cell = 8 * (self._FIXED_HEADER_FIELDS + 3 * len(self.value_cols))
        return per_cell * self.n_cells

    def aggregate_row_bytes(self) -> int:
        """Bytes of one cached aggregate (count + min/max/sum per column)
        in the AggregateTrie's aggregate storage."""
        return 8 * (1 + 3 * len(self.value_cols))

    def size_bytes(self) -> int:
        return self.header_size_bytes()

    # -- covering ---------------------------------------------------------
    def cover(self, polygon):
        """Exterior covering clamped to the block level (the paper
        requires the covering's max level to be at most the CellBlock
        level)."""
        return exterior_covering(polygon, self.level)

    # -- query kernel: plan, then execute ----------------------------------
    def _ranges(self, cells):
        """V1 planning: the non-empty header ranges ``[i0, i1)`` under
        ``cells`` (an int64 array, checked by the caller), found by one
        vectorized upper-bound binary search over all cell ranges."""
        i0, i1 = cell_ranges(cells, self.keys.searchsorted)
        m = i1 > i0
        return i0[m], i1[m]

    def _plan(self, cells):
        """A plan is the index array of the header rows to combine."""
        return gather_ranges(*self._ranges(cells))

    def _execute(self, plan, specs):
        """Answer ``specs`` over the rows at the indices ``plan``, one
        gather and one reduction per stat."""
        return aggregate(specs, self.counts[plan].sum(), lambda c, s: self.aggs[c][s][plan])

    def query_cells(self, cells, specs):
        """SELECT over an explicit list of covering cells."""
        return self._execute(self._plan(normalized_cells(cells, self.level)), specs)

    def query_select(self, polygon, specs):
        """SELECT over a query polygon (covering computed here)."""
        return self.query_cells(self.cover(polygon), specs)

    def count_cells(self, cells) -> int:
        """Specialized COUNT over the V1 plan's header ranges: headers are
        contiguous, so a range reads its first and last header only
        (``offset_last + count_last - offset_first``). COUNT is never
        recorded or cached: the paper does not adapt it."""
        i0, i1 = self._ranges(normalized_cells(cells, self.level))
        return int((self.offsets[i1 - 1] + self.counts[i1 - 1] - self.offsets[i0]).sum())

    def query_count(self, polygon) -> int:
        return self.count_cells(self.cover(polygon))

    def cell_aggregates(self, cells):
        """Count and min/max/sum of every column under each of ``cells``,
        laid out like the header arrays: the rows V2 appends to its
        headers for the cells the AggregateTrie caches. A cell without
        tuples holds neutral elements (0, inf, -inf, 0), which vanish
        when combined."""
        cells, _ = checked_cells(cells, self.level)
        n = len(cells)
        counts = np.zeros(n, dtype=np.int64)
        aggs = {
            c: {"min": np.full(n, np.inf), "max": np.full(n, -np.inf), "sum": np.zeros(n)}
            for c in self.value_cols
        }
        i0, i1 = cell_ranges(cells, self.keys.searchsorted)
        full = i1 > i0
        if full.any():
            lens = (i1 - i0)[full]
            starts = np.cumsum(lens) - lens
            idx = gather_ranges(i0[full], i1[full])
            counts[full] = np.add.reduceat(self.counts[idx], starts)
            rows = {c: {s: a[s][idx] for s in _STATS} for c, a in self.aggs.items()}
            for c, seg in _reduce_segments(rows, starts).items():
                for stat, v in seg.items():
                    aggs[c][stat][full] = v
        return counts, aggs


class AdaptiveGeoBlock(GeoBlock):
    """GeoBlock V2: StatsTrie workload tracking + AggregateTrie cache."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.stats = StatsTrie(self.key_min, self.key_max)
        self.agg_trie = None
        self.reserved_rows = 0  # aggregate rows after the headers, V2's own

    @classmethod
    def from_block(cls, blk: GeoBlock) -> "AdaptiveGeoBlock":
        return cls(
            level=blk.level,
            keys=blk.keys,
            offsets=blk.offsets,
            counts=blk.counts,
            aggs=blk.aggs,
            value_cols=blk.value_cols,
            key_min=blk.key_min,
            key_max=blk.key_max,
        )

    def build_aggregate_trie(self, threshold: float) -> None:
        """Materialize the AggregateTrie from collected statistics.

        ``threshold`` is the paper's aggregate threshold: the relative
        size overhead allowed, as a fraction of the GeoBlock header size.
        The cached aggregates follow the ``n_cells`` headers in slot order,
        written in place into rows reserved for the most cells the
        threshold can cache. Only a build that needs more rows than are
        reserved (the first, or one with a larger threshold) copies the
        headers, into new arrays: the headers V2 starts with stay shared
        with the block it came from and are never written.
        """
        self.agg_trie = trie = AggregateTrie.build(self, self.stats, threshold)
        n = self.n_cells
        if trie.capacity > self.reserved_rows:
            self.reserved_rows = trie.capacity
            self.counts = _with_rows(self.counts, n, trie.capacity)
            self.aggs = {
                c: {s: _with_rows(v, n, trie.capacity) for s, v in a.items()}
                for c, a in self.aggs.items()
            }
        rows = slice(n, n + len(trie))
        counts, aggs = self.cell_aggregates(trie.ids)
        self.counts[rows] = counts
        for c, a in aggs.items():
            for s, v in a.items():
                self.aggs[c][s][rows] = v

    def _plan(self, cells):
        """Adapted planning (paper Figure 5): cached cells, and cached
        direct children of uncached ones, resolve to their rows
        ``n_cells + slot``; the cells left over are planned as in V1.
        The whole covering is recorded in the StatsTrie once per query."""
        if self.agg_trie is None:
            plan = super()._plan(cells)
        else:
            slots, rest = self.agg_trie.lookup(cells)
            plan = self.n_cells + slots
            if len(rest):  # planning no cells costs as much as the lookup
                plan = np.concatenate([super()._plan(rest), plan])
        self.stats.record_many(cells)
        return plan

    def size_bytes(self) -> int:
        extra = self.agg_trie.size_bytes() if self.agg_trie is not None else 0
        return self.header_size_bytes() + extra
