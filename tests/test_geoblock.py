"""Tests for the V1 GeoBlock: build invariants, query correctness
against brute-force cell aggregation, COUNT queries, error bounds."""
import numpy as np
import pytest

from repro.baselines.binary_search import BinarySearchEngine
from repro.baselines.btree import BTreeEngine
from repro.baselines.quadtree import QuadtreeEngine
from repro.core.geoblock import AdaptiveGeoBlock, GeoBlock
from repro.core.raw import extract_and_reorganize
from repro.exact import exact_aggregates, exact_mask, relative_count_error
from repro.s2lite.cell import cell_level, parent, range_max, range_min
from repro.s2lite.polygon import Rect
from repro.synth_data import nyc_taxi_pandas
from repro.workloads import DEFAULT_AGGS, VALUE_COLS, neighborhoods

TAXI = nyc_taxi_pandas(sf=0.005)
RAW = extract_and_reorganize(TAXI, VALUE_COLS)
BLOCK = GeoBlock.build_from_raw(RAW, level=15)
HOODS = neighborhoods()


def brute_force_cells(cells, specs):
    """Reference: aggregate raw tuples whose key falls in any cell range."""
    mask = np.zeros(len(RAW), dtype=bool)
    for c in cells:
        lo = np.searchsorted(RAW.keys, range_min(int(c)), side="left")
        hi = np.searchsorted(RAW.keys, range_max(int(c)), side="right")
        mask[lo:hi] = True
    out = {}
    for col, op in specs:
        if op == "count":
            out[(col, op)] = int(mask.sum())
            continue
        vals = RAW.columns[col][mask]
        if len(vals) == 0:
            out[(col, op)] = 0.0 if op == "sum" else None
        elif op == "avg":
            out[(col, op)] = float(vals.mean())
        else:
            out[(col, op)] = float(getattr(np, op)(vals))
    return out


def assert_results_equal(got, exp):
    assert got.keys() == exp.keys()
    for k, v in exp.items():
        if v is None:
            assert got[k] is None, k
        else:
            assert got[k] == pytest.approx(v, rel=1e-9), k


# -- build invariants ------------------------------------------------------

def test_raw_table_sorted():
    assert (np.diff(RAW.keys) >= 0).all()
    assert len(RAW) == len(TAXI)


def test_headers_sorted_unique():
    assert (np.diff(BLOCK.keys) > 0).all()
    assert all(cell_level(int(k)) == 15 for k in BLOCK.keys[:50])


def test_counts_sum_to_total():
    assert BLOCK.counts.sum() == len(RAW)


def test_offsets_consistent_with_counts():
    assert BLOCK.offsets[0] == 0
    assert np.array_equal(np.diff(BLOCK.offsets), BLOCK.counts[:-1])


def test_every_tuple_in_its_cell():
    cells = RAW.cells_at(15)
    # Tuples between offset[i] and offset[i]+count[i] belong to keys[i].
    for i in np.random.default_rng(0).integers(0, BLOCK.n_cells, 20):
        o, c = int(BLOCK.offsets[i]), int(BLOCK.counts[i])
        assert (cells[o : o + c] == BLOCK.keys[i]).all()


def test_block_header_totals():
    hdr = BLOCK.block_header
    for c in VALUE_COLS:
        assert hdr[c, "count"] == len(RAW)
        assert hdr[c, "min"] == pytest.approx(RAW.columns[c].min())
        assert hdr[c, "max"] == pytest.approx(RAW.columns[c].max())
        assert hdr[c, "sum"] == pytest.approx(RAW.columns[c].sum(), rel=1e-12)


def test_key_range_matches_raw():
    assert BLOCK.key_min == RAW.keys[0]
    assert BLOCK.key_max == RAW.keys[-1]


def test_build_rejects_empty():
    import pandas as pd

    empty = extract_and_reorganize(
        TAXI.iloc[:1], VALUE_COLS, predicate=lambda d: pd.Series(False, index=d.index)
    )
    with pytest.raises(ValueError):
        GeoBlock.build_from_raw(empty, level=15)


def test_predicate_filter_applied():
    raw2 = extract_and_reorganize(
        TAXI, VALUE_COLS, predicate=lambda d: d["passenger_count"] >= 3
    )
    assert len(raw2) == int((TAXI["passenger_count"] >= 3).sum())
    blk2 = GeoBlock.build_from_raw(raw2, level=15)
    assert blk2.aggs["passenger_count"]["min"].min() >= 3


def test_timings_recorded():
    assert RAW.timings["sort"] > 0
    assert RAW.timings["build"] > 0


def test_header_size_model():
    # key+offset+count + 3 stats x 3 cols, 8 bytes each = 96 B per cell.
    assert BLOCK.header_size_bytes() == 96 * BLOCK.n_cells
    assert BLOCK.aggregate_row_bytes() == 8 * (1 + 9)


# -- SELECT queries --------------------------------------------------------

@pytest.mark.parametrize("hood_idx", [0, 17, 40, 77, 100])
def test_select_matches_brute_force(hood_idx):
    poly = HOODS[hood_idx]
    cells = BLOCK.cover(poly)
    got = BLOCK.query_cells(cells, DEFAULT_AGGS)
    exp = brute_force_cells(cells, DEFAULT_AGGS)
    assert_results_equal(got, exp)


def test_select_via_polygon_equals_cells_path():
    poly = HOODS[3]
    assert BLOCK.query_select(poly, DEFAULT_AGGS) == BLOCK.query_cells(
        BLOCK.cover(poly), DEFAULT_AGGS
    )


@pytest.mark.parametrize("op", ["min", "max", "sum", "avg", "count"])
def test_each_op_correct(op):
    poly = HOODS[25]
    cells = BLOCK.cover(poly)
    specs = [("trip_distance", op)]
    assert_results_equal(
        BLOCK.query_cells(cells, specs), brute_force_cells(cells, specs)
    )


def test_select_empty_region():
    from repro.s2lite.polygon import Polygon

    nowhere = Polygon([(10, 10), (10.01, 10), (10.01, 10.01), (10, 10.01)])
    res = BLOCK.query_select(nowhere, DEFAULT_AGGS)
    assert res[("passenger_count", "count")] == 0
    assert res[("dropoff_ts", "min")] is None


def test_unknown_op_rejected():
    """Every engine rejects an unknown op, on a plan that selects tuples
    and on one that selects none."""
    v2 = AdaptiveGeoBlock.from_block(BLOCK)
    v2.query_cells(BLOCK.cover(HOODS[0]), DEFAULT_AGGS)
    v2.build_aggregate_trie(1.0)
    full, empty = [int(BLOCK.keys[0])], []
    for engine in (BLOCK, v2, BinarySearchEngine(RAW, 15), BTreeEngine(RAW, 15)):
        for cells in (full, empty):
            assert (engine.count_cells(cells) > 0) == bool(cells)
            for spec in (("trip_distance", "median"), ("dropoff_ts", "p99")):
                with pytest.raises(ValueError):
                    engine.query_cells(cells, [("trip_distance", "sum"), spec])
    qt = QuadtreeEngine(RAW)
    count = ("trip_distance", "count")
    for rect, populated in ((HOODS[0].interior_rect(), True), (Rect(10, 10, 10.01, 10.01), False)):
        assert (qt.query_rect(rect, [count])[count] > 0) == populated
        with pytest.raises(ValueError):
            qt.query_rect(rect, [("trip_distance", "median")])


def test_query_cell_coarser_than_level():
    """A coarse query cell must combine all its descendant CellBlocks."""
    coarse = parent(int(BLOCK.keys[0]), 10)
    got = BLOCK.query_cells([coarse], [("trip_distance", "sum"), ("trip_distance", "count")])
    exp = brute_force_cells([coarse], [("trip_distance", "sum"), ("trip_distance", "count")])
    assert_results_equal(got, exp)


# -- COUNT queries ---------------------------------------------------------

@pytest.mark.parametrize("hood_idx", [0, 17, 40, 77, 100])
def test_count_query_matches_select_count(hood_idx):
    poly = HOODS[hood_idx]
    cells = BLOCK.cover(poly)
    sel = BLOCK.query_cells(cells, [("passenger_count", "count")])
    assert BLOCK.count_cells(cells) == sel[("passenger_count", "count")]


def test_count_query_via_polygon():
    poly = HOODS[50]
    assert BLOCK.query_count(poly) == BLOCK.count_cells(BLOCK.cover(poly))


def test_count_disjoint_cell_is_zero():
    from repro.s2lite.cell import cell_from_latlon

    far = cell_from_latlon(0.0, 0.0, 15)
    assert BLOCK.count_cells([far]) == 0


# -- error bound (the paper's central approximation guarantee) -------------

@pytest.mark.parametrize("level", [11, 13, 15])
def test_covering_error_only_false_positives(level):
    """Exterior coverings over-count, never under-count."""
    blk = GeoBlock.build_from_raw(RAW, level=level)
    for poly in HOODS[:20]:
        approx = blk.query_count(poly)
        exact = int(exact_mask(TAXI, poly).sum())
        assert approx >= exact


def test_error_shrinks_with_level():
    """Mean relative error must drop as the block level grows (Fig. 8)."""
    errs = {}
    for level in (11, 13, 15):
        blk = GeoBlock.build_from_raw(RAW, level=level)
        es = []
        for poly in HOODS[:30]:
            exact = int(exact_mask(TAXI, poly).sum())
            if exact < 50:
                continue
            es.append(relative_count_error(blk.query_count(poly), exact))
        errs[level] = float(np.mean(es))
    assert errs[13] < errs[11]
    assert errs[15] < errs[13]


def test_cover_respects_block_level():
    cells = BLOCK.cover(HOODS[0])
    assert max(cell_level(int(c)) for c in cells) <= BLOCK.level


def test_answers_share_the_spec_keys():
    """Answers are keyed by the caller's spec tuples, not copies of them,
    so answers a caller keeps cost no key objects of their own."""
    cells = BLOCK.cover(HOODS[0])
    for ans in (BLOCK.query_cells(cells, DEFAULT_AGGS), BLOCK.query_cells(cells[:0], DEFAULT_AGGS)):
        assert list(ans) == DEFAULT_AGGS
        assert all(k is spec for k, spec in zip(ans, DEFAULT_AGGS))
