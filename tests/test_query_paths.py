"""Every execution path of a cell query returns one answer.

V1, V2 and BTree must match the BinarySearch baseline on the same
cells, and the specialized COUNT must equal the SELECT count. Repeated,
nested and unsorted cells count each tuple once, as a brute-force count
over the raw keys does, also for arbitrary cell sets drawn by
hypothesis. Cells finer than the block level hold no CellBlock of their
own, so every path must reject them. Edge polygons (far outside the
data, a collinear sliver, edges on cell boundaries) get one answer from
V1, V2, COUNT, BinarySearch and BTree. One digest pins every engine's
answers bit for bit.
"""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.binary_search import BinarySearchEngine
from repro.baselines.btree import BTreeEngine
from repro.baselines.quadtree import QuadtreeEngine
from repro.core.geoblock import AdaptiveGeoBlock, GeoBlock
from repro.core.raw import extract_and_reorganize
from repro.experiments import EXTENDED_AGGS
from repro.s2lite.cell import cell_from_latlon, cell_level, children, parent, range_max, range_min
from repro.s2lite.covering import quad_bounds
from repro.s2lite.polygon import Polygon
from repro.synth_data import nyc_taxi_pandas
from repro.workloads import DEFAULT_AGGS, VALUE_COLS, neighborhoods, skewed_workload

TAXI = nyc_taxi_pandas(sf=0.005)
RAW = extract_and_reorganize(TAXI, VALUE_COLS)
LEVEL = 15
V1 = GeoBlock.build_from_raw(RAW, level=LEVEL)
BS = BinarySearchEngine(RAW, LEVEL)
BT = BTreeEngine(RAW, LEVEL)
HOODS = neighborhoods()
PLANS = [V1.cover(p) for p in HOODS]
COUNT = ("passenger_count", "count")


def trained_v2(threshold: float) -> AdaptiveGeoBlock:
    """V2 after the base workload once and the skewed one x4."""
    v2 = AdaptiveGeoBlock.from_block(V1)
    pos = {id(p): i for i, p in enumerate(HOODS)}
    skew = [PLANS[pos[id(p)]] for p in skewed_workload(HOODS, frac=0.1)]
    for cells in PLANS + skew * 4:
        v2.query_cells(cells, DEFAULT_AGGS)
    v2.build_aggregate_trie(threshold)
    return v2


def raw_under(cells):
    """Mask of the raw tuples whose key lies under any of ``cells``."""
    under = np.zeros(len(RAW.keys), dtype=bool)
    for c in cells:
        under |= (RAW.keys >= range_min(c)) & (RAW.keys <= range_max(c))
    return under


def brute_count(cells) -> int:
    """Raw tuples whose key lies under any of ``cells``."""
    return int(raw_under(cells).sum())


def brute_answer(cells, specs):
    """Every aggregate of ``specs`` over the raw tuples under any of
    ``cells``, computed from the raw columns directly."""
    under = raw_under(cells)
    n = int(under.sum())
    out = {}
    for col, op in specs:
        v = RAW.columns[col][under]
        if op == "count":
            out[col, op] = n
        elif op == "sum":
            out[col, op] = float(v.sum())
        elif op == "avg":
            out[col, op] = float(v.sum()) / n if n else None
        else:
            out[col, op] = float(getattr(v, op)()) if n else None
    return out


def assert_same(got, exp):
    """Counts, minima and maxima exactly; sums up to float association."""
    assert got.keys() == exp.keys()
    for k, v in exp.items():
        if v is None or k[1] != "sum":
            assert got[k] == v, k
        else:
            assert got[k] == pytest.approx(v, rel=1e-9), k


@pytest.mark.parametrize("threshold", [0.05, 1.0])
def test_every_path_gives_one_answer(threshold):
    v2 = trained_v2(threshold)
    trie = v2.agg_trie
    # A parent whose direct children, not itself, are cached.
    only_kids = next(
        parent(c, cell_level(c) - 1)
        for c in trie.ids.tolist()
        if cell_level(c) > trie.root_level
        and parent(c, cell_level(c) - 1) not in trie.ids
    )
    assert any(k in trie.ids for k in children(only_kids))
    cached = int(trie.ids[0])
    mid = int(V1.keys[len(V1.keys) // 2])
    first = list(PLANS[0])
    edge = [
        [],
        [cell_from_latlon(0.0, 0.0, LEVEL)],  # outside the block
        [parent(mid, 10)],
        [only_kids],
        first + first,  # every cell twice
        first[::-1],  # unsorted
        first + [parent(first[0], cell_level(first[0]) - 1)],  # a parent after its child
        [parent(mid, 10), parent(mid, 12), mid, mid],  # nested chain
        [*children(only_kids), only_kids],  # partly cached children, then their parent
        [parent(cached, cell_level(cached) - 1), cached, cached],  # a cached cell and its parent
    ]
    for cells in edge:
        assert BS.count_cells(cells) == brute_count(cells), cells
    for cells in PLANS + edge:
        want = BS.query_cells(cells, DEFAULT_AGGS)
        for engine in (V1, v2, BT):
            assert_same(engine.query_cells(cells, DEFAULT_AGGS), want)
            assert engine.count_cells(cells) == want[COUNT]


def _grid_rect(x, y, nx, ny):
    """A rectangle whose edges lie exactly on level-LEVEL cell boundaries."""
    lon_lo, lat_lo, _, _ = quad_bounds(x, y, LEVEL)
    _, _, lon_hi, lat_hi = quad_bounds(x + nx - 1, y + ny - 1, LEVEL)
    return Polygon([(lon_lo, lat_lo), (lon_hi, lat_lo), (lon_hi, lat_hi), (lon_lo, lat_hi)])


@pytest.mark.parametrize(
    "poly,populated",
    [
        (Polygon([(2.30, 48.85), (2.36, 48.85), (2.36, 48.88), (2.30, 48.88)]), False),  # Paris
        (Polygon([(-73.99, 40.74), (-73.98, 40.75), (-73.97, 40.76)]), True),  # collinear sliver
        (_grid_rect(9650, 23802, 4, 3), True),  # Midtown, on the level-15 grid
    ],
    ids=["far_outside", "sliver", "grid_aligned"],
)
def test_edge_polygons_give_one_answer(poly, populated):
    want = BS.query_select(poly, DEFAULT_AGGS)
    assert (want[COUNT] > 0) == populated
    assert_same(BT.query_select(poly, DEFAULT_AGGS), want)
    assert BS.query_count(poly) == BT.query_count(poly) == want[COUNT]
    for engine in (V1, trained_v2(0.05)):
        assert_same(engine.query_select(poly, DEFAULT_AGGS), want)
        assert engine.query_count(poly) == want[COUNT]


def test_cells_finer_than_block_level_rejected():
    # The four children of a populated CellBlock: an engine one level
    # finer finds their tuples, so answering 0 would be silently wrong.
    kids = children(int(V1.keys[len(V1.keys) // 2]))
    assert BinarySearchEngine(RAW, LEVEL + 1).count_cells(kids) > 0
    v2 = trained_v2(0.05)
    for engine in (V1, v2, BS, BT):
        with pytest.raises(ValueError):
            engine.query_cells(kids, DEFAULT_AGGS)
        with pytest.raises(ValueError):
            engine.query_cells([int(V1.keys[0])] + kids[:1], DEFAULT_AGGS)
    for engine in (V1, v2, BS, BT):
        with pytest.raises(ValueError):
            engine.count_cells(kids)


def test_cell_aggregates_rejects_finer_cells():
    # cell_aggregates is an entry of its own (the trie build calls it), so
    # it checks the level itself: the range search checks nothing.
    kids = children(int(V1.keys[len(V1.keys) // 2]))
    for engine in (V1, trained_v2(0.05)):
        with pytest.raises(ValueError):
            engine.cell_aggregates(kids)
        with pytest.raises(ValueError):
            engine.cell_aggregates([int(V1.keys[0])] + kids[:1])


ALL_AGGS = [(c, op) for c in VALUE_COLS for op in ("count", "sum", "min", "max", "avg")]
V2_5 = trained_v2(0.05)
# Cells at or above the block level around a few point keys in the data
# and one far outside it, the cells V2 caches and the parents of cached
# children: lists of them repeat, nest, come unsorted, miss the data or
# are empty, and reach every branch of V2's plan.
_KEYS = [int(k) for k in RAW.keys[:: len(RAW.keys) // 8]] + [cell_from_latlon(0.0, 0.0, 30)]
_query_cell = st.one_of(
    st.builds(parent, st.sampled_from(_KEYS), st.integers(0, LEVEL)),
    st.sampled_from(V2_5.agg_trie.ids.tolist()),
    st.sampled_from(V2_5.agg_trie.child_parent_ids.tolist()),
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cells=st.lists(_query_cell, max_size=12))
def test_any_cell_set_gives_the_brute_force_answer(cells):
    want = brute_answer(cells, ALL_AGGS)
    for engine in (V1, V2_5, BS, BT):
        got = engine.query_cells(cells, ALL_AGGS)
        assert got.keys() == want.keys()
        for k, v in want.items():
            if v is None or k[1] not in ("sum", "avg"):
                assert got[k] == v, (engine, k)
            else:  # sums up to float association
                assert got[k] == pytest.approx(v, rel=1e-9), (engine, k)
        assert engine.count_cells(cells) == want[COUNT]


DIGEST_AGGS = EXTENDED_AGGS + [("trip_distance", "avg"), ("dropoff_ts", "sum")]
ANSWER_DIGEST = "cee38907b0795c567183a3551a86235d34a2ff8f5b47cd4d9a4715ad4952067b"


def test_answer_digest():
    """Every aggregate of V1, V2 trained at 5%, BinarySearch and BTree on
    every neighborhood covering and an empty plan, and of the PHTree
    stand-in on the neighborhoods' interior rects, hashed in one digest:
    the answers stay bit-identical, not just equal up to float
    association."""
    h = hashlib.sha256()
    for engine in (V1, trained_v2(0.05), BS, BT):
        for cells in PLANS + [[]]:
            h.update(repr(engine.query_cells(cells, DIGEST_AGGS)).encode())
    qt = QuadtreeEngine(RAW)
    for poly in HOODS:
        h.update(repr(qt.query_rect(poly.interior_rect(), DIGEST_AGGS)).encode())
    assert h.hexdigest() == ANSWER_DIGEST
