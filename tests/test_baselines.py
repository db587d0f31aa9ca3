"""Tests for the four baseline engines.

Key invariants: BinarySearch and BTree answer the *same cell queries* as
the GeoBlock and must return byte-identical results (the paper keeps
them comparable by sharing the query mapping); the quadtree and R-tree
answer interior-rectangle queries and are validated against brute force.
"""
import numpy as np
import pytest

from repro.baselines.binary_search import BinarySearchEngine
from repro.baselines.btree import BPlusTree, BTreeEngine
from repro.baselines.quadtree import PointQuadtree, QuadtreeEngine
from repro.baselines.rtree import RTreeEngine, STRTree
from repro.core.geoblock import GeoBlock
from repro.core.raw import extract_and_reorganize
from repro.exact import exact_mask
from repro.s2lite.polygon import Rect
from repro.synth_data import nyc_taxi_pandas
from repro.workloads import DEFAULT_AGGS, VALUE_COLS, neighborhoods

TAXI = nyc_taxi_pandas(sf=0.005)
RAW = extract_and_reorganize(TAXI, VALUE_COLS)
LEVEL = 15
BLOCK = GeoBlock.build_from_raw(RAW, level=LEVEL)
BS = BinarySearchEngine(RAW, LEVEL)
BT = BTreeEngine(RAW, LEVEL)
QT = QuadtreeEngine(RAW)
RT = RTreeEngine(RAW)
HOODS = neighborhoods()


# -- B+tree index ----------------------------------------------------------

def test_bplustree_lower_bound_matches_searchsorted():
    g = np.random.default_rng(0)
    tree = BPlusTree(RAW.keys)
    probes = np.concatenate(
        [
            g.choice(RAW.keys, 50),  # existing keys
            g.integers(RAW.keys[0], RAW.keys[-1], 50),  # arbitrary
            [RAW.keys[0] - 10, RAW.keys[-1] + 10],  # out of range
        ]
    )
    for k in probes:
        assert tree.lower_bound(int(k)) == np.searchsorted(RAW.keys, k, side="left")


def test_bplustree_height_logarithmic():
    tree = BPlusTree(RAW.keys)
    assert tree.height <= int(np.ceil(np.log(len(RAW)) / np.log(64))) + 1


def test_bplustree_small_inputs():
    for n in (1, 2, 63, 64, 65, 4097):
        keys = np.sort(np.random.default_rng(n).integers(0, 10**6, n))
        tree = BPlusTree(keys)
        for k in (int(keys[0]), int(keys[-1]), int(keys[n // 2]), -1, 10**7):
            assert tree.lower_bound(k) == np.searchsorted(keys, k, side="left")


def test_bplustree_rejects_empty():
    with pytest.raises(ValueError):
        BPlusTree(np.empty(0, dtype=np.int64))


def test_bplustree_duplicate_keys():
    keys = np.sort(np.repeat(np.arange(100, dtype=np.int64), 70))
    tree = BPlusTree(keys)
    for k in (0, 1, 50, 99):
        assert tree.lower_bound(k) == np.searchsorted(keys, k, side="left")


# -- BinarySearch / BTree vs GeoBlock (identical results) ------------------

def assert_same_results(got, exp):
    """Counts and min/max match exactly; sums to fp round-off (the block
    adds per-cell partial sums, the baselines add raw values — different
    association order)."""
    assert got.keys() == exp.keys()
    for k, v in exp.items():
        if v is None:
            assert got[k] is None, k
        else:
            assert got[k] == pytest.approx(v, rel=1e-12), k


@pytest.mark.parametrize("hood_idx", [0, 9, 33, 61, 90, 120])
def test_binarysearch_matches_block(hood_idx):
    poly = HOODS[hood_idx]
    cells = BLOCK.cover(poly)
    assert_same_results(
        BS.query_cells(cells, DEFAULT_AGGS), BLOCK.query_cells(cells, DEFAULT_AGGS)
    )


@pytest.mark.parametrize("hood_idx", [0, 9, 33, 61, 90, 120])
def test_btree_matches_block(hood_idx):
    poly = HOODS[hood_idx]
    cells = BLOCK.cover(poly)
    assert_same_results(
        BT.query_cells(cells, DEFAULT_AGGS), BLOCK.query_cells(cells, DEFAULT_AGGS)
    )


def test_count_queries_agree():
    for poly in HOODS[:15]:
        cells = BLOCK.cover(poly)
        c = BLOCK.count_cells(cells)
        assert BS.count_cells(cells) == c
        assert BT.count_cells(cells) == c


def test_polygon_path_agrees():
    poly = HOODS[42]
    assert_same_results(
        BS.query_select(poly, DEFAULT_AGGS), BLOCK.query_select(poly, DEFAULT_AGGS)
    )
    assert_same_results(
        BT.query_select(poly, DEFAULT_AGGS), BLOCK.query_select(poly, DEFAULT_AGGS)
    )
    assert BS.query_count(poly) == BLOCK.query_count(poly)


def test_binarysearch_has_no_overhead():
    assert BS.size_bytes() == 0
    assert BT.size_bytes() > 0
    # Secondary index is far smaller than the data it indexes.
    assert BT.size_bytes() < RAW.size_bytes() / 10


# -- quadtree (PHTree stand-in) -------------------------------------------

def test_quadtree_range_matches_brute_force():
    rect = Rect(-74.00, 40.73, -73.95, 40.78)
    idx = QT.tree.range_indices(rect)
    brute = rect.contains_points(RAW.lons, RAW.lats)
    assert len(idx) == int(brute.sum())
    assert set(idx.tolist()) == set(np.flatnonzero(brute).tolist())


@pytest.mark.parametrize(
    "rect",
    [
        Rect(-74.02, 40.70, -73.93, 40.80),
        Rect(-73.80, 40.63, -73.76, 40.66),  # JFK
        Rect(-75.0, 41.5, -74.9, 41.6),  # empty
    ],
)
def test_quadtree_counts(rect):
    brute = int(rect.contains_points(RAW.lons, RAW.lats).sum())
    assert len(QT.tree.range_indices(rect)) == brute


def test_quadtree_aggregates_match_brute_force():
    rect = Rect(-74.00, 40.73, -73.95, 40.78)
    res = QT.query_rect(rect, DEFAULT_AGGS)
    m = rect.contains_points(RAW.lons, RAW.lats)
    assert res[("passenger_count", "count")] == int(m.sum())
    assert res[("trip_distance", "sum")] == pytest.approx(
        RAW.columns["trip_distance"][m].sum()
    )
    assert res[("dropoff_ts", "min")] == pytest.approx(RAW.columns["dropoff_ts"][m].min())


def test_quadtree_interior_rect_undercounts():
    """The PHTree mapping covers fewer points than the polygon (the paper
    reports its measured selectivities are *lower*)."""
    for poly in HOODS[:10]:
        exact = int(exact_mask(TAXI, poly).sum())
        assert QT.query_count(poly) <= exact + 1  # boundary slack


def test_quadtree_rejects_empty():
    with pytest.raises(ValueError):
        PointQuadtree(np.empty(0), np.empty(0))


def _check_quadtree(tree, max_depth):
    """Every node is counted, leaves tile ``[0, n)`` in order, and a leaf
    exceeds ``leaf_cap`` only at ``max_depth``. Returns the leaves."""
    leaves = []

    def walk(node, depth):
        if node.children is None:
            leaves.append((node.lo, node.hi, depth))
            return 1
        return 1 + sum(walk(c, depth + 1) for c in node.children)

    assert walk(tree.root, 0) == tree.n_nodes
    assert leaves[0][0] == 0 and leaves[-1][1] == len(tree.lons)
    assert all(lo < hi for lo, hi, _ in leaves)
    assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
    for lo, hi, depth in leaves:
        assert hi - lo <= tree.leaf_cap or depth == max_depth
    return leaves


def test_quadtree_leaf_capacity():
    _check_quadtree(QT.tree, max_depth=20)
    assert QT.tree.n_nodes > 10


def test_quadtree_max_depth_overrides_leaf_capacity():
    tree = PointQuadtree(RAW.lons, RAW.lats, leaf_cap=64, max_depth=3)
    leaves = _check_quadtree(tree, max_depth=3)
    assert any(hi - lo > tree.leaf_cap for lo, hi, _ in leaves)


# -- R-tree (aR-tree emulation) -------------------------------------------

def test_rtree_count_matches_brute_force():
    for rect in [
        Rect(-74.00, 40.73, -73.95, 40.78),
        Rect(-73.80, 40.63, -73.76, 40.66),
        Rect(-75.0, 41.5, -74.9, 41.6),
    ]:
        brute = int(rect.contains_points(RAW.lons, RAW.lats).sum())
        assert RT.count_rect(rect) == brute


def test_rtree_interior_rect_undercounts():
    for poly in HOODS[:10]:
        exact = int(exact_mask(TAXI, poly).sum())
        assert RT.query_count(poly) <= exact + 1


def test_rtree_matches_quadtree_on_same_rects():
    for poly in HOODS[20:30]:
        r = poly.interior_rect()
        assert RT.count_rect(r) == len(QT.tree.range_indices(r))


def test_rtree_node_structure():
    t = STRTree(RAW.lons, RAW.lats)
    # Every level's counts sum to the point total; the root holds it all.
    for lv in t.levels:
        assert int(lv["count"].sum()) == len(RAW)
    assert len(t.levels[-1]["count"]) == 1
    # Levels shrink by a factor of the node capacity.
    for lower, upper in zip(t.levels, t.levels[1:]):
        assert len(upper["count"]) == -(-len(lower["count"]) // 16)
    # Parent MBRs contain child MBRs (STR positional packing).
    lo, hi = t.levels[0], t.levels[1]
    for i in range(min(10, len(hi["count"]))):
        kids = slice(i * 16, (i + 1) * 16)
        real = lo["count"][kids] > 0
        if real.any():
            assert hi["lon_lo"][i] <= lo["lon_lo"][kids][real].min()
            assert hi["lon_hi"][i] >= lo["lon_hi"][kids][real].max()


def test_rtree_rejects_empty():
    with pytest.raises(ValueError):
        STRTree(np.empty(0), np.empty(0))


def test_all_engines_size_reporting():
    # Overhead ordering sanity: quadtree/rtree index individual points and
    # cost more than the GeoBlock's per-cell headers (paper Fig. 6b).
    assert QT.size_bytes() > BLOCK.size_bytes()
    assert RT.size_bytes() > BLOCK.size_bytes()
