"""Tests for the s2lite 64-bit cell-id algebra."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.s2lite.cell import (
    MAX_LEVEL,
    cell_bounds,
    cell_diag_meters,
    cell_from_latlon,
    cell_id_from_quad,
    cell_level,
    children,
    common_ancestor,
    contains,
    parent,
    point_keys_from_latlon,
    range_max,
    range_min,
)

NYC = (40.75, -73.98)  # Midtown Manhattan


@pytest.mark.parametrize("level", [0, 1, 5, 13, 17, 21, 30])
def test_level_roundtrip(level):
    cid = cell_from_latlon(*NYC, level)
    assert cell_level(cid) == level


def test_point_keys_are_odd_leaves():
    g = np.random.default_rng(0)
    lats = g.uniform(-90, 90, 100)
    lons = g.uniform(-180, 180, 100)
    keys = point_keys_from_latlon(lats, lons)
    assert (keys % 2 == 1).all()
    assert cell_level(keys[0]) == MAX_LEVEL


def test_parent_is_ancestor():
    key = point_keys_from_latlon(*NYC)
    for level in range(0, MAX_LEVEL + 1):
        p = parent(key, level)
        assert cell_level(p) == level
        assert contains(p, key)


def test_parent_chain_consistent():
    key = point_keys_from_latlon(*NYC)
    for level in range(1, MAX_LEVEL + 1):
        assert parent(parent(key, level), level - 1) == parent(key, level - 1)


@pytest.mark.parametrize("level", [0, 3, 10, 17, 29])
def test_children_partition_parent_range(level):
    cid = cell_from_latlon(*NYC, level)
    kids = children(cid)
    assert len(kids) == 4
    assert all(cell_level(k) == level + 1 for k in kids)
    assert all(parent(k, level) == cid for k in kids)
    # Children ranges tile the parent range exactly, in id order.
    lo, hi = range_min(cid), range_max(cid)
    spans = sorted((range_min(k), range_max(k)) for k in kids)
    assert spans[0][0] == lo and spans[-1][1] == hi
    for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
        assert b_lo == a_hi + 2  # gap of 1 holds exactly the parent-level id? no: +2 skips the odd id between
    # Every id strictly inside the parent range belongs to exactly one child
    # or is the child-level boundary id pattern — verify via containment of
    # random point keys.
    g = np.random.default_rng(1)
    lon_lo, lat_lo, lon_hi, lat_hi = cell_bounds(cid)
    lats = g.uniform(lat_lo + 1e-9, lat_hi - 1e-9, 50)
    lons = g.uniform(lon_lo + 1e-9, lon_hi - 1e-9, 50)
    keys = point_keys_from_latlon(lats, lons)
    for k in keys:
        owners = [c for c in kids if contains(c, int(k))]
        assert len(owners) == 1


def test_leaf_has_no_children():
    key = point_keys_from_latlon(*NYC)
    with pytest.raises(ValueError):
        children(key)


def test_range_contains_all_descendant_points():
    cid = cell_from_latlon(*NYC, 15)
    lon_lo, lat_lo, lon_hi, lat_hi = cell_bounds(cid)
    g = np.random.default_rng(2)
    lats = g.uniform(lat_lo + 1e-9, lat_hi - 1e-9, 200)
    lons = g.uniform(lon_lo + 1e-9, lon_hi - 1e-9, 200)
    keys = point_keys_from_latlon(lats, lons)
    assert (keys >= range_min(cid)).all() and (keys <= range_max(cid)).all()


def test_points_outside_cell_are_outside_range():
    cid = cell_from_latlon(*NYC, 15)
    lon_lo, lat_lo, lon_hi, lat_hi = cell_bounds(cid)
    # A point safely outside the cell bounds must not fall in the id range.
    far = point_keys_from_latlon(lat_lo - 1.0, lon_lo - 1.0)
    assert not (range_min(cid) <= far <= range_max(cid))


def test_cell_bounds_contains_generating_point():
    for level in (5, 13, 17, 21):
        cid = cell_from_latlon(*NYC, level)
        lon_lo, lat_lo, lon_hi, lat_hi = cell_bounds(cid)
        assert lon_lo <= NYC[1] <= lon_hi
        assert lat_lo <= NYC[0] <= lat_hi


def test_cell_bounds_shrink_with_level():
    sizes = []
    for level in range(5, 25):
        cid = cell_from_latlon(*NYC, level)
        lon_lo, lat_lo, lon_hi, lat_hi = cell_bounds(cid)
        sizes.append(lon_hi - lon_lo)
    assert all(a == pytest.approx(2 * b) for a, b in zip(sizes, sizes[1:]))


def test_common_ancestor():
    a = cell_from_latlon(40.75, -73.98, 20)
    b = cell_from_latlon(40.76, -73.97, 20)
    anc = common_ancestor(a, b)
    assert contains(anc, a) and contains(anc, b)
    # Minimality: no child of anc contains both.
    if cell_level(anc) < MAX_LEVEL:
        for c in children(anc):
            assert not (contains(c, a) and contains(c, b))


def test_common_ancestor_of_same_cell():
    a = cell_from_latlon(*NYC, 18)
    assert common_ancestor(a, a) == a


def test_diag_meters_halves_per_level():
    assert cell_diag_meters(18) == pytest.approx(cell_diag_meters(17) / 2)
    # Document our scale: level 17 diagonal is a few hundred metres.
    assert 100 < cell_diag_meters(17) < 1000


@given(
    lat=st.floats(min_value=-89.99, max_value=89.99),
    lon=st.floats(min_value=-179.99, max_value=179.99),
    level=st.integers(min_value=0, max_value=29),
)
@settings(max_examples=100, deadline=None)
def test_property_parent_range_nesting(lat, lon, level):
    key = point_keys_from_latlon(lat, lon)
    c_fine = parent(key, level + 1)
    c_coarse = parent(key, level)
    assert range_min(c_coarse) <= range_min(c_fine)
    assert range_max(c_fine) <= range_max(c_coarse)


def test_vectorized_parent_matches_scalar():
    g = np.random.default_rng(3)
    lats = g.uniform(40, 41, 20)
    lons = g.uniform(-74.3, -73.7, 20)
    keys = point_keys_from_latlon(lats, lons)
    vec = parent(keys, 17)
    for i in range(20):
        assert int(vec[i]) == parent(int(keys[i]), 17)


def test_cell_id_from_quad_matches_latlon_path():
    # Build the level-10 id both through lat/lon and through quad coords.
    cid = cell_from_latlon(*NYC, 10)
    lon_lo, lat_lo, lon_hi, lat_hi = cell_bounds(cid)
    n = 1 << 10
    x = int((lon_lo + 180.0) / 360.0 * n + 0.5)
    y = int((lat_lo + 90.0) / 180.0 * n + 0.5)
    assert cell_id_from_quad(x, y, 10) == cid
