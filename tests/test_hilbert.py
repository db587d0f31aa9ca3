"""Tests for the vectorized Hilbert curve transforms."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.s2lite.cell import MAX_LEVEL, _latlon_to_grid, point_keys_from_latlon
from repro.s2lite.hilbert import d2xy, xy2d
from repro.synth_data import nyc_taxi_pandas


def reference_xy2d(order: int, x, y):
    """The bit-at-a-time encoder ``xy2d`` replaced: 30 rounds of array
    ops at level 30. The table-driven encoder must equal it bit for bit."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64))
    d = np.zeros(x.shape, dtype=np.int64)
    s = np.int64(1) << (order - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant so the sub-curve is in canonical orientation.
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - 1 - x, x)
        y_f = np.where(flip, s - 1 - y, y)
        x, y = np.where(swap, y_f, x_f), np.where(swap, x_f, y_f)
        s >>= 1
    if d.ndim == 0:
        return int(d)
    return d


@pytest.mark.parametrize("order", range(1, 9))
def test_full_grid_matches_reference(order):
    n = 1 << order
    xs, ys = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n)))
    assert np.array_equal(xy2d(order, xs, ys), reference_xy2d(order, xs, ys))


@pytest.mark.parametrize("order", range(9, 31))
def test_random_points_match_reference(order):
    g = np.random.default_rng(order)
    xs = g.integers(0, 1 << order, 100_000)
    ys = g.integers(0, 1 << order, 100_000)
    assert np.array_equal(xy2d(order, xs, ys), reference_xy2d(order, xs, ys))


@pytest.mark.parametrize("order", range(1, 32))
def test_corners_match_reference(order):
    top = (1 << order) - 1
    for x in (0, top):
        for y in (0, top):
            assert xy2d(order, x, y) == reference_xy2d(order, x, y)


def test_scalar_zero_d_and_broadcast_inputs():
    d = xy2d(17, 70_001, 3)
    assert type(d) is int and d == reference_xy2d(17, 70_001, 3)
    d0 = xy2d(17, np.array(70_001), np.array(3))
    assert type(d0) is int and d0 == d
    ys = np.arange(0, 1 << 17, 997)
    got = xy2d(17, 70_001, ys)
    assert got.shape == ys.shape and got.dtype == np.int64
    assert np.array_equal(got, reference_xy2d(17, 70_001, ys))
    assert np.array_equal(xy2d(17, ys, 70_001), reference_xy2d(17, ys, 70_001))


def test_point_keys_match_reference():
    taxi = nyc_taxi_pandas(sf=0.01)
    lats, lons = taxi["dropoff_lat"].to_numpy(), taxi["dropoff_lon"].to_numpy()
    x, y = _latlon_to_grid(lats, lons)
    want = (reference_xy2d(MAX_LEVEL, x, y) << 1) | 1
    assert np.array_equal(point_keys_from_latlon(lats, lons), want)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
def test_bijective_small_grids(order):
    n = 1 << order
    xs, ys = np.meshgrid(np.arange(n), np.arange(n))
    d = xy2d(order, xs.ravel(), ys.ravel())
    # Every grid cell gets a unique index covering [0, 4**order).
    assert sorted(d.tolist()) == list(range(4**order))
    rx, ry = d2xy(order, d)
    assert np.array_equal(rx, xs.ravel())
    assert np.array_equal(ry, ys.ravel())


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_curve_is_continuous(order):
    """Consecutive Hilbert indices are grid neighbours (Manhattan dist 1)."""
    n = 1 << order
    x, y = d2xy(order, np.arange(4**order))
    dist = np.abs(np.diff(x)) + np.abs(np.diff(y))
    assert (dist == 1).all()
    assert 0 <= x.min() and x.max() == n - 1


def test_order1_known_values():
    # Canonical order-1 Hilbert curve: (0,0) -> (0,1) -> (1,1) -> (1,0).
    assert [d2xy(1, i) for i in range(4)] == [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_scalar_matches_vector():
    order = 8
    g = np.random.default_rng(0)
    xs = g.integers(0, 1 << order, 50)
    ys = g.integers(0, 1 << order, 50)
    vec = xy2d(order, xs, ys)
    for i in range(50):
        assert xy2d(order, int(xs[i]), int(ys[i])) == vec[i]


def test_scalar_returns_python_int():
    assert isinstance(xy2d(4, 3, 5), int)
    x, y = d2xy(4, 37)
    assert isinstance(x, int) and isinstance(y, int)


@given(
    x=st.integers(min_value=0, max_value=(1 << 30) - 1),
    y=st.integers(min_value=0, max_value=(1 << 30) - 1),
)
@settings(max_examples=200, deadline=None)
def test_roundtrip_order30(x, y):
    d = xy2d(30, x, y)
    assert 0 <= d < 4**30
    assert d2xy(30, d) == (x, y)


@given(
    x=st.integers(min_value=0, max_value=(1 << 30) - 1),
    y=st.integers(min_value=0, max_value=(1 << 30) - 1),
)
@settings(max_examples=100, deadline=None)
def test_hierarchical_prefix_property(x, y):
    """Truncating a level-30 index yields the containing coarser cell's
    index — the property the whole cell-id algebra depends on."""
    d30 = xy2d(30, x, y)
    for level in (1, 5, 13, 17, 21, 29):
        d_l = xy2d(level, x >> (30 - level), y >> (30 - level))
        assert d30 >> (2 * (30 - level)) == d_l


def test_rejects_too_large_order():
    with pytest.raises(ValueError):
        xy2d(32, 0, 0)
    with pytest.raises(ValueError):
        d2xy(32, 0)


def test_locality_beats_z_order():
    """Hilbert ordering keeps near cells near — sanity check that we did
    not accidentally implement a Z-order curve. On a Hilbert curve every
    consecutive index step is a grid adjacency, so >=50% of all adjacent
    cell pairs have index gap exactly 1 (Z-order: ~25%, median gap 2)."""
    order = 6
    n = 1 << order
    xs, ys = np.meshgrid(np.arange(n), np.arange(n))
    dmat = np.empty((n, n), dtype=np.int64)
    dmat[ys.ravel(), xs.ravel()] = xy2d(order, xs.ravel(), ys.ravel())
    gaps = np.concatenate(
        [np.abs(np.diff(dmat, axis=1)).ravel(), np.abs(np.diff(dmat, axis=0)).ravel()]
    )
    assert np.median(gaps) == 1
    assert (gaps == 1).mean() >= 0.5
