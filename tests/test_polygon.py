"""Tests for planar polygon/rectangle predicates."""
import numpy as np
import pytest

from repro.s2lite.polygon import _BLOCK, Polygon, Rect

SQUARE = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
TRIANGLE = Polygon([(0, 0), (4, 0), (0, 4)])
# Concave "C" shape opening to the right.
CSHAPE = Polygon([(0, 0), (4, 0), (4, 1), (1, 1), (1, 3), (4, 3), (4, 4), (0, 4)])


def test_polygon_requires_three_vertices():
    with pytest.raises(ValueError):
        Polygon([(0, 0), (1, 1)])


def test_closed_ring_deduplicated():
    p = Polygon([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    assert len(p.vertices) == 4


def test_bbox():
    assert SQUARE.bbox == Rect(0, 0, 4, 4)
    assert TRIANGLE.bbox == Rect(0, 0, 4, 4)


@pytest.mark.parametrize(
    "lon,lat,expected",
    [
        (2, 2, True),
        (0.5, 0.5, True),
        (5, 2, False),
        (-1, 2, False),
        (2, 5, False),
    ],
)
def test_square_contains_point(lon, lat, expected):
    assert SQUARE.contains_point(lon, lat) == expected


@pytest.mark.parametrize(
    "lon,lat,expected",
    [
        (1, 1, True),
        (3.5, 0.25, True),
        (3, 3, False),  # outside hypotenuse
        (2.1, 2.1, False),
    ],
)
def test_triangle_contains_point(lon, lat, expected):
    assert TRIANGLE.contains_point(lon, lat) == expected


@pytest.mark.parametrize(
    "lon,lat,expected",
    [
        (0.5, 2, True),  # spine of the C
        (2, 0.5, True),  # bottom arm
        (2, 3.5, True),  # top arm
        (2, 2, False),  # mouth of the C
        (3, 2, False),
    ],
)
def test_concave_contains_point(lon, lat, expected):
    assert CSHAPE.contains_point(lon, lat) == expected


def test_contains_points_vectorized_matches_scalar():
    g = np.random.default_rng(0)
    lons = g.uniform(-1, 5, 200)
    lats = g.uniform(-1, 5, 200)
    vec = CSHAPE.contains_points(lons, lats)
    for i in range(200):
        assert vec[i] == CSHAPE.contains_point(lons[i], lats[i])


def test_rect_intersects_rect():
    a = Rect(0, 0, 2, 2)
    assert a.intersects(Rect(1, 1, 3, 3))
    assert a.intersects(Rect(2, 2, 3, 3))  # touching corner counts
    assert not a.intersects(Rect(2.1, 0, 3, 2))


def test_polygon_intersects_rect_cases():
    # Rect fully inside.
    assert SQUARE.intersects_rect(Rect(1, 1, 2, 2))
    # Rect fully containing polygon.
    assert SQUARE.intersects_rect(Rect(-1, -1, 5, 5))
    # Overlapping edge.
    assert SQUARE.intersects_rect(Rect(3, 3, 5, 5))
    # Disjoint.
    assert not SQUARE.intersects_rect(Rect(5, 5, 6, 6))
    # Rect in the concave mouth: inside bbox but outside polygon.
    assert not CSHAPE.intersects_rect(Rect(2.0, 1.5, 3.5, 2.5))


def test_polygon_edge_through_rect_without_vertices():
    # Triangle hypotenuse passes through this rect; no vertex inside,
    # no rect corner inside the triangle.
    assert TRIANGLE.intersects_rect(Rect(1.8, 1.8, 2.2, 2.2))


def test_contains_rect_cases():
    assert SQUARE.contains_rect(Rect(1, 1, 3, 3))
    assert not SQUARE.contains_rect(Rect(3, 3, 5, 5))  # sticks out
    assert not SQUARE.contains_rect(Rect(5, 5, 6, 6))  # disjoint
    assert TRIANGLE.contains_rect(Rect(0.5, 0.5, 1.0, 1.0))
    assert not TRIANGLE.contains_rect(Rect(2.5, 2.5, 3, 3))
    # All four corners inside the C arms, but the rect spans the mouth.
    assert not CSHAPE.contains_rect(Rect(0.5, 0.5, 3.7, 3.6))


def test_area_and_centroid():
    assert SQUARE.area() == pytest.approx(16.0)
    assert TRIANGLE.area() == pytest.approx(8.0)
    assert SQUARE.centroid() == pytest.approx((2.0, 2.0))


def test_interior_rect_square():
    r = SQUARE.interior_rect()
    assert SQUARE.contains_rect(r)
    # For an axis-aligned square the interior rect recovers ~the square.
    assert r.width * r.height > 0.9 * 16.0


def test_interior_rect_triangle_inside():
    r = TRIANGLE.interior_rect()
    assert r.width > 0 and r.height > 0
    assert TRIANGLE.contains_rect(r)
    # Interior rect covers strictly less than the polygon.
    assert r.width * r.height < TRIANGLE.area()


def test_interior_rect_concave_centroid_outside():
    # The C-shape's area centroid sits near the mouth; interior_rect must
    # still return a rectangle fully inside the polygon.
    r = CSHAPE.interior_rect()
    assert CSHAPE.contains_rect(r)


def test_rect_contains_points_vectorized():
    r = Rect(0, 0, 1, 1)
    lons = np.array([0.5, 1.5, 0.0])
    lats = np.array([0.5, 0.5, 1.0])
    assert r.contains_points(lons, lats).tolist() == [True, False, True]


def reference_contains_points(poly, lons, lats):
    """The per-edge ray-casting loop, frozen as it was before the
    broadcast over all edges replaced it."""
    x1, y1 = poly.vertices[:, 0], poly.vertices[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    inside = np.zeros(lons.shape, dtype=bool)
    for xa, ya, xb, yb in zip(x1, y1, x2, y2):
        if ya == yb:
            continue
        crosses = ((ya > lats) != (yb > lats)) & (lons < (xb - xa) * (lats - ya) / (yb - ya) + xa)
        inside ^= crosses
    return inside


def test_contains_points_in_blocks_matches_reference():
    """A 301-vertex ring whose top is a staircase (100 horizontal edges)
    and whose bottom zigzags, queried with more points than one block
    holds: every vertex, every edge's midpoint and quarter points (exactly
    on the edges), points on the horizontal edges' lines, a lattice and
    random points."""
    top = [(i + dx, 10.0 + i % 3) for i in range(100) for dx in (0.0, 0.5)]
    bottom = [(100.0 - j, 0.5 * (j % 2)) for j in range(101)]
    ring = Polygon(top + bottom)
    v = ring.vertices
    assert len(v) >= 200
    w = np.roll(v, -1, axis=0)
    g = np.random.default_rng(3)
    gx, gy = np.meshgrid(np.arange(-1.0, 101.5, 0.5), np.arange(-1.0, 13.5, 0.5))
    pts = np.concatenate(
        [
            v,
            (v + w) / 2,
            (3 * v + w) / 4,
            np.c_[v[:, 0] + 0.25, v[:, 1]],
            np.c_[gx.ravel(), gy.ravel()],
            np.c_[g.uniform(-1, 101, 3000), g.uniform(-1, 13, 3000)],
        ]
    )
    n_ray_edges = int((v[:, 1] != w[:, 1]).sum())
    assert len(pts) > 2 * (_BLOCK // n_ray_edges)
    got = ring.contains_points(pts[:, 0], pts[:, 1])
    want = reference_contains_points(ring, pts[:, 0], pts[:, 1])
    assert got.dtype == bool and got.shape == want.shape
    assert np.array_equal(got, want)
    assert want.any() and not want.all()
    # The same points in one column keep their shape.
    assert np.array_equal(ring.contains_points(pts[:, :1], pts[:, 1:]).ravel(), want)
