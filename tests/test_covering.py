"""Tests for exterior/interior polygon coverings.

The covering is GeoBlocks' only lossy step; these tests pin down the
paper's invariants: exterior coverings are supersets (false positives
only), interior coverings are subsets, levels respect the configured
bounds, and finer max levels shrink the spatial slack. The vectorized
descent must also return exactly the cells of the cell-at-a-time
reference descent frozen below, on real, generated and edge-case rings.
"""
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.s2lite.cell import (
    MAX_LEVEL,
    cell_bounds,
    cell_id_from_quad,
    cell_level,
    range_max,
    range_min,
)
from repro.s2lite.covering import (
    _fit_level,
    _root_quad,
    _start,
    exterior_covering,
    interior_covering,
    quad_bounds,
)
from repro.s2lite.polygon import Polygon, Rect
from repro.synth_data import NYC_BBOX, nyc_taxi_pandas
from repro.workloads import neighborhoods, selectivity_suite

# A quadrilateral roughly the size of a NYC neighbourhood, in Manhattan.
HOOD = Polygon(
    [(-73.99, 40.74), (-73.97, 40.745), (-73.965, 40.76), (-73.985, 40.765)]
)


def _sample_points(poly, n, seed=0):
    g = np.random.default_rng(seed)
    b = poly.bbox
    lons = g.uniform(b.lon_lo, b.lon_hi, n * 4)
    lats = g.uniform(b.lat_lo, b.lat_hi, n * 4)
    inside = poly.contains_points(lons, lats)
    return lons[inside][:n], lats[inside][:n]


def _key_in_cells(keys, cells):
    cells = np.asarray(sorted(cells), dtype=np.int64)
    lo = range_min(cells)
    hi = range_max(cells)
    idx = np.searchsorted(lo, keys, side="right") - 1
    idx = np.clip(idx, 0, len(cells) - 1)
    return (keys >= lo[idx]) & (keys <= hi[idx])


@pytest.mark.parametrize("max_level", [13, 15, 17])
def test_exterior_covering_is_superset(max_level):
    from repro.s2lite.cell import point_keys_from_latlon

    cells = exterior_covering(HOOD, max_level)
    assert cells, "covering must be non-empty"
    lons, lats = _sample_points(HOOD, 300)
    keys = point_keys_from_latlon(lats, lons)
    assert _key_in_cells(keys, cells).all()


@pytest.mark.parametrize("max_level", [15, 17])
def test_interior_covering_is_subset(max_level):
    cells = interior_covering(HOOD, max_level)
    for cid in cells:
        lon_lo, lat_lo, lon_hi, lat_hi = cell_bounds(cid)
        # Cell corners and center must be inside the polygon.
        for lon, lat in [
            (lon_lo, lat_lo),
            (lon_hi, lat_hi),
            ((lon_lo + lon_hi) / 2, (lat_lo + lat_hi) / 2),
        ]:
            assert HOOD.contains_point(lon, lat)


def test_interior_subset_of_exterior():
    ext = set(exterior_covering(HOOD, 16))
    for cid in interior_covering(HOOD, 16):
        # Every interior cell (or an ancestor of it) appears in the
        # exterior covering.
        lvl = cell_level(cid)
        from repro.s2lite.cell import parent

        assert any(parent(cid, a) in ext for a in range(lvl + 1)) or cid in ext


@pytest.mark.parametrize("max_level", [13, 15, 17])
def test_level_bounds_respected(max_level):
    min_level = 11
    cells = exterior_covering(HOOD, max_level, min_level=min_level)
    levels = [cell_level(c) for c in cells]
    assert max(levels) <= max_level
    assert min(levels) >= min_level


def test_covering_sorted_and_disjoint():
    cells = exterior_covering(HOOD, 16)
    assert cells == sorted(cells)
    spans = [(range_min(c), range_max(c)) for c in cells]
    for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
        assert b_lo > a_hi, "covering cells must not overlap"


def test_finer_covering_smaller_area():
    def area(cells):
        total = 0.0
        for c in cells:
            lon_lo, lat_lo, lon_hi, lat_hi = cell_bounds(c)
            total += (lon_hi - lon_lo) * (lat_hi - lat_lo)
        return total

    coarse = area(exterior_covering(HOOD, 13))
    fine = area(exterior_covering(HOOD, 17))
    assert fine < coarse
    assert fine >= HOOD.area() * 0.999  # exterior covering majorizes area


def test_interior_area_below_polygon_area():
    def area(cells):
        total = 0.0
        for c in cells:
            lon_lo, lat_lo, lon_hi, lat_hi = cell_bounds(c)
            total += (lon_hi - lon_lo) * (lat_hi - lat_lo)
        return total

    assert area(interior_covering(HOOD, 17)) <= HOOD.area() * 1.001


def test_covering_deterministic():
    assert exterior_covering(HOOD, 16) == exterior_covering(HOOD, 16)


def test_covering_uses_coarse_cells_inside():
    """A polygon much larger than max-level cells must be covered using
    some cells coarser than max_level (perimeter-proportional covering)."""
    cells = exterior_covering(HOOD, 18)
    levels = [cell_level(c) for c in cells]
    assert min(levels) < 18
    assert max(levels) == 18


def test_quad_rect_tiles_parent():
    r = Rect(*quad_bounds(3, 5, 4))
    kids = [Rect(*quad_bounds(6 + dx, 10 + dy, 5)) for dx in (0, 1) for dy in (0, 1)]
    assert min(k.lon_lo for k in kids) == r.lon_lo
    assert max(k.lon_hi for k in kids) == r.lon_hi
    assert min(k.lat_lo for k in kids) == r.lat_lo
    assert max(k.lat_hi for k in kids) == r.lat_hi
    # The array form gives the same bounds for every child at once.
    xs, ys = np.array([6, 6, 7, 7]), np.array([10, 11, 10, 11])
    assert [Rect(*b) for b in zip(*quad_bounds(xs, ys, 5))] == kids


def test_min_level_zero_allows_whole_polygon_cell():
    # A tiny polygon fully inside one level-10 cell: covering at
    # min_level=0 may be a single coarse cell.
    tiny = Polygon(
        [(-73.9801, 40.7501), (-73.9799, 40.7501), (-73.9799, 40.7503), (-73.9801, 40.7503)]
    )
    cells = exterior_covering(tiny, 20)
    assert len(cells) >= 1
    lvls = [cell_level(c) for c in cells]
    assert max(lvls) <= 20


# -- frozen reference ------------------------------------------------------
# The scalar cell-at-a-time descent and its predicates as they were before
# the level-by-level vectorized descent replaced them, kept verbatim (only
# made free functions) so the new covering can be checked cell for cell.


def _ref_contains_points(poly, lons, lats):
    lons = np.asarray(lons, dtype=np.float64)
    lats = np.asarray(lats, dtype=np.float64)
    x1, y1 = poly.vertices[:, 0], poly.vertices[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    inside = np.zeros(lons.shape, dtype=bool)
    for i in range(len(x1)):
        xa, ya, xb, yb = x1[i], y1[i], x2[i], y2[i]
        if ya == yb:
            continue
        crosses = ((ya > lats) != (yb > lats)) & (
            lons < (xb - xa) * (lats - ya) / (yb - ya) + xa
        )
        inside ^= crosses
    return inside


def _ref_segments_intersect(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if v == 0 else (1 if v > 0 else -1)

    def on_seg(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_seg(p1, p2, q1):
        return True
    if o2 == 0 and on_seg(p1, p2, q2):
        return True
    if o3 == 0 and on_seg(q1, q2, p1):
        return True
    if o4 == 0 and on_seg(q1, q2, p2):
        return True
    return False


def _ref_segment_intersects_rect(p1, p2, rect) -> bool:
    if rect.contains_point(*p1) or rect.contains_point(*p2):
        return True
    if (
        max(p1[0], p2[0]) < rect.lon_lo
        or min(p1[0], p2[0]) > rect.lon_hi
        or max(p1[1], p2[1]) < rect.lat_lo
        or min(p1[1], p2[1]) > rect.lat_hi
    ):
        return False
    c = rect.corners()
    return any(_ref_segments_intersect(p1, p2, c[i], c[(i + 1) % 4]) for i in range(4))


def _ref_edges(poly):
    lons, lats = poly.vertices[:, 0], poly.vertices[:, 1]
    n = len(lons)
    for i in range(n):
        yield (lons[i], lats[i]), (lons[(i + 1) % n], lats[(i + 1) % n])


def _ref_intersects_rect(poly, rect) -> bool:
    if not poly.bbox.intersects(rect):
        return False
    cx = np.array([c[0] for c in rect.corners()])
    cy = np.array([c[1] for c in rect.corners()])
    if _ref_contains_points(poly, cx, cy).any():
        return True
    if rect.contains_points(poly.vertices[:, 0], poly.vertices[:, 1]).any():
        return True
    return any(_ref_segment_intersects_rect(p1, p2, rect) for p1, p2 in _ref_edges(poly))


def _ref_contains_rect(poly, rect) -> bool:
    cx = np.array([c[0] for c in rect.corners()])
    cy = np.array([c[1] for c in rect.corners()])
    if not _ref_contains_points(poly, cx, cy).all():
        return False
    return not any(_ref_segment_intersects_rect(p1, p2, rect) for p1, p2 in _ref_edges(poly))


def _ref_quad_rect(x, y, level):
    n = 1 << level
    w_lon, w_lat = 360.0 / n, 180.0 / n
    return Rect(
        -180.0 + x * w_lon,
        -90.0 + y * w_lat,
        -180.0 + (x + 1) * w_lon,
        -90.0 + (y + 1) * w_lat,
    )


def _ref_root_quad(bbox, max_level):
    x = y = 0
    level = 0
    while level < min(MAX_LEVEL, max_level):
        advanced = False
        for dx in (0, 1):
            for dy in (0, 1):
                cx, cy = 2 * x + dx, 2 * y + dy
                r = _ref_quad_rect(cx, cy, level + 1)
                if (
                    r.lon_lo <= bbox.lon_lo
                    and r.lon_hi >= bbox.lon_hi
                    and r.lat_lo <= bbox.lat_lo
                    and r.lat_hi >= bbox.lat_hi
                ):
                    x, y, level = cx, cy, level + 1
                    advanced = True
                    break
            if advanced:
                break
        if not advanced:
            break
    return x, y, level


def _ref_cover(poly, max_level, min_level=0, interior=False):
    out = []
    x0, y0, l0 = _ref_root_quad(poly.bbox, max_level)
    stack = [(x0, y0, l0)]
    while stack:
        x, y, level = stack.pop()
        rect = _ref_quad_rect(x, y, level)
        if not _ref_intersects_rect(poly, rect):
            continue
        if level >= min_level and _ref_contains_rect(poly, rect):
            out.append(cell_id_from_quad(x, y, level))
            continue
        if level >= max_level:
            if not interior:
                out.append(cell_id_from_quad(x, y, level))
            continue
        for dx in (0, 1):
            for dy in (0, 1):
                stack.append((2 * x + dx, 2 * y + dy, level + 1))
    out.sort()
    return out


# -- the vectorized descent against the reference --------------------------


def assert_matches_reference(poly, level, min_level=0):
    assert exterior_covering(poly, level, min_level) == _ref_cover(poly, level, min_level)
    assert interior_covering(poly, level, min_level) == _ref_cover(
        poly, level, min_level, interior=True
    )


# The reference spends ~1 ms per emitted cell, so finer levels check every
# stride-th polygon; levels 19 and 21 take them from the first 80 (the
# small Manhattan quads).
_STRIDE = {13: 2, 15: 8, 17: 32, 19: 40, 21: 80}


@pytest.mark.parametrize("seed", [11, 5, 2024])
@pytest.mark.parametrize("level", sorted(_STRIDE))
def test_neighborhood_coverings_match_reference(seed, level):
    hoods = neighborhoods(seed=seed)
    if level >= 19:
        hoods = hoods[:80]
    stride = _STRIDE[level]
    for poly in hoods[seed % stride :: stride]:
        for min_level in (0, 12):
            assert_matches_reference(poly, level, min_level)


SELECTIVITY = selectivity_suite(nyc_taxi_pandas(sf=0.005))


@pytest.mark.parametrize("level,min_levels", [(13, (0, 12)), (17, (0, 12)), (19, (12,)), (21, (12,))])
def test_selectivity_coverings_match_reference(level, min_levels):
    for poly in SELECTIVITY.values():
        for min_level in min_levels:
            assert_matches_reference(poly, level, min_level)


@st.composite
def nyc_rings(draw, max_aspect=1.0):
    """Jittered convex (points on an ellipse) or star (jittered radii)
    rings inside the NYC bbox; vertices sorted by angle keep them simple.
    With ``max_aspect`` > 1, one axis (lon or lat, drawn) is also squeezed
    by an aspect ratio drawn up to ``max_aspect``."""
    lon_lo, lat_lo, lon_hi, lat_hi = NYC_BBOX
    r = draw(st.floats(1e-4, 0.03))
    lon = draw(st.floats(lon_lo + r, lon_hi - r))
    lat = draw(st.floats(lat_lo + r, lat_hi - r))
    n = draw(st.integers(3, 10))
    angles = sorted(
        draw(st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=n, max_size=n, unique=True))
    )
    star = draw(st.booleans())
    radii = [r * draw(st.floats(0.2, 1.0)) if star else r for _ in angles]
    sx, sy = 1.0, 0.75
    if max_aspect > 1:
        aspect = draw(st.floats(1.0, max_aspect))
        if draw(st.booleans()):
            sx /= aspect
        else:
            sy /= aspect
    return Polygon(
        [(lon + sx * ri * np.cos(a), lat + sy * ri * np.sin(a)) for ri, a in zip(radii, angles)]
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(poly=nyc_rings(), level=st.integers(10, 17), min_level=st.sampled_from([0, 12]))
def test_generated_rings_match_reference(poly, level, min_level):
    assert_matches_reference(poly, level, min(min_level, level))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(poly=nyc_rings(max_aspect=200.0), level=st.integers(10, 17), min_level=st.sampled_from([0, 12]))
def test_elongated_generated_rings_match_reference(poly, level, min_level):
    """Up to 200:1 in either orientation: the fit level follows the short
    side, so the descent starts far below the root, from every cell under
    the root in the bbox's column and row range at that level."""
    assert_matches_reference(poly, level, min(min_level, level))


def test_root_matches_reference():
    """The integer root search returns the reference's float search root,
    also for bboxes on cell boundaries, degenerate ones and ones at or
    past the edge of the world."""
    bboxes = [p.bbox for p in neighborhoods(seed=11)[::7]]
    for level in (3, 9, 15, 20):
        for dx, dy in ((0, 0), (1, 0), (1, 1), (2, 3), (5, 8)):
            lo_x, lo_y, _, _ = quad_bounds(37, 21, level)
            hi_x, hi_y, _, _ = quad_bounds(37 + dx, 21 + dy, level)
            bboxes.append(Rect(lo_x, lo_y, hi_x, hi_y))
            bboxes.append(Rect(np.nextafter(lo_x, 0), lo_y, hi_x, np.nextafter(hi_y, 0)))
    bboxes += [
        Rect(-180.0, -90.0, -180.0, -90.0),
        Rect(180.0, 90.0, 180.0, 90.0),
        Rect(0.0, 0.0, 0.0, 0.0),
        Rect(-180.0, 10.0, 180.0, 10.5),
        Rect(-181.0, 10.0, -179.0, 11.0),
        Rect(179.5, 10.0, 180.5, 11.0),
        Rect(-200.0, -100.0, -190.0, -95.0),
    ]
    for bbox in bboxes:
        for max_level in (0, 1, 13, 17, MAX_LEVEL):
            assert _root_quad(bbox, max_level) == _ref_root_quad(bbox, max_level), (bbox, max_level)


def test_rect_predicates_match_reference():
    """The one-rect predicates are the vectorized classifier's one-rect
    case; check them against the scalar reference on a concave ring,
    including rects that share edges, corners and vertices with it."""
    cshape = Polygon([(0, 0), (4, 0), (4, 1), (1, 1), (1, 3), (4, 3), (4, 4), (0, 4)])
    _check_rect_predicates(cshape)


def test_rect_predicates_match_reference_slanted():
    """A concave ring with slanted edges and vertices on the 0.5 lattice:
    the rects' lattice corners fall exactly on edge lines (``o == 0`` in
    the separating-axis edge test) and on both sides of them."""
    arrow = Polygon([(0, 0), (4, 1), (2.5, 2), (4, 3.5), (0.5, 4), (1.5, 2)])
    _check_rect_predicates(arrow)
    # Lattice corners on a slanted edge's line: (2, 0.5) on (0, 0)-(4, 1),
    # (3, 2.5) on (2.5, 2)-(4, 3.5).
    assert arrow.intersects_rect(Rect(2.0, -0.5, 2.5, 0.5))
    assert arrow.intersects_rect(Rect(3.0, 2.5, 3.5, 3.0))
    assert not arrow.contains_rect(Rect(2.5, 2.5, 3.0, 3.0))


def _check_rect_predicates(ring):
    g = np.random.default_rng(0)
    # Bounds on the ring's own coordinates and halfway between them, plus
    # degenerate (point) rects.
    vals = np.arange(-1.0, 5.5, 0.5)
    lon_lo, lon_hi = np.sort(g.choice(vals, (400, 2)), axis=1).T
    lat_lo, lat_hi = np.sort(g.choice(vals, (400, 2)), axis=1).T
    px, py = (a.ravel() for a in np.meshgrid(vals, vals[::3]))
    lon_lo, lon_hi = np.concatenate([lon_lo, px]), np.concatenate([lon_hi, px])
    lat_lo, lat_hi = np.concatenate([lat_lo, py]), np.concatenate([lat_hi, py])
    rects = [Rect(*r) for r in zip(lon_lo, lat_lo, lon_hi, lat_hi)]
    want_hit = [_ref_intersects_rect(ring, r) for r in rects]
    want_in = [_ref_contains_rect(ring, r) for r in rects]
    assert [ring.intersects_rect(r) for r in rects] == want_hit
    assert [ring.contains_rect(r) for r in rects] == want_in
    hit, inside = ring.classify_rects(lon_lo, lat_lo, lon_hi, lat_hi)
    assert hit.tolist() == want_hit
    assert inside.tolist() == want_in
    assert any(want_hit) and not all(want_hit) and any(want_in)


# -- edge inputs -----------------------------------------------------------


# A level-15 cell in Midtown Manhattan; edge-input rings sit on its grid.
GRID_X, GRID_Y, GRID_LEVEL = 9650, 23802, 15


def grid_point(dx, dy):
    """Lower-left corner of the level-15 cell ``dx``, ``dy`` cells from
    ``(GRID_X, GRID_Y)``: exactly on the cell boundaries."""
    lon, lat, _, _ = quad_bounds(GRID_X + dx, GRID_Y + dy, GRID_LEVEL)
    return lon, lat


def test_grid_aligned_rectangle():
    """Edges exactly on cell boundaries: collinear and touching edges (the
    ``o == 0`` branches) decide every boundary cell."""
    nx, ny = 4, 3
    rect = Polygon([grid_point(0, 0), grid_point(nx, 0), grid_point(nx, ny), grid_point(0, ny)])
    for level in (13, 15, 16, 17):
        for min_level in (0, 12):
            assert_matches_reference(rect, level, min_level)
    # Closed predicates: the ring of neighbours touching the rectangle is
    # in the exterior covering; cells on its boundary are not interior.
    assert len(exterior_covering(rect, GRID_LEVEL, GRID_LEVEL)) == (nx + 2) * (ny + 2)
    assert len(interior_covering(rect, GRID_LEVEL, GRID_LEVEL)) == (nx - 2) * (ny - 2)


@pytest.mark.parametrize(
    "ring",
    [
        [(-73.99, 40.74), (-73.98, 40.75), (-73.97, 40.76)],  # diagonal
        [grid_point(0, 0), grid_point(1, 0), grid_point(3, 0)],  # on a cell boundary
    ],
)
def test_collinear_sliver_ring(ring):
    sliver = Polygon(ring)
    for level in (13, 15, 17):
        assert_matches_reference(sliver, level)
        assert exterior_covering(sliver, level)
        assert interior_covering(sliver, level) == []


# -- fit level -------------------------------------------------------------


def test_fit_level_is_at_most_one_early():
    """The fit level is never below the first level at which a cell fits
    inside the bbox in both axes (which would skip a cell that can be
    contained) and at most one level above it; checked in exact
    arithmetic."""
    from fractions import Fraction

    bboxes = [p.bbox for p in neighborhoods(seed=11)]
    for level in (3, 9, 15, 20, 28):
        for dx, dy in ((1, 1), (1, 3), (200, 1), (1, 200), (7, 5)):
            lo_x, lo_y, _, _ = quad_bounds(37, 21, level)
            hi_x, hi_y, _, _ = quad_bounds(36 + dx, 20 + dy, level)
            bboxes.append(Rect(lo_x, lo_y, hi_x, hi_y))
            bboxes.append(Rect(lo_x, lo_y, np.nextafter(hi_x, -1e9), hi_y))
    for bbox in bboxes:
        w = Fraction(bbox.lon_hi) - Fraction(bbox.lon_lo)
        h = Fraction(bbox.lat_hi) - Fraction(bbox.lat_lo)
        first = next(
            (lv for lv in range(MAX_LEVEL + 1) if Fraction(360, 1 << lv) <= w and Fraction(180, 1 << lv) <= h),
            MAX_LEVEL,
        )
        assert first - 1 <= _fit_level(bbox) <= first, bbox
    for degenerate in (Rect(1.0, 2.0, 1.0, 3.0), Rect(1.0, 2.0, 3.0, 2.0), Rect(1.0, 2.0, 1.0, 2.0)):
        assert _fit_level(degenerate) == MAX_LEVEL


@st.composite
def grid_edges(draw, level, origin, extent):
    """A closed interval on an axis ``extent`` degrees wide from
    ``-origin``, split into ``2**level`` cells: each edge exactly on a cell
    boundary, one float below or above it, or inside the cell. Zero-wide
    intervals and intervals at the world's edges are drawn too."""
    w = extent / (1 << level)
    c = draw(st.integers(0, (1 << level) - 1))

    def edge(col):
        kind = draw(st.sampled_from(["on", "below", "above", "inside"]))
        if kind == "inside":
            return (col + draw(st.floats(0.0, 1.0, exclude_max=True))) * w - origin
        at = col * w - origin
        return float(np.nextafter(at, {"on": at, "below": -np.inf, "above": np.inf}[kind]))

    lo = edge(c)
    hi = lo if draw(st.booleans()) else edge(c + draw(st.integers(0, 4)))
    return min(lo, hi), max(lo, hi)


@st.composite
def grid_bboxes(draw):
    """A bbox whose edges sit on, beside or between the cell boundaries
    of a drawn level, and a max level around that level."""
    level = draw(st.integers(1, 24))
    (lon_lo, lon_hi), (lat_lo, lat_hi) = draw(grid_edges(level, 180, 360)), draw(grid_edges(level, 90, 180))
    max_level = level + draw(st.sampled_from([-level, -1, 0, 2, 5]))
    return Rect(lon_lo, lat_lo, lon_hi, lat_hi), min(MAX_LEVEL, max(0, max_level))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(case=grid_bboxes())
def test_fit_level_is_exact(case):
    """The fit level is the first level at which a cell fits inside the
    bbox in both axes, checked in exact arithmetic."""
    from fractions import Fraction

    bbox, _ = case
    w = Fraction(bbox.lon_hi) - Fraction(bbox.lon_lo)
    h = Fraction(bbox.lat_hi) - Fraction(bbox.lat_lo)
    fits = [lv for lv in range(MAX_LEVEL + 1) if Fraction(360, 1 << lv) <= w and Fraction(180, 1 << lv) <= h]
    assert _fit_level(bbox) == (fits[0] if fits else MAX_LEVEL)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=grid_bboxes())
@example(case=(Rect(*quad_bounds(GRID_X, GRID_Y, GRID_LEVEL)), MAX_LEVEL))  # the root itself
@example(case=(Rect(-180.0, -90.0, -180.0, 90.0), 17))  # zero-wide on the world's edge
@example(case=(Rect(-100.0, 45.0, 180.0, 45.0), 17))  # zero-high, to the world's edge
@example(case=(Rect(*quad_bounds(0, 0, 9)[:2], *quad_bounds(3, 2, 9)[2:]), MAX_LEVEL))
def test_start_frontier_holds_every_cell_meeting_the_bbox(case):
    """The descent's first frontier holds every descendant of the root at
    its level whose closed rect meets the closed bbox, found by brute
    force over the root's columns and rows, and nothing outside the root."""
    bbox, max_level = case
    rx, ry, root = _root_quad(bbox, max_level)
    level, q = _start(bbox, max_level)
    assert root <= level <= max_level
    d = level - root
    assume(d <= 20)
    cols = np.arange(rx << d, (rx + 1) << d)
    rows = np.arange(ry << d, (ry + 1) << d)
    lon_lo, lat_lo, lon_hi, lat_hi = quad_bounds(cols, rows, level)
    meet_x = cols[(lon_lo <= bbox.lon_hi) & (lon_hi >= bbox.lon_lo)]
    meet_y = rows[(lat_lo <= bbox.lat_hi) & (lat_hi >= bbox.lat_lo)]
    got = set(zip(*q.tolist()))
    assert {(x, y) for x in meet_x.tolist() for y in meet_y.tolist()} <= got
    assert all(x >> d == rx and y >> d == ry for x, y in got)


@pytest.mark.parametrize("aspect", [50, 200])
@pytest.mark.parametrize("tall", [False, True])
def test_elongated_ring(aspect, tall):
    """Slanted slivers 50:1 and 200:1, lying and standing: the fit level
    follows the short side, many levels below the root."""
    long_side, short = 0.04, 0.04 / aspect
    ring = [(0.0, 0.0), (long_side, 0.3 * short), (long_side, 1.3 * short), (0.0, short)]
    if tall:
        ring = [(y, x) for x, y in ring]
    poly = Polygon([(-73.99 + x, 40.74 + y) for x, y in ring])
    assert _fit_level(poly.bbox) - _root_quad(poly.bbox, MAX_LEVEL)[2] >= 5
    for level in (13, 16, 18):
        for min_level in (0, 12):
            assert_matches_reference(poly, level, min_level)
    assert exterior_covering(poly, 18)


def test_one_cell_ring():
    """A ring that is exactly one grid cell: its first fitting level is the
    cell's own level, which is also the root's. The predicates are
    closed, so the edges on the cell's boundary keep it out of its own
    interior covering."""
    cell = Polygon([grid_point(0, 0), grid_point(1, 0), grid_point(1, 1), grid_point(0, 1)])
    assert GRID_LEVEL - 1 <= _fit_level(cell.bbox) <= GRID_LEVEL
    assert _root_quad(cell.bbox, MAX_LEVEL) == (GRID_X, GRID_Y, GRID_LEVEL)
    for level in (13, 14, 15, 16, 17):
        for min_level in (0, 12, min(level, 15)):
            assert_matches_reference(cell, level, min_level)
    assert exterior_covering(cell, GRID_LEVEL) == [cell_id_from_quad(GRID_X, GRID_Y, GRID_LEVEL)]
    assert interior_covering(cell, GRID_LEVEL) == []


@pytest.mark.parametrize(
    "ring",
    [
        [(-0.4, 10.0), (0.3, 10.1), (0.2, 10.6), (-0.3, 10.5)],  # across lon 0
        [(20.0, -0.3), (20.6, -0.2), (20.5, 0.4), (20.1, 0.2)],  # across lat 0
        [(-0.2, -0.3), (0.3, -0.1), (0.1, 0.2), (-0.1, 0.3)],  # across both
    ],
)
def test_ring_across_the_first_split(ring):
    """A bbox across lon 0 or lat 0 has the root at level 0, so the
    descent starts at the fit level, at least 7 levels below the root."""
    poly = Polygon(ring)
    assert _root_quad(poly.bbox, MAX_LEVEL)[2] == 0
    assert _fit_level(poly.bbox) >= 7
    for level in (6, 9, 11):
        for min_level in (0, 8):
            assert_matches_reference(poly, level, min(min_level, level))


@pytest.mark.parametrize(
    "ring",
    [
        [(-200.0, 10.0), (-190.0, 10.0), (-195.0, 15.0)],  # wholly past the world's edge
        [(-181.0, 10.0), (-179.0, 10.2), (-180.5, 11.0)],  # across it
    ],
)
def test_ring_past_the_edge_of_the_world(ring):
    """A bbox past the world's edge has the root at level 0; the cells in
    the world that the ring meets are its covering, none if it is wholly
    outside."""
    poly = Polygon(ring)
    assert _root_quad(poly.bbox, MAX_LEVEL) == (0, 0, 0)
    for level in (3, 9, 12):
        assert_matches_reference(poly, level)
    assert bool(exterior_covering(poly, 12)) == (ring[0][0] > -200.0)


def test_min_and_max_level_around_the_fit_level():
    """``min_level`` below the first classified level (nothing is emitted
    before it) and ``max_level`` above it (the descent classifies only
    its last level)."""
    across = Polygon([(-0.2, -0.3), (0.3, -0.1), (0.1, 0.2), (-0.1, 0.3)])
    for poly in (HOOD, across):
        fit = _fit_level(poly.bbox)
        for min_level in (fit + 1, fit + 3):
            assert_matches_reference(poly, fit + 3, min_level)
    fit = _fit_level(across.bbox)
    assert _root_quad(across.bbox, MAX_LEVEL)[2] < fit - 2
    for max_level in (fit - 1, fit - 2):
        for min_level in (0, max_level):
            assert_matches_reference(across, max_level, min_level)


# -- the classifier against the reference, on lattice rings ----------------


@st.composite
def lattice_rings(draw):
    """Simple rings on the integer lattice 0..6: distinct points, at least
    one in each quadrant around (3.5, 3.5), sorted by angle around it, one
    point per direction. Every angular gap is below pi, so the ring is
    star-shaped and simple; the small lattice gives horizontal, vertical,
    collinear and slanted edges."""
    quads = [((0, 3), (0, 3)), ((4, 6), (0, 3)), ((4, 6), (4, 6)), ((0, 3), (4, 6))]
    pts = set()
    for (x0, x1), (y0, y1) in quads:
        pt = st.tuples(st.integers(x0, x1), st.integers(y0, y1))
        pts.update(draw(st.lists(pt, min_size=1, max_size=4)))
    by_dir = {}
    for x, y in sorted(pts):
        dx, dy = 2 * x - 7, 2 * y - 7
        g = np.gcd(dx, dy)
        by_dir.setdefault((dx // g, dy // g), (x, y))
    ring = sorted(by_dir.values(), key=lambda p: np.arctan2(p[1] - 3.5, p[0] - 3.5))
    return Polygon([(float(x), float(y)) for x, y in ring])


def vertex_and_edge_rects(ring):
    """A point rect on every vertex, a zero-width or zero-height rect on
    every edge (its span for axis lines, its midpoint otherwise), and the
    four unit boxes with a corner on each vertex (an outward one meets the
    ring at that vertex only)."""
    v = ring.vertices
    rects = []
    for (x, y), (x2, y2) in zip(v, np.roll(v, -1, axis=0)):
        rects.append(Rect(x, y, x, y))
        if x == x2 or y == y2:
            rects.append(Rect(min(x, x2), min(y, y2), max(x, x2), max(y, y2)))
        else:
            rects.append(Rect((x + x2) / 2, (y + y2) / 2, (x + x2) / 2, (y + y2) / 2))
        rects += [Rect(x - 1 + i, y - 1 + j, x + i, y + j) for i in (0, 1) for j in (0, 1)]
    return rects


# Rect bounds on the rings' lattice, its half steps and one step beyond.
_LATTICE = st.integers(-2, 14).map(lambda k: k / 2)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    ring=lattice_rings(),
    boxes=st.lists(st.tuples(_LATTICE, _LATTICE, _LATTICE, _LATTICE), min_size=10, max_size=40),
)
def test_classifier_matches_reference_on_lattice_rings(ring, boxes):
    """``classify_rects`` equals the frozen scalar predicates on lattice
    rects, point and zero-width ones on vertices and edges, and rects that
    meet the ring at a vertex only."""
    rects = vertex_and_edge_rects(ring) + [
        Rect(min(a, b), min(c, d), max(a, b), max(c, d)) for a, c, b, d in boxes
    ]
    hit, inside = ring.classify_rects(*map(np.array, zip(*map(astuple, rects))))
    assert hit.tolist() == [_ref_intersects_rect(ring, r) for r in rects]
    assert inside.tolist() == [_ref_contains_rect(ring, r) for r in rects]


# sha256 of the exterior and interior coverings below, from the cell-level
# classifier with a vertex test and 4 ray-cast corners per rect; any change
# of a covering changes it.
COVERING_DIGEST = "28c8ecef16cdb54e493eadb6b379f21e796c8fc74f7b307cf5cbb4882955abbe"


def test_covering_digest():
    """Exterior and interior coverings of two neighborhood draws at levels
    13, 17 and 21, ``min_level`` 0 and 12, hashed in one digest."""
    import hashlib

    h = hashlib.sha256()
    for seed in (11, 2024):
        for poly in neighborhoods(seed=seed):
            for level in (13, 17, 21):
                for min_level in (0, 12):
                    for cover in (exterior_covering, interior_covering):
                        h.update(repr(cover(poly, level, min_level)).encode())
    assert h.hexdigest() == COVERING_DIGEST
