"""Planar polygon and rectangle geometry in lon/lat degrees.

Implements exactly the predicates the covering algorithm and baselines
need: point-in-polygon (ray casting, vectorized), rectangle/polygon
intersection and containment (a separating-axis edge test decides every
rect an edge touches, its ray-cast low corner every other rect), and the
interior-rectangle extraction the paper uses to query the PHTree/RTree
baselines ("we used S2 to get the interior rectangle of the query
polygon").

Polygons are simple (non-self-intersecting) rings given as (lon, lat)
vertex lists; boundaries follow ray-casting's half-open convention, which
is immaterial for the paper's error model (errors are cell-sized, not
point-sized). A polygon keeps its edges in two packed arrays of columns,
so each predicate is a few broadcasts over (edges x rects) or (edges x
points), with no per-edge Python loop and no per-rect gather.
"""
from dataclasses import dataclass

import numpy as np

__all__ = ["Rect", "Polygon"]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle ``[lon_lo, lon_hi] x [lat_lo, lat_hi]``."""

    lon_lo: float
    lat_lo: float
    lon_hi: float
    lat_hi: float

    def contains_point(self, lon: float, lat: float) -> bool:
        return self.lon_lo <= lon <= self.lon_hi and self.lat_lo <= lat <= self.lat_hi

    def contains_points(self, lons, lats):
        lons, lats = np.asarray(lons), np.asarray(lats)
        return (
            (self.lon_lo <= lons)
            & (lons <= self.lon_hi)
            & (self.lat_lo <= lats)
            & (lats <= self.lat_hi)
        )

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.lon_lo > self.lon_hi
            or other.lon_hi < self.lon_lo
            or other.lat_lo > self.lat_hi
            or other.lat_hi < self.lat_lo
        )

    def corners(self):
        return [
            (self.lon_lo, self.lat_lo),
            (self.lon_hi, self.lat_lo),
            (self.lon_hi, self.lat_hi),
            (self.lon_lo, self.lat_hi),
        ]

    @property
    def width(self) -> float:
        return self.lon_hi - self.lon_lo

    @property
    def height(self) -> float:
        return self.lat_hi - self.lat_lo


# Points per ray-casting block, over all ray-crossable edges: bounds the
# (edges x points) temporaries of :meth:`Polygon.contains_points` to ~2 MB.
_BLOCK = 1 << 18


class Polygon:
    """A simple polygon ring with the predicates GeoBlocks needs."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs >= 3 (lon, lat) vertices")
        # Drop an explicitly closed ring's duplicate last vertex.
        if np.allclose(v[0], v[-1]) and v.shape[0] > 3:
            v = v[:-1]
        self.vertices = v
        # Edge i runs from vertex i to vertex i + 1. Per edge, as (E, 1)
        # columns to broadcast against a row of rects: start, direction
        # and bbox.
        x1, y1 = v.T
        x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
        self._edges = np.stack(
            [x1, y1, x2 - x1, y2 - y1,
             np.minimum(x1, x2), np.minimum(y1, y2), np.maximum(x1, x2), np.maximum(y1, y2)]
        )[:, :, None]
        # The edges a horizontal ray can cross (ray casting skips the rest),
        # as (R, 1) columns: start, end latitude and direction.
        self._ray_edges = np.stack([x1, y1, y2, x2 - x1, y2 - y1])[:, y1 != y2, None]
        self.bbox = Rect(float(x1.min()), float(y1.min()), float(x1.max()), float(y1.max()))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Polygon({len(self.vertices)} verts, bbox={self.bbox})"

    # -- point predicates -------------------------------------------------
    def contains_points(self, lons, lats):
        """Vectorized ray-casting point-in-polygon test.

        This is the *exact* membership predicate used by the oracle to
        measure the relative error of cell-covering answers. Each point
        counts the ray-crossable edges its rightward ray crosses, all
        edges at once, over blocks of points that keep the
        (edges x points) temporaries small.
        """
        lons = np.asarray(lons, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        xs, ys = lons.ravel(), lats.ravel()
        inside = np.empty(xs.shape, dtype=bool)
        step = _BLOCK // max(self._ray_edges.shape[1], 1)
        for i in range(0, len(xs), step):
            inside[i : i + step] = self._ray_cast(xs[i : i + step], ys[i : i + step])
        return inside.reshape(lons.shape)

    def _ray_cast(self, x, y):
        """Per point of the 1-D arrays ``x``, ``y``: does its rightward ray
        cross an odd number of edges? One broadcast over every
        ray-crossable edge."""
        xa, ya, yb, dx, dy = self._ray_edges
        crosses = ((ya > y) != (yb > y)) & (x < dx * (y - ya) / dy + xa)
        return np.logical_xor.reduce(crosses, axis=0)

    def contains_point(self, lon: float, lat: float) -> bool:
        return bool(self.contains_points(np.array([lon]), np.array([lat]))[0])

    # -- rectangle predicates --------------------------------------------
    def classify_rects(self, lon_lo, lat_lo, lon_hi, lat_hi):
        """``(intersects, contains)`` boolean arrays for many closed rects,
        given as 1-D arrays of their bounds.

        ``intersects[j]``: the polygon's interior/boundary touches rect
        ``j``. ``contains[j]``: rect ``j`` lies entirely inside the polygon.
        A rect that a polygon edge touches intersects and is not
        contained. A closed rect that no edge touches lies wholly inside
        or wholly outside the polygon, so one corner, ray-cast, decides
        both answers. The low corner of every rect is cast, touched or
        not, so the kernel is two broadcasts with no gather or scatter.
        The covering descent classifies a whole quadtree level per call;
        the one-rect predicates below are the same call.
        """
        touched = self._edges_touch(lon_lo, lat_lo, lon_hi, lat_hi)
        cast = self._ray_cast(lon_lo, lat_lo)
        return touched | cast, cast & ~touched

    def _edges_touch(self, lon_lo, lat_lo, lon_hi, lat_hi):
        """Per rect: does any polygon edge touch it anywhere?

        The separating-axis test of a segment and a closed rect, every
        (edge, rect) pair in one broadcast: an edge misses a rect iff its
        bbox misses the rect (the rect's two axes) or all 4 corners lie
        strictly on one side of its line (the edge's normal). A corner's
        side is the sign of ``dx (lat - y1) - dy (lon - x1)``; with
        ``a, b = dx (lat_lo|hi - y1)`` and ``c, d = dy (lon_lo|hi - x1)``,
        all 4 corners are on the positive side iff ``min(a, b) > max(c,
        d)`` and on the negative side iff ``max(a, b) < min(c, d)``, exact
        in floating point because ``fl(p - q) > 0`` iff ``p > q``. A vertex
        in the rect needs no test of its own: it is its outgoing edge's
        start, so that edge's bbox meets the rect, and ``a, b`` (and ``c,
        d``) are products of ``dx`` (``dy``) with differences that
        straddle 0, so no side is strict.
        """
        x1, y1, dx, dy, ex_lo, ey_lo, ex_hi, ey_hi = self._edges
        a, b = dx * (lat_lo - y1), dx * (lat_hi - y1)
        c, d = dy * (lon_lo - x1), dy * (lon_hi - x1)
        apart = (np.minimum(a, b) > np.maximum(c, d)) | (np.maximum(a, b) < np.minimum(c, d))
        far = (ex_lo > lon_hi) | (ex_hi < lon_lo) | (ey_lo > lat_hi) | (ey_hi < lat_lo)
        return ~(apart | far).all(axis=0)

    def _classify_rect(self, rect: Rect):
        return self.classify_rects([rect.lon_lo], [rect.lat_lo], [rect.lon_hi], [rect.lat_hi])

    def intersects_rect(self, rect: Rect) -> bool:
        """True iff the polygon's interior/boundary touches ``rect``."""
        return bool(self._classify_rect(rect)[0][0])

    def contains_rect(self, rect: Rect) -> bool:
        """True iff ``rect`` lies entirely inside the polygon."""
        return bool(self._classify_rect(rect)[1][0])

    # -- derived geometry -------------------------------------------------
    def area(self) -> float:
        """Shoelace area in square degrees (orientation-independent)."""
        x, y = self.vertices.T
        x2, y2 = np.roll(x, -1), np.roll(y, -1)
        return float(abs(np.sum(x * y2 - x2 * y)) / 2.0)

    def centroid(self):
        """Area centroid (falls back to vertex mean for degenerate rings)."""
        x, y = self.vertices.T
        x2, y2 = np.roll(x, -1), np.roll(y, -1)
        cross = x * y2 - x2 * y
        a = np.sum(cross) / 2.0
        if abs(a) < 1e-15:
            return float(x.mean()), float(y.mean())
        cx = float(np.sum((x + x2) * cross) / (6.0 * a))
        cy = float(np.sum((y + y2) * cross) / (6.0 * a))
        return cx, cy

    def interior_rect(self, tol: float = 1e-3) -> Rect:
        """Largest-by-binary-search axis-aligned rectangle inside the
        polygon, centered on an interior point.

        Mirrors the paper's PHTree/RTree query mapping ("the interior
        rectangle of the query polygon ... covers fewer points than our
        approach"). Scale factor is found by bisection on a bbox-shaped
        rectangle around the centroid; if even a tiny rectangle does not
        fit (centroid outside a non-convex ring), falls back to a point
        probe along the bbox diagonals.
        """
        cx, cy = self.centroid()
        if not self.contains_point(cx, cy):
            cx, cy = self._find_interior_point()
        hw0 = max(self.bbox.width / 2.0, 1e-12)
        hh0 = max(self.bbox.height / 2.0, 1e-12)

        def rect_at(s: float) -> Rect:
            return Rect(cx - s * hw0, cy - s * hh0, cx + s * hw0, cy + s * hh0)

        lo, hi = 0.0, 1.0
        if self.contains_rect(rect_at(1.0)):
            return rect_at(1.0)
        while hi - lo > tol:
            mid = (lo + hi) / 2.0
            if self.contains_rect(rect_at(mid)):
                lo = mid
            else:
                hi = mid
        return rect_at(lo) if lo > 0 else Rect(cx, cy, cx, cy)

    def _find_interior_point(self):
        """Sample bbox grid points until one is inside the polygon."""
        for n in (5, 11, 23, 47):
            xs = np.linspace(self.bbox.lon_lo, self.bbox.lon_hi, n + 2)[1:-1]
            ys = np.linspace(self.bbox.lat_lo, self.bbox.lat_hi, n + 2)[1:-1]
            gx, gy = np.meshgrid(xs, ys)
            mask = self.contains_points(gx.ravel(), gy.ravel())
            if mask.any():
                i = int(np.argmax(mask))
                return float(gx.ravel()[i]), float(gy.ravel()[i])
        # Degenerate sliver: fall back to the first vertex.
        return float(self.vertices[0, 0]), float(self.vertices[0, 1])
