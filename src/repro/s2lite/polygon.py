"""Planar polygon and rectangle geometry in lon/lat degrees.

Implements exactly the predicates the covering algorithm and baselines
need: point-in-polygon (ray casting, vectorized), rectangle/polygon
intersection and containment (corners by ray casting, edges by a
separating-axis test), and the interior-rectangle extraction the
paper uses to query the PHTree/RTree baselines ("we used S2 to get the
interior rectangle of the query polygon").

Polygons are simple (non-self-intersecting) rings given as (lon, lat)
vertex lists; boundaries follow ray-casting's half-open convention, which
is immaterial for the paper's error model (errors are cell-sized, not
point-sized).
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


def _orient(ax, ay, bx, by, cx, cy):
    """Sign (-1, 0, 1) of the cross product ``(b - a) x (c - a)``, elementwise."""
    return np.sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


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
        self._lons = v[:, 0]
        self._lats = v[:, 1]
        # Edge i runs from vertex i to vertex i + 1.
        x1, y1 = self._lons, self._lats
        x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
        # The edges a horizontal ray can cross (ray casting skips the rest).
        self._ray_edges = [e for e in zip(x1, y1, x2, y2) if e[1] != e[3]]
        # Edge endpoints and bboxes as columns, to broadcast against a row
        # of rects.
        self._edges = tuple(a[:, None] for a in (x1, y1, x2, y2))
        self._edge_bbox = tuple(
            a[:, None]
            for a in (np.minimum(x1, x2), np.minimum(y1, y2), np.maximum(x1, x2), np.maximum(y1, y2))
        )
        self.bbox = Rect(
            float(self._lons.min()),
            float(self._lats.min()),
            float(self._lons.max()),
            float(self._lats.max()),
        )

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Polygon({len(self.vertices)} verts, bbox={self.bbox})"

    # -- point predicates -------------------------------------------------
    def contains_points(self, lons, lats):
        """Vectorized ray-casting point-in-polygon test.

        This is the *exact* membership predicate used by the oracle to
        measure the relative error of cell-covering answers.
        """
        lons = np.asarray(lons, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        inside = np.zeros(lons.shape, dtype=bool)
        for xa, ya, xb, yb in self._ray_edges:
            crosses = ((ya > lats) != (yb > lats)) & (
                lons < (xb - xa) * (lats - ya) / (yb - ya) + xa
            )
            inside ^= crosses
        return inside

    def contains_point(self, lon: float, lat: float) -> bool:
        return bool(self.contains_points(np.array([lon]), np.array([lat]))[0])

    # -- rectangle predicates --------------------------------------------
    def meets_bbox(self, lon_lo, lat_lo, lon_hi, lat_hi):
        """Per closed rect (1-D arrays of bounds): does it meet the
        polygon's closed bbox? The first test :meth:`classify_rects`
        makes, and the only one the covering descent makes on levels
        whose cells are too large to fit inside the bbox."""
        b = self.bbox
        return ~(
            (lon_lo > b.lon_hi) | (lon_hi < b.lon_lo) | (lat_lo > b.lat_hi) | (lat_hi < b.lat_lo)
        )

    def classify_rects(self, lon_lo, lat_lo, lon_hi, lat_hi):
        """``(intersects, contains)`` boolean arrays for many closed rects,
        given as 1-D arrays of their bounds.

        ``intersects[j]``: the polygon's interior/boundary touches rect
        ``j``. ``contains[j]``: rect ``j`` lies entirely inside the polygon
        (for a simple polygon: all corners inside and no edge touching the
        rect). The covering descent classifies a whole quadtree level per
        call; the one-rect predicates below are the same call.
        """
        lon_lo, lat_lo, lon_hi, lat_hi = (
            np.asarray(a, dtype=np.float64) for a in (lon_lo, lat_lo, lon_hi, lat_hi)
        )
        in_bbox = self.meets_bbox(lon_lo, lat_lo, lon_hi, lat_hi)
        corners_in = self.contains_points(
            np.concatenate([lon_lo, lon_hi, lon_hi, lon_lo]),
            np.concatenate([lat_lo, lat_lo, lat_hi, lat_hi]),
        ).reshape(4, -1)
        touched = self._edges_touch(lon_lo, lat_lo, lon_hi, lat_hi)
        return in_bbox & (corners_in.any(axis=0) | touched), corners_in.all(axis=0) & ~touched

    def _edges_touch(self, lon_lo, lat_lo, lon_hi, lat_hi):
        """Per rect: does any polygon edge touch it anywhere?

        An edge touches a rect if an endpoint lies in it, or if the edge's
        bbox meets the rect and the edge's line does not pass strictly
        beside all 4 corners. That is the separating-axis test of a
        segment and a rect (the bbox test covers the rect's two axes, the
        corner orientations the edge's normal); its float orientations
        are exact for axis-parallel edges. Every endpoint
        is some vertex, so the endpoint test is one vertex-in-rect test;
        the orientations are computed only for the (edge, rect) pairs
        that pass the bbox reject, for rects no vertex touches.
        """
        x1, y1, x2, y2 = self._edges
        touched = (
            (lon_lo <= x1) & (x1 <= lon_hi) & (lat_lo <= y1) & (y1 <= lat_hi)
        ).any(axis=0)
        ex_lo, ey_lo, ex_hi, ey_hi = self._edge_bbox
        near = ~(
            (ex_hi < lon_lo) | (ex_lo > lon_hi) | (ey_hi < lat_lo) | (ey_lo > lat_hi) | touched
        )
        e, r = np.nonzero(near)
        if e.size:
            xl, yl, xh, yh = lon_lo[r], lat_lo[r], lon_hi[r], lat_hi[r]
            side = _orient(
                x1[e, 0], y1[e, 0], x2[e, 0], y2[e, 0],
                np.stack([xl, xh, xh, xl]), np.stack([yl, yl, yh, yh]),
            ).sum(axis=0)
            touched[r[np.abs(side) < 4]] = True
        return touched

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
        x, y = self._lons, self._lats
        x2, y2 = np.roll(x, -1), np.roll(y, -1)
        return float(abs(np.sum(x * y2 - x2 * y)) / 2.0)

    def centroid(self):
        """Area centroid (falls back to vertex mean for degenerate rings)."""
        x, y = self._lons, self._lats
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
        return float(self._lons[0]), float(self._lats[0])
