"""PHTree baseline stand-in: a multi-dimensional point quadtree on
lon/lat.

The paper's PHTree baseline indexes raw points by latitude/longitude
with the PH-tree (a bitwise hypercube quadtree) and answers each query
with a rectangle range scan over the polygon's *interior rectangle*
(PH-trees support only rectangular ranges). The PH-tree's hypercube
bit-twiddling is a constant-factor storage optimization over a plain
region quadtree; the measured behaviour — multi-dimensional descent,
rectangle-range retrieval of *raw points* that are then aggregated on
the fly — is what we reproduce (DESIGN.md section 4).

Build reorders the point set so every node owns a contiguous index
range; a range query gathers slices for fully-contained nodes and
filters points only in partially-overlapping leaves, then aggregates the
gathered tuples on the fly (it is a *non-aggregating* baseline: no
aggregates are stored in the tree).
"""
import numpy as np

from repro.core.geoblock import aggregate
from repro.core.raw import RawTable
from repro.s2lite.polygon import Polygon, Rect

__all__ = ["PointQuadtree", "QuadtreeEngine"]


class _Node:
    __slots__ = ("rect", "lo", "hi", "children")

    def __init__(self, rect, lo, hi):
        self.rect = rect
        self.lo = lo  # contiguous index range [lo, hi) into the reordered data
        self.hi = hi
        self.children = None


class PointQuadtree:
    """Region quadtree over points, leaf capacity ``leaf_cap``."""

    def __init__(self, lons, lats, *, leaf_cap: int = 64, max_depth: int = 20):
        self.leaf_cap = leaf_cap
        n = len(lons)
        if n == 0:
            raise ValueError("cannot index an empty point set")
        self.order = np.arange(n, dtype=np.int64)
        self.lons = np.asarray(lons, dtype=np.float64).copy()
        self.lats = np.asarray(lats, dtype=np.float64).copy()
        bbox = Rect(
            float(self.lons.min()),
            float(self.lats.min()),
            float(self.lons.max()),
            float(self.lats.max()),
        )
        self.n_nodes = 0
        self.root = self._build(bbox, 0, n, 0, max_depth)

    def _build(self, rect, lo, hi, depth, max_depth):
        node = _Node(rect, lo, hi)
        self.n_nodes += 1
        if hi - lo <= self.leaf_cap or depth >= max_depth:
            return node
        mx = (rect.lon_lo + rect.lon_hi) / 2.0
        my = (rect.lat_lo + rect.lat_hi) / 2.0
        seg = slice(lo, hi)
        east = self.lons[seg] > mx
        north = self.lats[seg] > my
        quad = east.astype(np.int8) | (north.astype(np.int8) << 1)
        part = np.argsort(quad, kind="stable")
        # Reorder this segment (points, and the permutation that maps
        # back to original row ids) so each quadrant is contiguous.
        self.lons[seg] = self.lons[seg][part]
        self.lats[seg] = self.lats[seg][part]
        self.order[seg] = self.order[seg][part]
        counts = np.bincount(quad, minlength=4)
        rects = [
            Rect(rect.lon_lo, rect.lat_lo, mx, my),
            Rect(mx, rect.lat_lo, rect.lon_hi, my),
            Rect(rect.lon_lo, my, mx, rect.lat_hi),
            Rect(mx, my, rect.lon_hi, rect.lat_hi),
        ]
        node.children = []
        start = lo
        for q in range(4):
            end = start + int(counts[q])
            if end > start:
                node.children.append(
                    self._build(rects[q], start, end, depth + 1, max_depth)
                )
            start = end
        return node

    def size_bytes(self) -> int:
        """Index overhead: coordinate copies + row-id permutation + nodes
        (rect: 4 floats, range: 2 ints, child pointers: 4 x 8 B)."""
        per_node = 4 * 8 + 2 * 8 + 4 * 8
        return int(
            self.lons.nbytes + self.lats.nbytes + self.order.nbytes
            + self.n_nodes * per_node
        )

    def range_indices(self, rect: Rect) -> np.ndarray:
        """Original row ids of all points inside ``rect``."""
        slices = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not rect.intersects(node.rect):
                continue
            r = node.rect
            if (
                rect.lon_lo <= r.lon_lo
                and r.lon_hi <= rect.lon_hi
                and rect.lat_lo <= r.lat_lo
                and r.lat_hi <= rect.lat_hi
            ):
                slices.append(self.order[node.lo : node.hi])
                continue
            if node.children is None:
                seg = slice(node.lo, node.hi)
                m = rect.contains_points(self.lons[seg], self.lats[seg])
                slices.append(self.order[seg][m])
                continue
            stack.extend(node.children)
        if not slices:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(slices)


class QuadtreeEngine:
    """On-the-fly aggregation over the quadtree, queried with the
    polygon's interior rectangle (so its results legitimately differ
    from the cell-covering engines, as the paper notes for PHTree)."""

    def __init__(self, raw: RawTable):
        self.raw = raw
        self.tree = PointQuadtree(raw.lons, raw.lats)

    def size_bytes(self) -> int:
        return self.tree.size_bytes()

    def query_rect(self, rect: Rect, specs):
        idx = self.tree.range_indices(rect)
        cols = {c for c, op in specs if op != "count"}
        vals = {c: self.raw.columns[c][idx] for c in cols}
        return aggregate(specs, len(idx), lambda c, s: vals[c])

    def query_select(self, polygon: Polygon, specs):
        return self.query_rect(polygon.interior_rect(), specs)

    def query_count(self, polygon: Polygon) -> int:
        return int(len(self.tree.range_indices(polygon.interior_rect())))
