"""RTree baseline: STR-packed R-tree with inner-node element counts,
emulating the aR-tree exactly the way the paper does.

"With the RTree baseline, we tried to simulate the aR-tree using the
boost R-tree (max. 16 elements per node) ... we skip aggregating the
results and only report the result count, which can be done using the
inner nodes, similar to the query process of the aR-tree which uses
aggregates at these nodes. ... We use the same query mapping as for the
PHTree baseline [the interior rectangle]."

boost is unavailable offline, so the tree is bulk-loaded with the
Sort-Tile-Recursive algorithm (packed R-trees are what bulk-loaded boost
trees effectively produce). STR packing makes parent/child relations
pure index arithmetic, so the tree is stored as per-level MBR/count
arrays and COUNT queries run as a vectorized level-wise descent: fully
contained subtrees contribute their stored count without descending;
only boundary nodes expand, and only boundary leaves touch raw points.
"""
import math

import numpy as np

from repro.s2lite.polygon import Polygon, Rect

__all__ = ["STRTree", "RTreeEngine"]

_NODE_CAP = 16  # the paper's boost configuration


class STRTree:
    def __init__(self, lons, lats):
        n = len(lons)
        if n == 0:
            raise ValueError("cannot index an empty point set")
        # STR: sort by lon into vertical slabs, sort each slab by lat,
        # pack runs of `_NODE_CAP` points into leaves.
        lons = np.asarray(lons, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        order = np.argsort(lons, kind="stable")
        n_leaves = math.ceil(n / _NODE_CAP)
        n_slabs = max(1, math.ceil(math.sqrt(n_leaves)))
        slab_sz = math.ceil(n / n_slabs)
        final = np.empty(n, dtype=np.int64)
        for s in range(n_slabs):
            seg = order[s * slab_sz : (s + 1) * slab_sz]
            final[s * slab_sz : s * slab_sz + len(seg)] = seg[
                np.argsort(lats[seg], kind="stable")
            ]
        self.lons = lons[final]
        self.lats = lats[final]
        self.n = n
        # Level 0 = leaves; parent of node i at level k is i // _NODE_CAP
        # at level k+1 (STR packing is positional).
        self.levels = []  # list of dicts of numpy arrays, leaves first

        def pack(lon_lo, lat_lo, lon_hi, lat_hi, count):
            m = len(count)
            k = math.ceil(m / _NODE_CAP)
            pad = k * _NODE_CAP - m
            if pad:
                lon_lo = np.r_[lon_lo, np.full(pad, np.inf)]
                lat_lo = np.r_[lat_lo, np.full(pad, np.inf)]
                lon_hi = np.r_[lon_hi, np.full(pad, -np.inf)]
                lat_hi = np.r_[lat_hi, np.full(pad, -np.inf)]
                count = np.r_[count, np.zeros(pad, dtype=np.int64)]
            sh = (k, _NODE_CAP)
            return {
                "lon_lo": lon_lo.reshape(sh).min(axis=1),
                "lat_lo": lat_lo.reshape(sh).min(axis=1),
                "lon_hi": lon_hi.reshape(sh).max(axis=1),
                "lat_hi": lat_hi.reshape(sh).max(axis=1),
                "count": count.reshape(sh).sum(axis=1),
            }

        pad = n_leaves * _NODE_CAP - n
        px = np.r_[self.lons, np.full(pad, np.inf)]
        py = np.r_[self.lats, np.full(pad, np.inf)]
        nx = np.r_[self.lons, np.full(pad, -np.inf)]
        ny = np.r_[self.lats, np.full(pad, -np.inf)]
        cnt = np.r_[np.ones(n, dtype=np.int64), np.zeros(pad, dtype=np.int64)]
        self.levels.append(pack(px, py, nx, ny, cnt))
        while len(self.levels[-1]["count"]) > 1:
            lv = self.levels[-1]
            self.levels.append(
                pack(lv["lon_lo"], lv["lat_lo"], lv["lon_hi"], lv["lat_hi"], lv["count"])
            )
        self.n_nodes = int(sum(len(lv["count"]) for lv in self.levels))

    def size_bytes(self) -> int:
        """MBR (4 floats) + count per node, plus the STR-reordered
        coordinate copies the leaves reference."""
        per_node = 4 * 8 + 8
        return int(self.lons.nbytes + self.lats.nbytes + self.n_nodes * per_node)

    def count_rect(self, rect: Rect) -> int:
        """aR-tree COUNT: vectorized top-down descent; fully-contained
        subtrees contribute their stored count without descending."""
        total = 0
        cand = np.array([0], dtype=np.int64)
        for depth in range(len(self.levels) - 1, -1, -1):
            lv = self.levels[depth]
            lon_lo = lv["lon_lo"][cand]
            lat_lo = lv["lat_lo"][cand]
            lon_hi = lv["lon_hi"][cand]
            lat_hi = lv["lat_hi"][cand]
            inter = ~(
                (lon_lo > rect.lon_hi)
                | (lon_hi < rect.lon_lo)
                | (lat_lo > rect.lat_hi)
                | (lat_hi < rect.lat_lo)
            )
            contained = (
                inter
                & (lon_lo >= rect.lon_lo)
                & (lon_hi <= rect.lon_hi)
                & (lat_lo >= rect.lat_lo)
                & (lat_hi <= rect.lat_hi)
            )
            total += int(lv["count"][cand[contained]].sum())
            partial = cand[inter & ~contained]
            if len(partial) == 0:
                return total
            if depth == 0:
                # Boundary leaves: test their raw points.
                starts = partial * _NODE_CAP
                idx = (starts[:, None] + np.arange(_NODE_CAP)).ravel()
                idx = idx[idx < self.n]
                total += int(
                    rect.contains_points(self.lons[idx], self.lats[idx]).sum()
                )
                return total
            cand = (partial[:, None] * _NODE_CAP + np.arange(_NODE_CAP)).ravel()
            cand = cand[cand < len(self.levels[depth - 1]["count"])]
        return total


class RTreeEngine:
    """COUNT-only engine over the interior rectangle (the paper omits
    RTree from all non-runtime experiments and from result comparisons,
    because it reports counts only and uses the rectangle mapping)."""

    def __init__(self, raw):
        self.raw = raw
        self.tree = STRTree(raw.lons, raw.lats)

    def size_bytes(self) -> int:
        return self.tree.size_bytes()

    def query_count(self, polygon: Polygon) -> int:
        return self.tree.count_rect(polygon.interior_rect())

    def count_rect(self, rect: Rect) -> int:
        return self.tree.count_rect(rect)
