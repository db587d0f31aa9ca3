"""Polygon -> cell coverings by a level-by-level quadtree descent.

This is the only approximation step in the whole GeoBlocks pipeline: the
query polygon is replaced by a set of grid cells, and the paper's error
bound ("the maximum error is bound by the diagonal of a grid cell")
follows from the covering's max level. Exterior coverings keep every cell
that *intersects* the polygon (false positives only — the paper notes the
error is "always of positive nature"); interior coverings keep only cells
fully *contained* (false negatives only). No engine queries an interior
covering: the PHTree and RTree baselines map a polygon to
:meth:`Polygon.interior_rect`.

Cells in a covering are at levels ``min_level..max_level`` — a cell fully
inside the polygon is emitted as soon as it is at least ``min_level``
deep, which is what keeps covering sizes proportional to the polygon
*perimeter* (interior is covered by coarse cells) rather than its area.

The descent tests geometry only where a cell's answer can change: above
the fit level, where no cell fits inside the polygon's bbox, every cell
meeting the bbox splits with no polygon test; from the fit level on, each
level is classified by one :meth:`Polygon.classify_rects` call.
"""
import math

import numpy as np

from repro.s2lite.cell import MAX_LEVEL, cell_id_from_quad, parent
from repro.s2lite.polygon import Polygon, Rect

__all__ = ["exterior_covering", "interior_covering", "quad_bounds"]

# Child offsets: children of (x, y) are (2x + dx, 2y + dy).
_DX = np.array([0, 0, 1, 1], dtype=np.int64)
_DY = np.array([0, 1, 0, 1], dtype=np.int64)


def quad_bounds(x, y, level: int):
    """``(lon_lo, lat_lo, lon_hi, lat_hi)`` of the quadtree cell(s) ``(x, y)``
    at ``level``; ``x``/``y`` may be ints or int arrays."""
    n = 1 << level
    w_lon, w_lat = 360.0 / n, 180.0 / n
    return (
        -180.0 + x * w_lon,
        -90.0 + y * w_lat,
        -180.0 + (x + 1) * w_lon,
        -90.0 + (y + 1) * w_lat,
    )


def _grid_span(lo: float, hi: float, origin: int, extent: int):
    """Finest-level columns ``(c_lo, c_hi)`` bounding the closed interval
    ``[lo, hi]`` on an axis that starts at ``-origin`` and is ``extent``
    degrees wide: ``c_lo`` is the last column starting at or before ``lo``,
    ``c_hi`` the first ending at or after ``hi``.

    Exact: a float is a ratio of integers, and every cell boundary
    :func:`quad_bounds` computes is exact in floating point, so these
    columns decide containment exactly as comparing the bounds does.
    """
    n, d = float(lo).as_integer_ratio()
    c_lo = ((n + origin * d) << MAX_LEVEL) // (extent * d)
    n, d = float(hi).as_integer_ratio()
    c_hi = -((-(n + origin * d) << MAX_LEVEL) // (extent * d)) - 1
    return c_lo, c_hi


def _root_quad(bbox: Rect, max_level: int):
    """Deepest single quadtree cell containing ``bbox``, capped at
    ``max_level`` — the descent start (equivalent to the paper's trie
    pruning to a covering root). Where two children contain a degenerate
    bbox, the lower one is taken."""
    x_lo, x_hi = _grid_span(bbox.lon_lo, bbox.lon_hi, 180, 360)
    y_lo, y_hi = _grid_span(bbox.lat_lo, bbox.lat_hi, 90, 180)
    x = y = level = 0
    while level < max_level:
        k = MAX_LEVEL - level - 1
        # Lowest child ending at or after the bbox's high edge; it contains
        # the bbox iff it is a child and starts at or before the low edge.
        cx, cy = max(x_hi >> k, 2 * x), max(y_hi >> k, 2 * y)
        if cx > 2 * x + 1 or cy > 2 * y + 1 or cx << k > x_lo or cy << k > y_lo:
            break
        x, y, level = cx, cy, level + 1
    return x, y, level


def _fit_level(bbox: Rect) -> int:
    """A level no deeper than the first at which a cell fits inside
    ``bbox`` in both lon and lat (``MAX_LEVEL`` if none does).

    A cell inside the polygon has its corners inside, so inside the bbox:
    no cell above the fit level can be contained. The level is taken one
    early, so that rounding in the log can never make it late.
    """
    span = min(bbox.width / 360.0, bbox.height / 180.0)
    if not span > 0.0:
        return MAX_LEVEL
    return min(MAX_LEVEL, max(0, math.ceil(-math.log2(span)) - 1))


def _cover(poly: Polygon, max_level: int, min_level: int, interior: bool):
    """Level-synchronous quadtree descent. Above the fit level (see
    :func:`_fit_level`) no cell can be inside the polygon, so every cell
    that meets its bbox splits with no polygon test. From the fit level on,
    each level's frontier is classified in one
    :meth:`Polygon.classify_rects` call; cells inside the polygon (at
    ``min_level`` or finer) are emitted, cells at ``max_level`` too
    (exterior only), and the remaining intersecting cells split into
    their 4 children."""
    if not 0 <= max_level <= MAX_LEVEL:
        raise ValueError(f"max_level {max_level} out of range")
    if min_level > max_level:
        raise ValueError("min_level must be <= max_level")
    x, y, level = _root_quad(poly.bbox, max_level)
    fit = min(_fit_level(poly.bbox), max_level)
    xs = np.array([x], dtype=np.int64)
    ys = np.array([y], dtype=np.int64)
    found = []  # (xs, ys, level) of the cells emitted at each level
    while xs.size:
        bounds = quad_bounds(xs, ys, level)
        if level < fit:
            split = poly.meets_bbox(*bounds)
        else:
            hit, inside = poly.classify_rects(*bounds)
            done = hit & inside if level >= min_level else np.zeros_like(hit)
            if level == max_level:
                keep = done if interior else hit
                found.append((xs[keep], ys[keep], level))
                break
            found.append((xs[done], ys[done], level))
            split = hit & ~done
        xs = ((2 * xs[split])[:, None] + _DX).ravel()
        ys = ((2 * ys[split])[:, None] + _DY).ravel()
        level += 1
    # Encode once: lift every cell to its lower-left max_level descendant,
    # take its id, then the ancestor at the cell's own level (Hilbert indices
    # are hierarchical, see repro.s2lite.hilbert).
    levels = np.concatenate([np.full(len(fx), lv, dtype=np.int64) for fx, _, lv in found])
    lift = max_level - levels
    xs = np.concatenate([fx for fx, _, _ in found]) << lift
    ys = np.concatenate([fy for _, fy, _ in found]) << lift
    return np.sort(parent(cell_id_from_quad(xs, ys, max_level), levels)).tolist()


def exterior_covering(poly: Polygon, max_level: int, min_level: int = 0):
    """Cells intersecting ``poly`` (superset of the polygon), sorted.

    This is the covering GeoBlocks and the BinarySearch/BTree baselines
    query with; its cells are what the StatsTrie records.
    """
    return _cover(poly, max_level, min_level, interior=False)


def interior_covering(poly: Polygon, max_level: int, min_level: int = 0):
    """Cells fully contained in ``poly`` (subset of the polygon), sorted."""
    return _cover(poly, max_level, min_level, interior=True)
