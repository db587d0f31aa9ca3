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

The descent tests geometry only where a cell's answer can change: no
cell above the fit level fits inside the polygon's bbox, so the descent
starts at the fit level, from the cells under the root that can meet the
bbox, and classifies each level in one :meth:`Polygon.classify_rects`
call.
"""
import numpy as np

from repro.s2lite.cell import MAX_LEVEL
from repro.s2lite.hilbert import xy2d
from repro.s2lite.polygon import Polygon, Rect

__all__ = ["exterior_covering", "interior_covering", "quad_bounds"]

# Child offsets, x over y: children of (x, y) are (2x + dx, 2y + dy).
_D = np.array([[[0, 0, 1, 1]], [[0, 1, 0, 1]]], dtype=np.int64)


def quad_bounds(x, y, level: int):
    """``(lon_lo, lat_lo, lon_hi, lat_hi)`` of the quadtree cell(s) ``(x, y)``
    at ``level``; ``x``/``y`` may be ints or int arrays. Every term is exact
    in floating point: a cell is a power of two times 45 degrees wide."""
    w_lon, w_lat = 360.0 / (1 << level), 180.0 / (1 << level)
    lon_lo, lat_lo = x * w_lon - 180.0, y * w_lat - 90.0
    return lon_lo, lat_lo, lon_lo + w_lon, lat_lo + w_lat


def _spans(bbox: Rect):
    """Finest-level columns ``(c_lo, c_hi)`` bounding the closed lon
    interval of ``bbox``, then rows bounding its lat interval: ``c_lo`` is
    the last column starting at or before the low edge, ``c_hi`` the first
    ending at or after the high edge.

    Exact: a float is a ratio of integers, and every cell boundary
    :func:`quad_bounds` computes is exact in floating point, so these
    columns decide containment exactly as comparing the bounds does.
    """
    spans = []
    for lo, hi, origin, extent in (
        (bbox.lon_lo, bbox.lon_hi, 180, 360),
        (bbox.lat_lo, bbox.lat_hi, 90, 180),
    ):
        (n, d), (m, e) = float(lo).as_integer_ratio(), float(hi).as_integer_ratio()
        c_lo = ((n + origin * d) << MAX_LEVEL) // (extent * d)
        spans.append((c_lo, -((-(m + origin * e) << MAX_LEVEL) // (extent * e)) - 1))
    return spans


def _root_quad(bbox: Rect, max_level: int):
    """Deepest single quadtree cell containing ``bbox``, capped at
    ``max_level`` — the descent start (equivalent to the paper's trie
    pruning to a covering root). A cell contains the bbox iff it contains
    its first and last finest column and row, so its level is their
    common prefix. Where two children contain a degenerate bbox, the
    lower one is taken."""
    level, his = max_level, []
    for lo, hi in _spans(bbox):
        if lo > hi:  # zero-wide on a column boundary: take the column below
            lo = hi = hi if hi >= 0 else lo
        if lo < 0 or hi >> MAX_LEVEL:  # past the edge of the world
            return 0, 0, 0
        level = min(level, MAX_LEVEL - (lo ^ hi).bit_length())
        his.append(hi)
    return his[0] >> (MAX_LEVEL - level), his[1] >> (MAX_LEVEL - level), level


def _fit_level(bbox: Rect) -> int:
    """The first level at which a cell fits inside ``bbox`` in both lon and
    lat (``MAX_LEVEL`` if none does), in exact integer arithmetic: a cell
    ``extent / 2**L`` wide fits a width ``n / m`` iff ``n << L >= extent *
    m``.

    A cell inside the polygon has its corners inside, so inside the bbox:
    no cell above the fit level can be contained.
    """
    level = 0
    for lo, hi, extent in ((bbox.lon_lo, bbox.lon_hi, 360), (bbox.lat_lo, bbox.lat_hi, 180)):
        (a, b), (c, d) = float(lo).as_integer_ratio(), float(hi).as_integer_ratio()
        n = c * b - a * d  # the width, times m = b * d
        if n <= 0:
            return MAX_LEVEL
        level = max(level, ((extent * b * d - 1) // n).bit_length())
    return min(level, MAX_LEVEL)


def _start(bbox: Rect, max_level: int):
    """First level and frontier of the descent: the fit level (see
    :func:`_fit_level`), or the root's if that is deeper, and as a
    ``(2, n)`` array of ``x`` over ``y``, every cell under the root in the
    bbox's column and row range at that level, widened by one each way
    for the closed bbox. That is a superset of the cells that meet the
    bbox, so of every cell that can meet the polygon; the classifier finds
    each of the others a miss."""
    rx, ry, root = _root_quad(bbox, max_level)
    level = max(root, min(_fit_level(bbox), max_level))
    k, d = MAX_LEVEL - level, level - root
    (x0, x1), (y0, y1) = (
        (max((lo >> k) - 1, r << d), min((hi >> k) + 1, ((r + 1) << d) - 1))
        for (lo, hi), r in zip(_spans(bbox), (rx, ry))
    )
    q = np.empty((2, max(x1 - x0 + 1, 0), max(y1 - y0 + 1, 0)), dtype=np.int64)
    q[0] = np.arange(x0, x1 + 1)[:, None]
    q[1] = np.arange(y0, y1 + 1)
    return level, q.reshape(2, -1)


def _cover(poly: Polygon, max_level: int, min_level: int, interior: bool):
    """Level-synchronous quadtree descent from :func:`_start`. Each
    level's frontier is classified in one :meth:`Polygon.classify_rects`
    call; cells inside the polygon (at ``min_level`` or finer) are
    emitted, cells at ``max_level`` too (exterior only), and the
    remaining intersecting cells split into their 4 children."""
    if not 0 <= max_level <= MAX_LEVEL:
        raise ValueError(f"max_level {max_level} out of range")
    if min_level > max_level:
        raise ValueError("min_level must be <= max_level")
    level, q = _start(poly.bbox, max_level)
    found = []  # (level, (x, y) of the cells emitted there)
    while q.size:
        hit, inside = poly.classify_rects(*quad_bounds(q[0], q[1], level))
        if level == max_level:
            found.append((level, q[:, inside if interior else hit]))
            break
        if level >= min_level:
            found.append((level, q[:, inside]))
            hit ^= inside
        q = (2 * q[:, hit, None] + _D).reshape(2, -1)
        level += 1
    if not found:  # a bbox past the edge of the world
        return []
    # Encode once: lift every cell to its lower-left max_level descendant,
    # take its id and mask it to the cell's own level (Hilbert indices are
    # hierarchical, see repro.s2lite.hilbert).
    lift = np.repeat([max_level - lv for lv, _ in found], [f.shape[1] for _, f in found])
    x, y = np.concatenate([f for _, f in found], axis=1) << lift
    shift = 2 * (MAX_LEVEL - max_level)
    lsb = np.int64(1 << shift) << 2 * lift
    return np.sort(((xy2d(max_level, x, y) << (shift + 1)) & -lsb) | lsb).tolist()


def exterior_covering(poly: Polygon, max_level: int, min_level: int = 0):
    """Cells intersecting ``poly`` (superset of the polygon), sorted.

    This is the covering GeoBlocks and the BinarySearch/BTree baselines
    query with; its cells are what the StatsTrie records.
    """
    return _cover(poly, max_level, min_level, interior=False)


def interior_covering(poly: Polygon, max_level: int, min_level: int = 0):
    """Cells fully contained in ``poly`` (subset of the polygon), sorted."""
    return _cover(poly, max_level, min_level, interior=True)
