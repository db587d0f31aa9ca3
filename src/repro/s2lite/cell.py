"""S2-style 64-bit cell-id algebra over an equirectangular projection.

A cell id encodes a Hilbert-curve cell at some level 0..30 in a single
int64, exactly like S2 does on one cube face:

    id = (hilbert_index << (2*(30-level) + 1)) | (1 << (2*(30-level)))

The lowest set bit ("lsb") marks the level; all ids of a cell's
descendants (at any deeper level) fall in ``[id - lsb + 1, id + lsb - 1]``
and every level-30 "point key" is odd. These are the properties GeoBlocks
builds on: the sorted point keys of a dataset store each cell's tuples
contiguously, and parent/child/range/containment are O(1) bit tricks.

Projection: lon in [-180, 180] maps linearly to grid x, lat in [-90, 90]
to grid y (equirectangular). The paper uses S2's spherical cube-face
projection; DESIGN.md section 4 explains why the swap is harmless at NYC
scale. All functions accept numpy arrays and broadcast.
"""
import numpy as np

from repro.s2lite.hilbert import d2xy, xy2d

MAX_LEVEL = 30
_GRID = np.int64(1) << MAX_LEVEL  # 2**30 cells per axis at the finest level

# Metres per degree at NYC's latitude (~40.7 N): used only for reporting
# human-readable cell sizes, never in the algorithms themselves.
_M_PER_DEG_LAT = 111_320.0
_M_PER_DEG_LON = 111_320.0 * 0.7580  # cos(40.7 deg)


def _lsb_for_level(level) -> np.int64:
    return np.int64(1) << np.int64(2 * (MAX_LEVEL - np.asarray(level)))


def cell_id_from_quad(x, y, level: int):
    """Cell id of the level-``level`` cell at quadtree coords ``(x, y)``.

    ``x``/``y`` index the ``2**level`` grid of that level (scalars or
    arrays).
    """
    h = xy2d(level, x, y) if level > 0 else np.int64(0) * np.asarray(x, dtype=np.int64)
    shift = 2 * (MAX_LEVEL - level)
    out = (np.asarray(h, dtype=np.int64) << np.int64(shift + 1)) | (np.int64(1) << np.int64(shift))
    if np.ndim(out) == 0:
        return int(out)
    return out


def _latlon_to_grid(lat, lon):
    """Map lat/lon degrees to level-30 integer grid coordinates."""
    x = np.floor((np.asarray(lon, dtype=np.float64) + 180.0) / 360.0 * float(_GRID))
    y = np.floor((np.asarray(lat, dtype=np.float64) + 90.0) / 180.0 * float(_GRID))
    x = np.clip(x, 0, float(_GRID - 1)).astype(np.int64)
    y = np.clip(y, 0, float(_GRID - 1)).astype(np.int64)
    return x, y


def point_keys_from_latlon(lat, lon):
    """Level-30 "point keys" (odd leaf cell ids) for lat/lon arrays.

    This is the sort key of the GeoBlock raw data — the materialized "S2
    key column" of the paper's dataset.
    """
    x, y = _latlon_to_grid(lat, lon)
    h = xy2d(MAX_LEVEL, x, y)
    out = (np.asarray(h, dtype=np.int64) << np.int64(1)) | np.int64(1)
    if np.ndim(out) == 0:
        return int(out)
    return out


def cell_from_latlon(lat, lon, level: int):
    """Cell id at ``level`` containing the point(s) ``(lat, lon)``."""
    return parent(point_keys_from_latlon(lat, lon), level)


def cell_level(cid):
    """Level (0..30) encoded in a cell id via its lowest set bit.

    Scalar ints take a pure-Python bit-twiddling path, about 50x
    cheaper for one cell than a round trip through numpy.
    """
    if isinstance(cid, (int, np.integer)):
        cid = int(cid)
        lsb = cid & -cid
        return MAX_LEVEL - (lsb.bit_length() - 1) // 2
    cid = np.asarray(cid, dtype=np.int64)
    lsb = cid & -cid
    tz = np.round(np.log2(lsb.astype(np.float64))).astype(np.int64)
    return MAX_LEVEL - tz // 2


def parent(cid, level):
    """Ancestor of ``cid`` at the (coarser) ``level``."""
    if isinstance(cid, (int, np.integer)):
        nl = 1 << (2 * (MAX_LEVEL - level))
        return (int(cid) & -nl) | nl
    nl = _lsb_for_level(level)
    return np.asarray(cid, dtype=np.int64) & -nl | nl


def children(cid):
    """The four direct children of ``cid`` (must not be a leaf)."""
    cid = int(cid)
    lsb = cid & -cid
    if lsb == 1:
        raise ValueError("leaf cells have no children")
    nl = lsb >> 2
    begin = cid - lsb + nl
    return [begin + 2 * k * nl for k in range(4)]


def range_min(cid):
    """Smallest descendant id (at any level) of ``cid``, inclusive."""
    if isinstance(cid, (int, np.integer)):
        cid = int(cid)
        return cid - (cid & -cid) + 1
    cid = np.asarray(cid, dtype=np.int64)
    return cid - (cid & -cid) + 1


def range_max(cid):
    """Largest descendant id (at any level) of ``cid``, inclusive."""
    if isinstance(cid, (int, np.integer)):
        cid = int(cid)
        return cid + (cid & -cid) - 1
    cid = np.asarray(cid, dtype=np.int64)
    return cid + (cid & -cid) - 1


def contains(ancestor, cid) -> bool:
    """True iff ``cid`` (cell or point key) is a descendant-or-self of
    ``ancestor``."""
    return bool(range_min(int(ancestor)) <= int(cid) <= range_max(int(ancestor)))


def common_ancestor(a: int, b: int) -> int:
    """Smallest single cell containing both ids (used to prune the tries
    to a root that covers the whole GeoBlock)."""
    la, lb = cell_level(a), cell_level(b)
    lvl = min(la, lb)
    while lvl > 0 and parent(a, lvl) != parent(b, lvl):
        lvl -= 1
    return parent(a, lvl)


def _quad_of(cid: int):
    """(x, y, level) quadtree coordinates of a cell id."""
    lvl = cell_level(cid)
    h = int(cid) >> (2 * (MAX_LEVEL - lvl) + 1)
    x, y = d2xy(lvl, h) if lvl > 0 else (0, 0)
    return int(x), int(y), lvl


def cell_bounds(cid: int):
    """Lon/lat bounds ``(lon_lo, lat_lo, lon_hi, lat_hi)`` of a cell."""
    x, y, lvl = _quad_of(cid)
    n = 1 << lvl
    w_lon, w_lat = 360.0 / n, 180.0 / n
    return (-180.0 + x * w_lon, -90.0 + y * w_lat, -180.0 + (x + 1) * w_lon, -90.0 + (y + 1) * w_lat)


def cell_diag_meters(level: int) -> float:
    """Approximate cell diagonal in metres at NYC latitude — the paper's
    bound on the spatial query error ("level 17 ~ 100 m diagonal")."""
    n = 1 << level
    dx = 360.0 / n * _M_PER_DEG_LON
    dy = 180.0 / n * _M_PER_DEG_LAT
    return float(np.hypot(dx, dy))
