"""Query workloads for the GeoBlocks evaluation.

The paper queries (a) NYC neighborhood polygons from the city's open-data
portal — "each polygon once" as the *base* workload, and 10% of
neighborhoods drawn uniformly and queried repeatedly as the *skewed*
workload — and (b) hand-selected polygons calibrated to contain a target
percentage of all rides for the selectivity experiment. Neither polygon
set is available offline; we synthesize structurally equivalent ones (the
paper itself notes its polygons are "often simple quadrilaterals or
pentagons"): jittered grid quadrilaterals, with a finer grid over the
Manhattan core so polygon size tracks data density like real
neighborhoods do, and bisection-calibrated selectivity rectangles.
"""
import numpy as np
import pandas as pd

from repro.s2lite.polygon import Polygon, Rect
from repro.synth_data import NYC_BBOX

# The 7 query aggregates of the paper's workload ("a set of 7 aggregates,
# requesting each column at least once").
DEFAULT_AGGS = [
    ("passenger_count", "sum"),
    ("passenger_count", "count"),
    ("passenger_count", "max"),
    ("trip_distance", "sum"),
    ("trip_distance", "max"),
    ("dropoff_ts", "min"),
    ("dropoff_ts", "max"),
]

VALUE_COLS = ["dropoff_ts", "passenger_count", "trip_distance"]

# Manhattan core gets a finer neighborhood grid (polygon size follows
# data density, like real NTAs: small dense neighborhoods in Manhattan,
# large sparse ones in the suburbs).
_MANHATTAN_BOX = Rect(-74.03, 40.69, -73.92, 40.82)


def _grid_quads(rect: Rect, nx: int, ny: int, g: np.random.Generator, jitter: float):
    """Jittered-quadrilateral tiling of ``rect``: perturb the vertices of
    a regular grid by < half a cell so the quads stay simple polygons."""
    xs = np.linspace(rect.lon_lo, rect.lon_hi, nx + 1)
    ys = np.linspace(rect.lat_lo, rect.lat_hi, ny + 1)
    dx = (xs[1] - xs[0]) * jitter
    dy = (ys[1] - ys[0]) * jitter
    jx = g.uniform(-dx, dx, (ny + 1, nx + 1))
    jy = g.uniform(-dy, dy, (ny + 1, nx + 1))
    # Keep the outer boundary straight so quads never leave the rect. Not
    # required for correctness, just keeps the tiling tidy.
    jx[:, 0] = jx[:, -1] = 0
    jy[0, :] = jy[-1, :] = 0
    vx = xs[None, :] + jx
    vy = ys[:, None] + jy
    quads = []
    for iy in range(ny):
        for ix in range(nx):
            quads.append(
                Polygon(
                    [
                        (vx[iy, ix], vy[iy, ix]),
                        (vx[iy, ix + 1], vy[iy, ix + 1]),
                        (vx[iy + 1, ix + 1], vy[iy + 1, ix + 1]),
                        (vx[iy + 1, ix], vy[iy + 1, ix]),
                    ]
                )
            )
    return quads


def neighborhoods(*, seed: int = 11) -> list:
    """~140 synthetic NYC "neighborhood" polygons.

    Stand-in for the paper's NYC Neighborhood Tabulation Areas (195
    polygons): 8x10 fine quads over the Manhattan core plus a coarse grid
    over the rest of the NYC bbox (cells overlapping the core are
    dropped).
    """
    g = np.random.default_rng(seed)
    fine = _grid_quads(_MANHATTAN_BOX, 8, 10, g, jitter=0.35)
    lon_lo, lat_lo, lon_hi, lat_hi = NYC_BBOX
    outer = Rect(lon_lo, lat_lo, lon_hi, lat_hi)
    coarse_all = _grid_quads(outer, 9, 8, g, jitter=0.35)
    coarse = []
    for p in coarse_all:
        cx, cy = p.centroid()
        if not _MANHATTAN_BOX.contains_point(cx, cy):
            coarse.append(p)
    return fine + coarse


def skewed_workload(polys, *, frac: float = 0.1, seed: int = 13) -> list:
    """The paper's skewed workload: ``frac`` of the polygons selected
    uniformly at random (queried repeatedly by the caller)."""
    g = np.random.default_rng(seed)
    k = max(1, int(len(polys) * frac))
    idx = g.choice(len(polys), size=k, replace=False)
    return [polys[i] for i in sorted(idx)]


def selectivity_polygon(taxi: pd.DataFrame, fraction: float, *, tol: float = 0.03) -> Polygon:
    """Rectangle (as a 4-vertex polygon) containing ~``fraction`` of all
    rides, grown around the densest hotspot by bisection.

    Mirrors the paper's "artificially selected polygons covering a part
    of NYC which contain a certain percentage of the total rides".
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must be in (0, 1)")
    lons = taxi["dropoff_lon"].to_numpy()
    lats = taxi["dropoff_lat"].to_numpy()
    # Center on Midtown (the global density peak of the generator).
    c_lon, c_lat = -73.985, 40.750
    lon_lo, lat_lo, lon_hi, lat_hi = NYC_BBOX
    max_h = max(lon_hi - lon_lo, lat_hi - lat_lo)

    def frac_at(h):
        m = (
            (np.abs(lons - c_lon) <= h)
            & (np.abs(lats - c_lat) <= h * 0.75)
        )
        return m.mean()

    lo, hi = 0.0, max_h
    for _ in range(60):
        mid = (lo + hi) / 2
        f = frac_at(mid)
        if abs(f - fraction) <= tol * fraction:
            lo = hi = mid
            break
        if f < fraction:
            lo = mid
        else:
            hi = mid
    h = (lo + hi) / 2
    r = Rect(c_lon - h, c_lat - h * 0.75, c_lon + h, c_lat + h * 0.75)
    return Polygon(r.corners())


def selectivity_suite(taxi: pd.DataFrame, fractions=(0.0001, 0.001, 0.01, 0.1, 0.3)):
    """Polygon per target selectivity — the Figure 7 sweep."""
    return {f: selectivity_polygon(taxi, f) for f in fractions}
