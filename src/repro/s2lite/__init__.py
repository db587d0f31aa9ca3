"""s2lite — a from-scratch replacement for the parts of Google S2 that
GeoBlocks depends on.

The paper linearizes lat/lon via S2: a Hilbert curve over a spherical
projection with 31 levels and 64-bit cell ids whose trailing bit encodes
the level, so that parent/child/descendant-range operations are a few
bitwise instructions. We reproduce exactly that id algebra over an
equirectangular (lon, lat) -> unit-square mapping with 30 levels; see
DESIGN.md section 4 for why the projection swap does not affect any
measured quantity.
"""
from repro.s2lite.cell import (  # noqa: F401
    MAX_LEVEL,
    cell_bounds,
    cell_diag_meters,
    cell_from_latlon,
    cell_id_from_quad,
    cell_level,
    children,
    common_ancestor,
    contains,
    parent,
    point_keys_from_latlon,
    range_max,
    range_min,
)
from repro.s2lite.covering import exterior_covering, interior_covering  # noqa: F401
from repro.s2lite.hilbert import d2xy, xy2d  # noqa: F401
from repro.s2lite.polygon import Polygon, Rect  # noqa: F401
