"""Vectorized Hilbert-curve index <-> coordinate transforms.

The curve is defined on a ``2**order x 2**order`` grid. ``xy2d`` maps grid
coordinates to the 1-D Hilbert index (the basis of the s2lite cell key);
``d2xy`` is the inverse, used to recover cell bounds for coverings and
error measurement.

Both functions are numpy-vectorized over their inputs: the build path
pushes millions of points through ``xy2d`` (30 iterations of a few
bitwise array ops), which is what makes key materialization feasible
inside a pandas UDF.

The Hilbert construction is hierarchical: the top ``2*l`` bits of a
level-30 index form the level-``l`` index of the containing cell. The
cell-id algebra in :mod:`repro.s2lite.cell` relies on this property.
"""
import numpy as np

__all__ = ["xy2d", "d2xy"]


def xy2d(order: int, x, y):
    """Hilbert index of grid cell ``(x, y)`` on a ``2**order`` grid.

    ``x``/``y`` may be scalars or numpy integer arrays in
    ``[0, 2**order)``; the result is an int64 scalar/array in
    ``[0, 4**order)``. ``order`` must be <= 31 so the index fits in a
    signed 64-bit integer (we use 30).
    """
    if order > 31:
        raise ValueError(f"order {order} does not fit a signed 64-bit index")
    # One copy suffices: the loop rebinds x and y and never writes to
    # them. Dropping this one too leaves the same live data but a different
    # allocation order, which raised the repo benchmark's peak RSS on
    # cells_skewed by ~16% (333 -> 386 MiB at SF 0.1).
    x = np.asarray(x, dtype=np.int64).copy()
    y = np.asarray(y, dtype=np.int64).copy()
    d = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
    x, y = np.broadcast_arrays(x, y)
    s = np.int64(1) << (order - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant so the sub-curve is in canonical orientation.
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - 1 - x, x)
        y_f = np.where(flip, s - 1 - y, y)
        x, y = np.where(swap, y_f, x_f), np.where(swap, x_f, y_f)
        s >>= 1
    if d.ndim == 0:
        return int(d)
    return d


def d2xy(order: int, d):
    """Grid cell ``(x, y)`` of Hilbert index ``d`` on a ``2**order`` grid.

    Inverse of :func:`xy2d`; accepts scalars or numpy int arrays.
    """
    if order > 31:
        raise ValueError(f"order {order} does not fit a signed 64-bit index")
    t = np.asarray(d, dtype=np.int64).copy()
    x = np.zeros(t.shape, dtype=np.int64)
    y = np.zeros(t.shape, dtype=np.int64)
    s = np.int64(1)
    n = np.int64(1) << order
    while s < n:
        rx = 1 & (t >> 1)
        ry = 1 & (t ^ rx)
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - 1 - x, x)
        y_f = np.where(flip, s - 1 - y, y)
        x, y = np.where(swap, y_f, x_f), np.where(swap, x_f, y_f)
        x += s * rx
        y += s * ry
        t >>= 2
        s <<= 1
    if x.ndim == 0:
        return int(x), int(y)
    return x, y
