"""Vectorized Hilbert-curve index <-> coordinate transforms.

The curve is defined on a ``2**order x 2**order`` grid. ``xy2d`` maps grid
coordinates to the 1-D Hilbert index (the basis of the s2lite cell key);
``d2xy`` is the inverse, used to recover cell bounds for coverings and
error measurement.

Both functions are numpy-vectorized over their inputs. ``xy2d`` is the
hot one: the build path pushes millions of points through it. It is a
state machine read ``CHUNK`` bits at a time (the lookup-table scheme of
S2's ``S2CellId::FromFaceIJ``; Lawder & King, SIGMOD Record 2001). The
curve's step rule turns each bit pair of ``(x, y)`` into one base-4 digit
and a change of orientation; an orientation is a (swap, flip) pair, and
composing two of them XORs their bits, so 4 states cover every prefix.
Two tables, derived once at import from that rule, map (state,
``CHUNK`` bits of x, ``CHUNK`` bits of y) to the chunk's ``2*CHUNK``
index bits and to the next state, so a level-30 key costs 4 gathers of
each table instead of 30 rounds of bitwise array ops.

The Hilbert construction is hierarchical: the top ``2*l`` bits of a
level-30 index form the level-``l`` index of the containing cell. The
cell-id algebra in :mod:`repro.s2lite.cell` relies on this property.
"""
import numpy as np

__all__ = ["xy2d", "d2xy"]

CHUNK = 8  # bits of x and of y per table lookup
_MASK = (1 << CHUNK) - 1
# A state is swap | flip << 1; the tables are indexed by
# state << 2*CHUNK | x_chunk << CHUNK | y_chunk.
_ROW = 2 * CHUNK


def _state_tables():
    """Digits table (uint16) and next-state table (int32, stored as the
    next state's row offset ``state << 2*CHUNK``)."""
    idx = np.arange(4 << _ROW, dtype=np.int64)
    swap, flip = (idx >> _ROW) & 1, idx >> (_ROW + 1)
    cx, cy = (idx >> CHUNK) & _MASK, idx & _MASK
    digits = np.zeros_like(idx)
    for b in range(CHUNK - 1, -1, -1):
        bx, by = ((cx >> b) & 1) ^ flip, ((cy >> b) & 1) ^ flip
        rx, ry = np.where(swap == 1, by, bx), np.where(swap == 1, bx, by)
        digits = (digits << 2) | ((3 * rx) ^ ry)
        # Step rule: a quadrant with ry == 0 swaps the axes, and with
        # rx == 1 also flips them, for every lower bit.
        turn = ry == 0
        flip = flip ^ (turn & (rx == 1))
        swap = swap ^ turn
    return digits.astype(np.uint16), ((swap | flip << 1) << _ROW).astype(np.int32)


_DIGITS, _NEXT_ROW = _state_tables()


def xy2d(order: int, x, y):
    """Hilbert index of grid cell ``(x, y)`` on a ``2**order`` grid.

    ``x``/``y`` may be scalars or numpy integer arrays in
    ``[0, 2**order)``; the result is an int64 scalar/array in
    ``[0, 4**order)``. ``order`` must be <= 31 so the index fits in a
    signed 64-bit integer (we use 30).
    """
    if order > 31:
        raise ValueError(f"order {order} does not fit a signed 64-bit index")
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    d = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
    chunks = -(-order // CHUNK)
    # The top chunk is padded with leading zero bits; each of them is a
    # digit 0 that only toggles swap. Starting from swap = pad parity
    # leaves the identity orientation once the padding is read.
    row = ((chunks * CHUNK - order) & 1) << _ROW
    for shift in range((chunks - 1) * CHUNK, -1, -CHUNK):
        i = row | ((x >> shift) & _MASK) << CHUNK | ((y >> shift) & _MASK)
        d = (d << _ROW) | _DIGITS[i]
        row = _NEXT_ROW[i]
    if np.ndim(d) == 0:
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
