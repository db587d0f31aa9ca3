"""Percentiles that refuse to report a tail the samples cannot support."""
import numpy as np

# A tail percentile is reported only with at least this many samples
# beyond it; below that it is one or two outliers, not a tail.
MIN_BEYOND = 10

TAILS = (99, 95, 90, 75)


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``samples``.

    Raises ``ValueError`` for an empty sample, and for a tail percentile
    (``q > 50``) with fewer than :data:`MIN_BEYOND` samples above it.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    if q > 50 and n * (100 - q) / 100 < MIN_BEYOND:
        need = int(np.ceil(MIN_BEYOND * 100 / (100 - q)))
        raise ValueError(f"p{q:g} needs >= {need} samples, got {n}")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def tail(samples):
    """``(q, value)`` for the highest of :data:`TAILS` the samples support,
    or ``None`` when even p75 has fewer than :data:`MIN_BEYOND` beyond it."""
    for q in TAILS:
        try:
            return q, percentile(samples, q)
        except ValueError:
            continue
    return None
