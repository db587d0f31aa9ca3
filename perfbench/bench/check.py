"""Answer comparison: counts, min and max exactly, sums within rel 1e-9."""
import math

SUM_REL_TOL = 1e-9


def mismatches(got: dict, want: dict) -> list:
    """Keys ``(col, op)`` where ``got`` disagrees with the reference
    ``want``; empty when the answers match."""
    bad = []
    for key, w in want.items():
        g = got.get(key, "missing")
        if not _same(g, w, key[1]):
            bad.append((key, g, w))
    return bad


def _same(g, w, op: str) -> bool:
    if g is None or w is None:
        return g is None and w is None
    if g == "missing":
        return False
    if op in ("sum", "avg"):
        return math.isclose(float(g), float(w), rel_tol=SUM_REL_TOL, abs_tol=0.0)
    return float(g) == float(w)


def spark_row_answer(row, specs) -> dict:
    """A ``query_headers_spark`` row in the driver's ``{(col, op): v}`` form."""
    return {(c, op): row[f"{c}_{op}"] for c, op in specs}
