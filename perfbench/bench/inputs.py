"""Seeded inputs and references shared by the workloads.

Every input comes from the run seed: the rides, every polygon pass and
the skewed subset. Pass ``p`` of a run with seed ``s`` is
``neighborhoods(seed=s * 1000 + p)``, so no two passes of one run, and
no passes of runs with different seeds, share a polygon.
"""
import time
from dataclasses import dataclass, field

import numpy as np

from repro.exact import exact_mask, relative_count_error
from repro.s2lite.cell import range_max, range_min
from repro.synth_data import nyc_taxi_pandas
from repro.workloads import DEFAULT_AGGS, neighborhoods

SF = 0.1  # ~1.2M rides
LEVEL = 17  # CellBlock level
THRESHOLD = 0.05  # AggregateTrie size, as a share of the header size
AGGS = DEFAULT_AGGS
COUNT_KEY = ("passenger_count", "count")
WARMUP_PASS = 999  # pass number of the polygons used only to warm up


def rides(seed: int):
    return nyc_taxi_pandas(sf=SF, seed=seed)


def polygon_pass(seed: int, p: int) -> list:
    return neighborhoods(seed=seed * 1000 + p)


@dataclass
class Run:
    """What one workload run measured; ``run.py`` turns it into metrics."""

    setup_s: list = field(default_factory=list)
    # Untraced latencies (seconds) per op kind: select, count, adapt, rebuild.
    samples: dict = field(default_factory=dict)
    window_s: float = 0.0
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    size_overhead: float = float("nan")
    count_rel_error: float = float("nan")
    # Counts that repeat exactly for a seed (per-layer, traced run).
    counts: dict = field(default_factory=dict)
    peak_rss_mib: float = float("nan")

    # Per pass (an equal unit of work): ops, wall seconds, untraced
    # select latencies.
    passes: list = field(default_factory=list)
    # Leading passes left out of the gated latency: a driver's first
    # pass runs before any AggregateTrie exists.
    warm_passes: int = 0
    # Every steady pass runs the same queries in the same order, so each
    # query's latency can be taken at its best (see ``run.py``).
    repeats: bool = False

    def sample(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)

    def pass_clock(self):
        """Call at the start of a pass; call the result at its end."""
        t0, ops0, n0 = time.perf_counter(), self.ops, len(self.samples.get("select", []))

        def end() -> None:
            sel = self.samples.get("select", [])[n0:]
            self.passes.append((self.ops - ops0, time.perf_counter() - t0, sel))

        return end

    def verdict(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


class ExactCounts:
    """Point-in-polygon ride counts (``repro.exact.exact_mask``), run on
    the rides inside the polygon's bounding box only."""

    def __init__(self, taxi):
        order = np.argsort(taxi["dropoff_lon"].to_numpy(), kind="stable")
        self.frame = taxi[["dropoff_lon", "dropoff_lat"]].iloc[order].reset_index(drop=True)
        self.lons = self.frame["dropoff_lon"].to_numpy()
        self.lats = self.frame["dropoff_lat"].to_numpy()

    def count(self, poly) -> int:
        b = poly.bbox
        lo = int(np.searchsorted(self.lons, b.lon_lo, side="left"))
        hi = int(np.searchsorted(self.lons, b.lon_hi, side="right"))
        lats = self.lats[lo:hi]
        sub = self.frame.iloc[lo:hi].loc[(lats >= b.lat_lo) & (lats <= b.lat_hi)]
        return int(exact_mask(sub, poly).sum())

    def mean_rel_error(self, polys, counts) -> float:
        errs = [relative_count_error(c, self.count(p)) for p, c in zip(polys, counts)]
        return float(np.mean(errs))


def headers_in(keys: np.ndarray, cells) -> int:
    """CellBlock headers inside the key ranges of a covering."""
    cells = np.asarray(cells, dtype=np.int64)
    i0 = keys.searchsorted(range_min(cells), side="left")
    i1 = keys.searchsorted(range_max(cells), side="right")
    return int(np.maximum(i1 - i0, 0).sum())
