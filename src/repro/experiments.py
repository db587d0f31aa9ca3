"""Experiment harness: one function per table/figure of the paper.

Each function returns a list of row dicts (printable with
:func:`print_table`) whose columns mirror what the paper reports;
``jobs/run.py <name>`` runs them and writes ``results/<name>.txt``.
EXPERIMENTS.md records paper-vs-measured numbers.

Methodology notes (deviations are documented in DESIGN.md section 4):

- Engines are timed on the driver (the paper's engines are single-node
  C++; Spark job latency would drown µs-scale query differences). The
  distributed path has its own experiment (:func:`distributed_compare`).
- Polygon coverings are precomputed into "query plans" shared by all
  cell engines, so measured time is pure engine execution (PHTree/RTree
  get the interior rectangle). The paper includes covering time in every
  engine equally; excluding it sharpens the same comparison.
- The workload follows the paper: the *base* workload queries every
  neighborhood once; the *skewed* workload queries a fixed random 10%
  subset repeatedly; 7 aggregates touching every column.
"""
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.baselines.binary_search import BinarySearchEngine
from repro.baselines.btree import BTreeEngine
from repro.baselines.quadtree import QuadtreeEngine
from repro.baselines.rtree import RTreeEngine
from repro.core.geoblock import AdaptiveGeoBlock, GeoBlock
from repro.core.raw import RawTable, extract_and_reorganize
from repro.exact import exact_mask, relative_count_error
from repro.s2lite.cell import cell_diag_meters
from repro.s2lite.covering import exterior_covering
from repro.synth_data import nyc_taxi_pandas
from repro.workloads import (
    DEFAULT_AGGS,
    VALUE_COLS,
    neighborhoods,
    selectivity_suite,
    skewed_workload,
)

# Fig. 1 sweeps 1..8 aggregates; the 8th extends the default 7.
EXTENDED_AGGS = DEFAULT_AGGS + [("trip_distance", "min")]

BENCH_SF = 0.1  # ~1.2M rides (paper: 12M)
DEFAULT_LEVEL = 17
SKEW_FRAC = 0.1
# Workload and per-query timings are the best of this many runs, so a
# table cell does not move with one slow pass.
TIMING_REPEATS = 5


# ---------------------------------------------------------------------------
# shared setup
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    """Dataset + workload + precomputed query plans for one block level."""

    sf: float
    taxi: pd.DataFrame
    raw: RawTable
    hoods: list
    skew: list
    plans: dict = field(default_factory=dict)  # level -> [cells per hood]

    def cover_all(self, level: int):
        if level not in self.plans:
            self.plans[level] = [
                exterior_covering(p, level) for p in self.hoods
            ]
        return self.plans[level]

    def skew_indices(self):
        ids = {id(p): i for i, p in enumerate(self.hoods)}
        return [ids[id(p)] for p in self.skew]


def make_setup(sf: float = BENCH_SF, *, seed: int = 7) -> Setup:
    taxi = nyc_taxi_pandas(sf=sf, seed=seed)
    raw = extract_and_reorganize(taxi, VALUE_COLS)
    hoods = neighborhoods()
    return Setup(
        sf=sf,
        taxi=taxi,
        raw=raw,
        hoods=hoods,
        skew=skewed_workload(hoods, frac=SKEW_FRAC),
    )


def _timed(fn, repeats: int = 1) -> float:
    """Seconds of the fastest of ``repeats`` calls of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_cell_workload(engine, plans, specs, *, batch: bool = True) -> float:
    """Seconds to answer every query plan (cell-covering engines), best
    of ``TIMING_REPEATS`` passes.

    ``batch=False`` plans GeoBlocks queries one cell at a time (the
    paper's per-cell C++ cost structure) — used by the adaptive
    experiments, where the V1/V2 difference lives in per-cell probe
    costs that batch planning optimizes away for both engines; see
    EXPERIMENTS.md.
    """
    kw = {} if batch else {"batch": False}  # the baselines take no ``batch``
    return _timed(
        lambda: [engine.query_cells(cells, specs, **kw) for cells in plans], TIMING_REPEATS
    )


def _base_skew_ms(name: str, engine, plans, skew_plans) -> dict:
    """Query-at-a-time ms of the base and the skewed workload (Figs. 9/10)."""
    base, skew = (
        run_cell_workload(engine, p, DEFAULT_AGGS, batch=False) * 1e3
        for p in (plans, skew_plans)
    )
    return {f"{name}_base_ms": base, f"{name}_skew_ms": skew}


def _train_v2(
    v2: AdaptiveGeoBlock, base_plans, skew_plans, skew_reps: int, threshold: float
):
    """Run the training workload through the V2 engine (recording stats),
    then freeze the AggregateTrie — the paper's protocol ("the
    AggregateTrie was built after running the base workload once and the
    skew workload as often as mentioned")."""
    for cells in base_plans:
        v2.query_cells(cells, DEFAULT_AGGS)
    for _ in range(skew_reps):
        for cells in skew_plans:
            v2.query_cells(cells, DEFAULT_AGGS)
    v2.build_aggregate_trie(threshold)


def print_table(rows, *, title: str = "", file=None) -> None:
    """Write ``rows`` as an aligned text table to ``file`` (stdout if None)."""
    if title:
        print(f"== {title} ==", file=file)
    if not rows:
        print("(no rows)", file=file)
        return
    cols = list(rows[0])
    widths = {
        c: max(len(c), *(len(_fmt(r[c])) for r in rows)) for c in cols
    }
    print("  ".join(c.ljust(widths[c]) for c in cols), file=file)
    for r in rows:
        print("  ".join(_fmt(r[c]).ljust(widths[c]) for c in cols), file=file)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


# ---------------------------------------------------------------------------
# Table 1 — index build times (sorting | building) at levels 13..21
# ---------------------------------------------------------------------------

def table1_build_times(sf: float = BENCH_SF, levels=range(13, 22)) -> list:
    """Paper Table 1: per-level sorting and building wall time (ms).

    The paper's sorting column grows with the level because grid-cell-id
    extraction is piggybacked onto its sort; our key sort is
    level-independent (cells derive from keys by pure bit math at build
    time), so our sorting column is flat — noted in EXPERIMENTS.md.
    """
    taxi = nyc_taxi_pandas(sf=sf)
    rows = []
    for level in levels:
        raw = extract_and_reorganize(taxi, VALUE_COLS)
        blk = GeoBlock.build_from_raw(raw, level=level)
        rows.append(
            {
                "level": level,
                "sorting_ms": raw.timings["sort"] * 1e3,
                "building_ms": raw.timings["build"] * 1e3,
                "n_cells": blk.n_cells,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 1 — total workload runtime vs number of queried aggregates
# ---------------------------------------------------------------------------

def fig1_aggregates(
    sf: float = BENCH_SF,
    *,
    level: int = DEFAULT_LEVEL,
    threshold: float = 0.05,
    agg_counts=(1, 2, 4, 8),
    skew_reps: int = 4,
) -> list:
    """Combined workload (base once + skewed x4) for 1/2/4/8 aggregates
    on BinarySearch, BTree, Blocks V1 and Blocks V2."""
    s = make_setup(sf)
    plans = s.cover_all(level)
    skew_plans = [plans[i] for i in s.skew_indices()]
    combined = list(plans) + [p for _ in range(skew_reps) for p in skew_plans]

    v1 = GeoBlock.build_from_raw(s.raw, level=level)
    v2 = AdaptiveGeoBlock.from_block(v1)
    _train_v2(v2, plans, skew_plans, skew_reps, threshold)
    engines = {
        "BinarySearch": BinarySearchEngine(s.raw, level),
        "BTree": BTreeEngine(s.raw, level),
        "BlocksV1": v1,
        "BlocksV2": v2,
    }
    rows = []
    for n in agg_counts:
        specs = EXTENDED_AGGS[:n]
        row = {"n_aggregates": n}
        for name, eng in engines.items():
            row[f"{name}_ms"] = run_cell_workload(eng, combined, specs) * 1e3
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fig. 6a/6b — build time and size overhead per algorithm
# ---------------------------------------------------------------------------

def fig6a_build_times(sf: float = BENCH_SF, *, level: int = DEFAULT_LEVEL) -> list:
    """Build time (sort phase + index/aggregate phase) per algorithm."""
    taxi = nyc_taxi_pandas(sf=sf)
    rows = []
    # Sorting is shared by all sorted-data engines; measure it once per
    # engine the way the paper reports it (identical in all baselines).
    raw = extract_and_reorganize(taxi, VALUE_COLS)
    sort_s = raw.timings["sort"]

    blk_s = _timed(lambda: GeoBlock.build_from_raw(raw, level=level))
    bt_s = _timed(lambda: BTreeEngine(raw, level))
    qt_s = _timed(lambda: QuadtreeEngine(raw))
    rt_s = _timed(lambda: RTreeEngine(raw))
    rows.append({"algorithm": "BinarySearch", "sort_s": sort_s, "build_s": 0.0})
    rows.append({"algorithm": "BTree", "sort_s": sort_s, "build_s": bt_s})
    rows.append({"algorithm": "Blocks", "sort_s": sort_s, "build_s": blk_s})
    rows.append({"algorithm": "PHTree", "sort_s": 0.0, "build_s": qt_s})
    rows.append({"algorithm": "RTree", "sort_s": 0.0, "build_s": rt_s})
    for r in rows:
        r["total_s"] = r["sort_s"] + r["build_s"]
    return rows


def fig6b_size_overhead(sf: float = BENCH_SF, *, level: int = DEFAULT_LEVEL) -> list:
    """Relative size overhead (index bytes / raw data bytes) per
    algorithm. BinarySearch is omitted by the paper (zero overhead)."""
    s = make_setup(sf)
    raw_bytes = s.raw.size_bytes()
    engines = {
        "BTree": BTreeEngine(s.raw, level),
        "Blocks": GeoBlock.build_from_raw(s.raw, level=level),
        "PHTree": QuadtreeEngine(s.raw),
        "RTree": RTreeEngine(s.raw),
    }
    return [
        {
            "algorithm": name,
            "index_mib": eng.size_bytes() / 2**20,
            "relative_overhead": eng.size_bytes() / raw_bytes,
        }
        for name, eng in engines.items()
    ]


def fig6c_level_overhead(sf: float = BENCH_SF, levels=range(13, 22)) -> list:
    """GeoBlock build time and size overhead across block levels."""
    s = make_setup(sf)
    raw_bytes = s.raw.size_bytes()
    rows = []
    for level in levels:
        t0 = time.perf_counter()
        blk = GeoBlock.build_from_raw(s.raw, level=level)
        build_s = time.perf_counter() - t0
        rows.append(
            {
                "level": level,
                "build_s": build_s,
                "size_mib": blk.size_bytes() / 2**20,
                "relative_overhead": blk.size_bytes() / raw_bytes,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 7 — query runtime vs selectivity
# ---------------------------------------------------------------------------

def fig7_selectivity(
    sf: float = BENCH_SF,
    *,
    level: int = DEFAULT_LEVEL,
    threshold: float = 0.02,
    fractions=(0.0001, 0.001, 0.01, 0.1, 0.3),
    repeats: int = TIMING_REPEATS,
) -> list:
    """Per-query runtime at calibrated selectivities for every engine.

    V2 uses 2% extra storage and trains on one pass of the same queries
    (the paper's polygons are "simple quadrilaterals ... most of these
    cells can be pre-aggregated")."""
    s = make_setup(sf)
    suite = selectivity_suite(s.taxi, fractions)
    plans = {f: exterior_covering(p, level) for f, p in suite.items()}
    rects = {f: p.interior_rect() for f, p in suite.items()}

    v1 = GeoBlock.build_from_raw(s.raw, level=level)
    v2 = AdaptiveGeoBlock.from_block(v1)
    for f in fractions:
        v2.query_cells(plans[f], DEFAULT_AGGS)
    v2.build_aggregate_trie(threshold)
    bs = BinarySearchEngine(s.raw, level)
    bt = BTreeEngine(s.raw, level)
    qt = QuadtreeEngine(s.raw)
    rt = RTreeEngine(s.raw)
    # name -> one query on (covering, interior rectangle); RTree counts only.
    calls = {
        "BinarySearch": lambda cells, rect: bs.query_cells(cells, DEFAULT_AGGS),
        "BTree": lambda cells, rect: bt.query_cells(cells, DEFAULT_AGGS),
        "PHTree": lambda cells, rect: qt.query_rect(rect, DEFAULT_AGGS),
        "RTree": lambda cells, rect: rt.count_rect(rect),
        "BlocksV1": lambda cells, rect: v1.query_cells(cells, DEFAULT_AGGS),
        "BlocksV2": lambda cells, rect: v2.query_cells(cells, DEFAULT_AGGS),
    }

    rows = []
    for f in fractions:
        cells, rect = plans[f], rects[f]
        row = {"selectivity": f, "n_cover_cells": len(cells)}
        for name, call in calls.items():
            row[f"{name}_ms"] = _timed(lambda: call(cells, rect), repeats) * 1e3
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fig. 8 — relative error & runtime vs block level
# ---------------------------------------------------------------------------

def fig8_level_error(sf: float = BENCH_SF, levels=range(13, 22)) -> list:
    """Mean relative COUNT error of the base workload vs block level,
    plus the base workload's covering time and runtime (V1); their sum is
    its end-to-end latency."""
    s = make_setup(sf)
    exact = [int(exact_mask(s.taxi, p).sum()) for p in s.hoods]
    rows = []
    for level in levels:
        t0 = time.perf_counter()
        plans = s.cover_all(level)
        cover_s = time.perf_counter() - t0
        blk = GeoBlock.build_from_raw(s.raw, level=level)
        errs = [
            relative_count_error(blk.count_cells(cells), ex)
            for cells, ex in zip(plans, exact)
            if ex > 0
        ]
        runtime = run_cell_workload(blk, plans, DEFAULT_AGGS)
        rows.append(
            {
                "level": level,
                "cell_diag_m": cell_diag_meters(level),
                "mean_rel_error": float(np.mean(errs)),
                "cover_ms": cover_s * 1e3,
                "runtime_ms": runtime * 1e3,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 9 — base/skew runtime vs number of skewed runs (V1 vs V2)
# ---------------------------------------------------------------------------

def fig9_skew(
    sf: float = BENCH_SF,
    *,
    level: int = DEFAULT_LEVEL,
    threshold: float = 0.05,
    skew_reps=(1, 2, 4, 8, 16),
) -> list:
    """Total runtime of the base part and the skewed part of the
    workload for V1 and adapted V2, as workload skew grows."""
    s = make_setup(sf)
    plans = s.cover_all(level)
    skew_plans = [plans[i] for i in s.skew_indices()]
    v1 = GeoBlock.build_from_raw(s.raw, level=level)
    rows = []
    for reps in skew_reps:
        v2 = AdaptiveGeoBlock.from_block(v1)
        _train_v2(v2, plans, skew_plans, reps, threshold)
        rows.append(
            {
                "skew_reps": reps,
                **_base_skew_ms("V1", v1, plans, skew_plans * reps),
                **_base_skew_ms("V2", v2, plans, skew_plans * reps),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 10 — aggregate-threshold influence
# ---------------------------------------------------------------------------

def fig10_threshold(
    sf: float = BENCH_SF,
    *,
    level: int = DEFAULT_LEVEL,
    skew_reps: int = 4,
    thresholds=(0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
) -> list:
    """Base/skew workload runtime for V2 across AggregateTrie size
    thresholds, with V1 as the flat reference."""
    s = make_setup(sf)
    plans = s.cover_all(level)
    skew_plans = [plans[i] for i in s.skew_indices()]
    v1 = GeoBlock.build_from_raw(s.raw, level=level)
    v1_ms = _base_skew_ms("V1", v1, plans, skew_plans * skew_reps)
    rows = []
    for thr in thresholds:
        v2 = AdaptiveGeoBlock.from_block(v1)
        _train_v2(v2, plans, skew_plans, skew_reps, thr)
        rows.append(
            {
                "threshold": thr,
                "cached_cells": len(v2.agg_trie),
                **v1_ms,
                **_base_skew_ms("V2", v2, plans, skew_plans * skew_reps),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Distributed comparison (repro-band target; no direct paper figure)
# ---------------------------------------------------------------------------

def distributed_compare(
    spark, sf: float = BENCH_SF, *, level: int = DEFAULT_LEVEL, n_polys: int = 40
) -> list:
    """Spark: answer the neighborhood workload from the pre-aggregated
    header relation vs. on-the-fly from raw points, one job each."""
    from repro.core.build import build_headers_spark, with_spatial_key
    from repro.core.spark_query import (
        query_headers_spark,
        query_points_spark,
        ranges_for_polygons,
    )
    from repro.synth_data import nyc_taxi

    points = with_spatial_key(nyc_taxi(spark, sf=sf)).cache()
    n_points = points.count()  # materialize
    t_build = _timed(
        lambda: build_headers_spark(points, level, VALUE_COLS)
        .write.mode("overwrite")
        .format("noop")
        .save()
    )
    headers = build_headers_spark(points, level, VALUE_COLS).cache()
    n_headers = headers.count()  # materialize
    ranges = ranges_for_polygons(spark, neighborhoods()[:n_polys], level).cache()
    ranges.count()
    t_pre = _timed(
        lambda: query_headers_spark(headers, ranges, DEFAULT_AGGS).collect()
    )
    t_fly = _timed(
        lambda: query_points_spark(points, ranges, DEFAULT_AGGS).collect()
    )
    return [
        {
            "method": "GeoBlocks (pre-agg headers)",
            "rows_scanned": n_headers,
            "workload_s": t_pre,
            "build_s": t_build,
        },
        {
            "method": "On-the-fly (raw points)",
            "rows_scanned": n_points,
            "workload_s": t_fly,
            "build_s": 0.0,
        },
    ]
