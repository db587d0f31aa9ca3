"""GeoBlocks benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload cells_skewed --seed 1 --seconds 35 --trace 0

Run from the root of a source tree (``src/repro`` and ``jobs/`` beside
``perfbench/``). ``--trace 0`` times the public calls untraced and
reports the end-to-end metrics; ``--trace 1`` is a separate run that
traces half the requests and reports the per-layer metrics. The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). The lines before it
are a report with the sample count behind every percentile. A run
record (host speed before and after, git sha, cores, scale factor,
seed, sample counts) and, for traced runs, the spans are written under
``.bench_out/``. ``--workload all`` runs every workload, each in its
own process.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from bench import host
from bench.stats import percentile, tail
from bench.trace import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("polygons_adhoc", "cells_skewed", "spark_batches")

END_TO_END = {
    "select_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "size_overhead": "ratio",
    "count_rel_error": "ratio",
}
PER_LAYER = {
    "covering.cover_p50_ms": "ms",
    "covering.cells_per_query": "count",
    "covering.select_share": "ratio",
    "geoblock.select_p50_ms": "ms",
    "geoblock.v1_select_p50_ms": "ms",
    "geoblock.count_p50_ms": "ms",
    "geoblock.headers_per_query": "count",
    "stats_trie.record_p50_us": "us",
    "agg_trie.hit_ratio": "ratio",
    "agg_trie.build_p50_ms": "ms",
    "agg_trie.entries": "count",
    "agg_trie.bytes": "bytes",
    "raw.extract_sort_s": "s",
    "geoblock.build_s": "s",
    "spark_build.key_cache_s": "s",
    "spark_build.headers_s": "s",
    "spark_query.ranges_p50_ms": "ms",
    "spark_query.collect_p50_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return a


def _require_tree() -> None:
    """Refuse to run outside a source tree: the program is not here."""
    for need in ("src/repro/__init__.py", "jobs/_session.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            sys.exit(f"perfbench: {need} not found under {ROOT}; run from a source tree")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def _ms(xs):
    return [x * 1e3 for x in xs]


def _p50(xs, scale=1.0):
    return percentile(xs, 50) * scale


def _p25(xs, scale=1.0):
    return percentile(xs, 25) * scale


def end_to_end(run) -> dict:
    """The gated metrics. ``select_ms`` is the median SELECT latency over
    the passes after the warm-up ones. Where every steady pass repeats
    the same queries (``run.repeats``), each query counts with its best
    latency over those passes, as ``timeit`` takes the best of its
    repeats: a shared host slows the same code two- to fourfold for
    tenths of a second to minutes, and a query of ~0.1 ms either falls
    into such a phase or not. Where queries never repeat (fresh polygons, Spark
    batches) each is one sample."""
    steady = run.passes[run.warm_passes:]
    if run.repeats:
        full = max(len(sel) for _, _, sel in steady)  # a pass whose op raised has fewer
        best = np.min([sel for _, _, sel in steady if len(sel) == full], axis=0)
        select = _p50(best, 1e3)
    else:
        select = _p50([x for _, _, sel in steady for x in sel], 1e3)
    return {
        "select_ms": select,
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mib": run.peak_rss_mib,
        "size_overhead": run.size_overhead,
        "count_rel_error": run.count_rel_error,
    }


def per_layer(run, tracer) -> dict:
    d = tracer.durations
    sel = tracer.durations("op.select")
    ops = {s.request for s in tracer.spans if s.name == "op.select"}
    out = {
        "covering.cover_p50_ms": _p50(d("covering.cover"), 1e3),
        "covering.select_share": sum(d("covering.cover", ops)) / sum(sel),
        "geoblock.select_p50_ms": _p50(d("geoblock.query_cells"), 1e3),
        "geoblock.v1_select_p50_ms": _p50(d("geoblock.v1_query_cells"), 1e3),
        "geoblock.count_p50_ms": _p50(d("geoblock.count_cells"), 1e3),
        "stats_trie.record_p50_us": _p50(d("stats_trie.record_many"), 1e6),
        "agg_trie.build_p50_ms": _p50(d("agg_trie.build"), 1e3),
        "raw.extract_sort_s": _p50(d("raw.extract_sort")),
        "geoblock.build_s": _p50(d("geoblock.build")),
        "spark_build.key_cache_s": _p50(d("spark_build.key_cache")),
        "spark_build.headers_s": _p50(d("spark_build.headers")),
        "spark_query.ranges_p50_ms": _p50(d("spark_query.ranges"), 1e3),
        "spark_query.collect_p50_ms": _p50(d("spark_query.collect"), 1e3),
        "trace.overhead_ratio": _p25(sel) / _p25(run.samples["select"]),
    }
    out.update(run.counts)
    return {k: out[k] for k in PER_LAYER}


def report_lines(run, tracer) -> list:
    """Every latency the run has, as p25, p50 and the highest supported
    tail, with its sample count; then failures and, traced, busy (self)
    time per span name."""
    lines = []
    series = {f"{k}_ms": _ms(v) for k, v in run.samples.items()}
    if tracer is not None:
        for name in sorted({s.name for s in tracer.spans}):
            series[f"span {name} ms"] = _ms(tracer.durations(name))
    for name, xs in series.items():
        t = tail(xs)
        tail_txt = f"p{t[0]}={t[1]:.4f}" if t else "tail=n/a"
        lines.append(f"{name:34s} p25={_p25(xs):.4f} p50={_p50(xs):.4f} {tail_txt} n={len(xs)}")
    lines.append(
        f"ops_per_s {run.ops / run.window_s:.4f} ({run.ops} ops in {run.window_s:.2f} s, "
        f"{len(run.passes)} passes)"
    )
    lines.append(f"failed_share {run.failed / run.attempted:.6f} ({run.failed}/{run.attempted})")
    if tracer is not None:
        for name, t in sorted(tracer.self_time_by_name().items()):
            lines.append(f"self time {name:34s} {t:.4f} s")
    return lines


def run_one(a) -> dict:
    from bench import driver
    from bench.inputs import SF

    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "git_sha": host.git_sha(ROOT),
        "nproc": os.cpu_count(),
        "sf": SF,
        "host_spin_ms_before": host.host_spin_ms(),
    }
    tracer = Tracer() if a.trace else None
    t0 = time.perf_counter()
    if a.workload == "spark_batches":
        from bench.spark import spark_batches

        run = spark_batches(a.seed, a.seconds, tracer, root=ROOT, out=OUT)
    else:
        probe = None
        if tracer is not None:
            from functools import partial

            from bench.spark import spark_layers

            probe = partial(spark_layers, tracer=tracer, root=ROOT, out=OUT)
        run = getattr(driver, a.workload)(a.seed, a.seconds, tracer, probe)
    record["wall_s"] = time.perf_counter() - t0
    record["host_spin_ms_after"] = host.host_spin_ms()
    metrics = per_layer(run, tracer) if tracer else end_to_end(run)
    units = PER_LAYER if tracer else END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["samples_ms"] = {k: _ms(v) for k, v in run.samples.items()}
    record["ops"], record["window_s"] = run.ops, run.window_s
    record["passes"] = [(ops, secs) for ops, secs, _ in run.passes]
    record["warm_passes"] = run.warm_passes
    record["deterministic"] = dict(
        run.counts, size_overhead=run.size_overhead, count_rel_error=run.count_rel_error
    )
    record["report"] = report_lines(run, tracer)
    record["result"] = result
    stem = os.path.join(OUT, f"{a.workload}-seed{a.seed}-trace{a.trace}")
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    if tracer is not None:
        tracer.dump(stem + "-spans.json")
    for line in record["report"]:
        print(line)
    print(
        f"host_spin_ms before={record['host_spin_ms_before']:.3f} "
        f"after={record['host_spin_ms_after']:.3f}  record={stem}.json"
    )
    return result


def run_all(a) -> dict:
    """Each workload in its own process; metrics prefixed by workload."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {w}")
        print("\n".join(lines[:-1]))
        r = json.loads(lines[-1])
        out["correct"] &= r["correct"]
        out["attempted"] += r["attempted"]
        out["failed"] += r["failed"]
        out["metrics"].update({f"{w}.{k}": v for k, v in r["metrics"].items()})
    return out


def main(argv=None) -> None:
    a = _args(argv)
    _require_tree()
    result = run_all(a) if a.workload == "all" else run_one(a)
    for k, m in result["metrics"].items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
