"""Self-tests of the benchmark's own helpers.

    python3 -m pytest perfbench/selftest -q

The repeat test runs every workload twice, traced (about seven
minutes); the others take seconds.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from bench.check import mismatches  # noqa: E402
from bench.stats import percentile, tail  # noqa: E402
from bench.trace import Span, Tracer  # noqa: E402


def test_percentile_refuses_thin_tail():
    xs = list(range(199))
    with pytest.raises(ValueError):
        percentile(xs, 95)
    assert percentile(xs + [199], 95) == pytest.approx(np.percentile(range(200), 95))
    assert percentile(xs[:3], 50) == 1.0  # the median needs no tail
    assert tail(xs)[0] == 90
    assert tail(list(range(39))) is None


def test_self_time_on_hand_built_tree():
    t = Tracer()
    t.spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),  # overlaps a: the union counts once
        Span("a.child", 2.0, 3.0, 1, 1),
        Span("late", 9.0, 12.0, 0, 1),  # clipped to the root's end
    ]
    assert t.self_times() == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])
    assert t.self_time_by_name()["root"] == pytest.approx(4.0)


def test_tracer_nesting_and_requests():
    t = Tracer()
    with t.span("op", 7):
        with t.span("inner"):
            pass
    with t.span("other"):
        pass
    op, inner, other = t.spans
    assert inner.parent == 0 and inner.request == 7
    assert other.parent is None and other.request is None
    assert t.durations("inner", {7}) == [inner.duration]


def test_checker_flags_planted_wrong_answer():
    from repro.workloads import DEFAULT_AGGS

    want = {k: float(i + 1) for i, k in enumerate(DEFAULT_AGGS)}
    assert mismatches(dict(want), want) == []
    key_sum = ("trip_distance", "sum")
    key_count = ("passenger_count", "count")
    key_max = ("trip_distance", "max")
    close = {**want, key_sum: want[key_sum] * (1 + 1e-12)}
    assert mismatches(close, want) == []
    for planted in (
        {key_sum: want[key_sum] * (1 + 1e-6)},
        {key_count: want[key_count] + 1},
        {key_max: None},
    ):
        bad = mismatches({**want, **planted}, want)
        assert [b[0] for b in bad] == list(planted)
    got = dict(want)
    del got[key_count]
    assert mismatches(got, want)[0][0] == key_count


def test_bbox_prefiltered_exact_count_matches_full_scan():
    from bench.inputs import ExactCounts
    from repro.exact import exact_mask
    from repro.synth_data import nyc_taxi_pandas
    from repro.workloads import neighborhoods

    taxi = nyc_taxi_pandas(sf=0.001, seed=3)
    exact = ExactCounts(taxi)
    for poly in neighborhoods(seed=5)[::10]:
        assert exact.count(poly) == int(exact_mask(taxi, poly).sum())


def _run_module():
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(BENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_select_ms_takes_repeated_queries_at_their_best():
    from bench.inputs import Run

    run = Run(setup_s=[1.0], warm_passes=1, repeats=True)
    run.passes = [
        (3, 1.0, [0.001, 0.001, 0.001]),  # warm-up pass: left out
        (3, 1.0, [0.004, 0.020, 0.006]),
        (3, 1.0, [0.008, 0.010, 0.030]),
        (3, 1.0, [0.001, 0.001]),  # an op raised: the pass is left out
    ]
    # Best per query: 4, 10 and 6 ms; their median is 6 ms.
    assert _run_module().end_to_end(run)["select_ms"] == pytest.approx(6.0)
    # Queries that never repeat: every steady sample counts once.
    run.repeats = False
    run.passes.pop()
    assert _run_module().end_to_end(run)["select_ms"] == pytest.approx(9.0)


def test_metric_names_and_units_match_benchmark_json():
    run = _run_module()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


DETERMINISTIC = (
    "covering.cells_per_query",
    "geoblock.headers_per_query",
    "agg_trie.hit_ratio",
    "agg_trie.entries",
    "size_overhead",
    "count_rel_error",
)


@pytest.mark.parametrize("workload", ["polygons_adhoc", "cells_skewed", "spark_batches"])
def test_counts_repeat_for_a_seed(workload):
    """Two traced runs with one seed give the same counts, exactly."""
    seen = []
    for _ in range(2):
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
               "--seed", "5", "--seconds", "1", "--trace", "1"]
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=300)
        path = os.path.join(ROOT, ".bench_out", f"{workload}-seed5-trace1.json")
        with open(path) as f:
            record = json.load(f)
        assert record["result"]["failed"] == 0
        seen.append({k: record["deterministic"][k] for k in DETERMINISTIC})
    assert seen[0] == seen[1]
