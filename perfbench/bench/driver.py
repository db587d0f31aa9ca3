"""The driver-side workloads: ``polygons_adhoc`` and ``cells_skewed``.

Both are closed loops with one client over a GeoBlock at level 17. The
untraced run times the public calls only. A traced run traces half the
requests, chosen so that both halves see the same mix of inputs: the
traced and untraced latencies of one process give the tracing overhead,
and the layer calls beside each traced request (:class:`DriverLayers`)
give the per-layer metrics.
"""
import time
import traceback
from contextlib import nullcontext

import numpy as np

from repro.baselines.binary_search import BinarySearchEngine
from repro.core.geoblock import AdaptiveGeoBlock, GeoBlock
from repro.core.raw import extract_and_reorganize
from repro.core.stats_trie import StatsTrie
from repro.workloads import VALUE_COLS, skewed_workload

from bench.check import mismatches
from bench.cover import coverings
from bench.host import peak_rss_mib
from bench.inputs import (
    AGGS,
    COUNT_KEY,
    LEVEL,
    THRESHOLD,
    WARMUP_PASS,
    ExactCounts,
    Run,
    headers_in,
    polygon_pass,
    rides,
)

SETUP_REPS = 3
ADHOC_PASS_SIZE = 30  # polygons per ad-hoc pass (a full one outlasts a run)
PREFIX_PASSES = 2  # passes every run completes; counts come from these
SKEW_REPS = 4


def _span(tracer, name, request=None):
    return nullcontext() if tracer is None else tracer.span(name, request)


def build_driver(taxi, tracer=None, reps: int = SETUP_REPS):
    """Generated rides -> queryable V1 and V2 GeoBlocks, ``reps`` times;
    returns the last build and every build's wall seconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        with _span(tracer, "raw.extract_sort"):
            raw = extract_and_reorganize(taxi, VALUE_COLS)
        with _span(tracer, "geoblock.build"):
            v1 = GeoBlock.build_from_raw(raw, LEVEL)
        v2 = AdaptiveGeoBlock.from_block(v1)
        times.append(time.perf_counter() - t0)
    return raw, v1, v2, times


class DriverLayers:
    """Layer calls and counts beside a traced request: the V1 engine and a
    scratch StatsTrie on the same covering, CellBlock headers inside the
    covering, and the covering cells the AggregateTrie answers."""

    def __init__(self, tracer, v1, v2):
        self.tracer, self.v1, self.v2 = tracer, v1, v2
        self.cells = []
        self.headers = []
        self.hits = 0
        self.probed = 0

    def probe(self, cells, request, *, prefix: bool, count_hits: bool) -> None:
        with self.tracer.span("geoblock.v1_query_cells", request):
            self.v1.query_cells(cells, AGGS)
        scratch = StatsTrie(self.v2.key_min, self.v2.key_max)
        with self.tracer.span("stats_trie.record_many", request):
            scratch.record_many(cells)
        if prefix:
            self.cells.append(len(cells))
            self.headers.append(headers_in(self.v2.keys, cells))
        trie = self.v2.agg_trie
        if count_hits and trie is not None:
            self.hits += sum(trie.get(c) is not None for c in cells)
            self.probed += len(cells)

    def counts(self) -> dict:
        return {
            "covering.cells_per_query": sum(self.cells) / len(self.cells),
            "geoblock.headers_per_query": sum(self.headers) / len(self.headers),
            "agg_trie.hit_ratio": self.hits / self.probed if self.probed else 0.0,
        }


def _trie_counts(run: Run, raw, v2) -> None:
    """Size of the first AggregateTrie a run builds."""
    run.counts["agg_trie.entries"] = len(v2.agg_trie)
    run.counts["agg_trie.bytes"] = v2.agg_trie.size_bytes()
    run.size_overhead = (v2.header_size_bytes() + v2.agg_trie.size_bytes()) / raw.size_bytes()


def _adapt(run: Run, v2, tracer, kind: str | None) -> None:
    """Rebuild the AggregateTrie from the StatsTrie (timed as ``kind``)."""
    t0 = time.perf_counter()
    with _span(tracer, "agg_trie.build"):
        v2.build_aggregate_trie(THRESHOLD)
    if kind is not None:
        run.sample(kind, time.perf_counter() - t0)


def _passes(run: Run, seconds: float):
    """Pass numbers 0, 1, ... until ``seconds`` have passed and the prefix
    passes are done. A pass is never cut, so every run sees whole passes;
    each one is recorded in ``run.passes``."""
    deadline = time.perf_counter() + seconds
    p = 0
    while p < PREFIX_PASSES or time.perf_counter() < deadline:
        end = run.pass_clock()
        yield p
        end()
        p += 1


def _adhoc_pass(seed: int, p: int) -> list:
    """``(stratum, polygon)``: one polygon from each of
    :data:`ADHOC_PASS_SIZE` equal area strata of a fresh ``neighborhoods``
    draw, in seeded order. Every pass has the same mix of small
    (Manhattan) and large (suburb) polygons, and so do its odd and even
    strata."""
    hoods = polygon_pass(seed, p)
    g = np.random.default_rng([seed, p])
    by_area = np.argsort([h.area() for h in hoods], kind="stable")
    edges = np.linspace(0, len(hoods), ADHOC_PASS_SIZE + 1).astype(int)
    picks = [
        (k, hoods[by_area[g.integers(lo, hi)]])
        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))
    ]
    return [picks[i] for i in g.permutation(len(picks))]


def polygons_adhoc(seed: int, seconds: float, tracer=None, spark_layers=None) -> Run:
    """``AdaptiveGeoBlock.query_select`` on polygons never seen before;
    the AggregateTrie is rebuilt after every pass. A traced run then
    calls ``spark_layers(taxi, polygons, v1, run)``."""
    run = Run(warm_passes=1)
    taxi = rides(seed)
    raw, v1, v2, run.setup_s = build_driver(taxi, tracer)
    for poly in polygon_pass(seed, WARMUP_PASS)[:3]:
        v1.query_select(poly, AGGS)
    layers = DriverLayers(tracer, v1, v2) if tracer else None
    answers = []  # (pass, polygon, answer or None)
    req = 0
    t_start = time.perf_counter()
    for p in _passes(run, seconds):
        for stratum, poly in _adhoc_pass(seed, p):
            ans = None
            try:
                if tracer is not None and stratum % 2 == 1:
                    with tracer.span("op.select", req):
                        with tracer.span("covering.cover"):
                            cells = v2.cover(poly)
                        with tracer.span("geoblock.query_cells"):
                            ans = v2.query_cells(cells, AGGS)
                    with tracer.span("geoblock.count_cells", req):
                        v2.count_cells(cells)
                    layers.probe(cells, req, prefix=p < PREFIX_PASSES, count_hits=p == 1)
                else:
                    t0 = time.perf_counter()
                    ans = v2.query_select(poly, AGGS)
                    run.sample("select", time.perf_counter() - t0)
            except Exception:
                traceback.print_exc()
            answers.append((p, poly, ans))
            run.ops += 1
            req += 1
        _adapt(run, v2, tracer, "rebuild")
        if p == 0:
            _trie_counts(run, raw, v2)
    run.window_s = time.perf_counter() - t_start
    run.peak_rss_mib = peak_rss_mib()

    # Every answer against the BinarySearch baseline on the same covering.
    bs = BinarySearchEngine(raw, LEVEL)
    plans = coverings([poly for _, poly, _ in answers], LEVEL)
    for (_, _, ans), cells in zip(answers, plans):
        run.verdict(ans is not None and not mismatches(ans, bs.query_cells(cells, AGGS)))
    prefix = [(poly, ans[COUNT_KEY]) for p, poly, ans in answers if p < PREFIX_PASSES and ans]
    run.count_rel_error = ExactCounts(taxi).mean_rel_error(*zip(*prefix))
    if layers:
        run.counts.update(layers.counts())
        spark_layers(taxi, [poly for _, poly, _ in answers], v1, run)
    return run


def cells_skewed(seed: int, seconds: float, tracer=None, spark_layers=None) -> Run:
    """Precomputed coverings; each pass is the base set once then the
    skewed 10% subset x4, every query a SELECT then a COUNT, and the pass
    ends with an AggregateTrie build (the ``adapt`` op). A traced run
    then calls ``spark_layers(taxi, polygons, v1, run)``."""
    run = Run(warm_passes=1, repeats=True)
    taxi = rides(seed)
    raw, v1, v2, run.setup_s = build_driver(taxi, tracer)
    base = polygon_pass(seed, 0)
    pos = {id(p): i for i, p in enumerate(base)}
    skew = [pos[id(p)] for p in skewed_workload(base, seed=seed)]
    plans = coverings(base, LEVEL)
    if tracer is not None:  # time the covering layer on the hot polygons
        coverings([base[j] for j in skew], LEVEL, tracer)
    bs = BinarySearchEngine(raw, LEVEL)
    want = [bs.query_cells(cells, AGGS) for cells in plans]
    for cells in plans:  # warm-up pass on the V1 block
        v1.query_cells(cells, AGGS)
        v1.count_cells(cells)
    sequence = list(range(len(base))) + skew * SKEW_REPS
    layers = DriverLayers(tracer, v1, v2) if tracer else None
    selects, counts = [], []  # (plan index, answer or None)
    req = 0
    t_start = time.perf_counter()
    for p in _passes(run, seconds):
        for k, j in enumerate(sequence):
            cells = plans[j]
            ans = n = None
            try:
                if tracer is not None and (k + p) % 2 == 1:
                    with tracer.span("op.select", req), tracer.span("geoblock.query_cells"):
                        ans = v2.query_cells(cells, AGGS)
                    with tracer.span("op.count", req), tracer.span("geoblock.count_cells"):
                        n = v2.count_cells(cells)
                    layers.probe(cells, req, prefix=p < PREFIX_PASSES, count_hits=p == 1)
                else:
                    t0 = time.perf_counter()
                    ans = v2.query_cells(cells, AGGS)
                    t1 = time.perf_counter()
                    n = v2.count_cells(cells)
                    run.sample("select", t1 - t0)
                    run.sample("count", time.perf_counter() - t1)
            except Exception:
                traceback.print_exc()
            selects.append((j, ans))
            counts.append((j, n))
            run.ops += 2
            req += 1
        _adapt(run, v2, tracer, "adapt")
        run.ops += 1
        if p == 0:
            _trie_counts(run, raw, v2)
    run.window_s = time.perf_counter() - t_start
    run.peak_rss_mib = peak_rss_mib()

    for j, ans in selects:
        run.verdict(ans is not None and not mismatches(ans, want[j]))
    for j, n in counts:
        run.verdict(n == want[j][COUNT_KEY])
    base_counts = [n for _, n in counts[: len(base)]]
    run.count_rel_error = ExactCounts(taxi).mean_rel_error(base, base_counts)
    if layers:
        run.counts.update(layers.counts())
        spark_layers(taxi, base, v1, run)
    return run
