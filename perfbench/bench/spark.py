"""The ``spark_batches`` workload and the Spark calls of a traced run.

The session comes from the program's ``jobs/_session.get_spark``. The
JVM, its temporary files and its Python workers stay inside the
checkout's ``.bench_out/``, and :func:`spark_session` waits for all of
them to end.
"""
import os
import shlex
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext

import numpy as np

from repro.core.build import build_headers_spark, with_spatial_key
from repro.core.spark_query import query_headers_spark, ranges_for_polygons
from repro.workloads import VALUE_COLS

from bench.check import mismatches, spark_row_answer
from bench.cover import coverings
from bench.driver import DriverLayers, _adapt, build_driver
from bench.host import descendants, peak_rss_mib
from bench.inputs import (
    AGGS,
    COUNT_KEY,
    LEVEL,
    WARMUP_PASS,
    ExactCounts,
    Run,
    polygon_pass,
    rides,
)

BATCH = 10  # polygons per Spark job
PREFIX_BATCHES = 5  # batches every run completes; counts come from these
WARMUP_BATCHES = 2  # the first jobs of a session run slower
MASTER = "local[4]"
DRIVER_MEMORY = "2g"


@contextmanager
def spark_session(root: str, out: str):
    """A SparkSession from ``jobs/_session.get_spark`` whose JVM and
    workers are stopped and waited for on exit."""
    tmp = os.path.join(out, "tmp")
    local = os.path.join(out, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    # No hsperfdata files: the launcher and driver JVMs would write them
    # under /tmp.
    java_opts = f"spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYSPARK_PYTHON=sys.executable,
        TMPDIR=tmp,
        SPARK_LOCAL_DIRS=local,
        SPARK_LAUNCHER_OPTS="-XX:-UsePerfData",
        PYSPARK_SUBMIT_ARGS=(
            f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            "--conf spark.ui.showConsoleProgress=false "
            f"--conf {shlex.quote(java_opts)} pyspark-shell"
        ),
    )
    tempfile.tempdir = None  # pick up TMPDIR
    sys.path.insert(0, os.path.join(root, "jobs"))
    from _session import get_spark
    from pyspark import SparkContext

    before = set(descendants())
    spark = get_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    try:
        yield spark
    finally:
        spark.stop()
        gateway = SparkContext._gateway
        gateway.shutdown()
        gateway.proc.stdin.close()
        gateway.proc.wait(timeout=60)
        SparkContext._gateway = SparkContext._jvm = None
        _wait_for_new_descendants(before, timeout=30)


def _wait_for_new_descendants(before: set, timeout: float) -> None:
    """Wait for the processes the session started (the JVM's Python
    workers), killing any still alive after ``timeout`` seconds."""
    def started():
        return set(descendants()) - before

    deadline = time.monotonic() + timeout
    while started() and time.monotonic() < deadline:
        time.sleep(0.2)
    for pid in started():
        try:
            os.kill(pid, 9)
        except ProcessLookupError:
            pass
    for pid in started():
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def spark_setup(spark, taxi, tracer=None):
    """Generated rides -> cached keyed points and cached header relation;
    returns the headers, their row count and the wall seconds."""
    span = (lambda n: nullcontext()) if tracer is None else tracer.span
    t0 = time.perf_counter()
    with span("spark_build.key_cache"):
        points = with_spatial_key(spark.createDataFrame(taxi)).cache()
        points.count()
    with span("spark_build.headers"):
        headers = build_headers_spark(points, LEVEL, VALUE_COLS).cache()
        n = headers.count()
    return headers, n, time.perf_counter() - t0


def spark_batch(spark, headers, polys, tracer=None, request=None, root="op.select") -> list:
    """One op: ranges for a batch of polygons, then the header join
    (traced under a span called ``root``)."""
    if tracer is None:
        return query_headers_spark(headers, ranges_for_polygons(spark, polys, LEVEL), AGGS).collect()
    with tracer.span(root, request):
        with tracer.span("spark_query.ranges"):
            ranges = ranges_for_polygons(spark, polys, LEVEL)
        with tracer.span("spark_query.collect"):
            return query_headers_spark(headers, ranges, AGGS).collect()


def check_batch(run: Run, v1, plans, rows) -> list:
    """Every polygon's row against the driver V1 GeoBlock on the same
    covering (a missing row is an empty answer); returns the counts."""
    by_qid = {r["qid"]: spark_row_answer(r, AGGS) for r in rows}
    empty = v1.query_cells([], AGGS)
    counts = []
    for qid, cells in enumerate(plans):
        got = by_qid.get(qid, empty)
        run.verdict(not mismatches(got, v1.query_cells(cells, AGGS)))
        counts.append(got[COUNT_KEY])
    return counts


def stratified_batches(seed: int, p: int) -> list:
    """Pass ``p`` cut into batches of :data:`BATCH` with the same mix of
    small and large polygons: a seeded choice of whole batches' worth of
    polygons, ranked by area and dealt round robin."""
    hoods = polygon_pass(seed, p)
    n = len(hoods) // BATCH
    g = np.random.default_rng([seed, p])
    kept = g.choice(len(hoods), n * BATCH, replace=False)
    by_area = kept[np.argsort([hoods[i].area() for i in kept], kind="stable")]
    batches = [[hoods[i] for i in by_area[b::n]] for b in range(n)]
    return [batches[b] for b in g.permutation(n)]


def _batches(seed: int):
    p = 0
    while True:
        yield from stratified_batches(seed, p)
        p += 1


def spark_batches(seed: int, seconds: float, tracer=None, *, root: str, out: str) -> Run:
    """Batches of ten fresh polygons through ``ranges_for_polygons`` and
    ``query_headers_spark(...).collect()`` on a cached header relation."""
    run = Run()
    taxi = rides(seed)
    done = []  # (request, polygons, rows)
    with spark_session(root, out) as spark:
        headers, n_headers, setup = spark_setup(spark, taxi, tracer)
        run.setup_s = [setup]
        for polys in stratified_batches(seed, WARMUP_PASS)[:WARMUP_BATCHES]:
            spark_batch(spark, headers, polys)
        req = 0
        t_start = time.perf_counter()
        deadline = t_start + seconds
        for polys in _batches(seed):
            if req >= PREFIX_BATCHES and time.perf_counter() >= deadline:
                break
            rows = None
            end_pass = run.pass_clock()  # a Spark pass is one batch
            try:
                if tracer is not None and req % 2 == 1:
                    rows = spark_batch(spark, headers, polys, tracer, req)
                else:
                    t0 = time.perf_counter()
                    rows = spark_batch(spark, headers, polys)
                    run.sample("select", time.perf_counter() - t0)
            except Exception:
                traceback.print_exc()
            done.append((req, polys, rows))
            run.ops += 1
            end_pass()
            req += 1
        run.window_s = time.perf_counter() - t_start
        run.peak_rss_mib = peak_rss_mib()

    # The driver V1 GeoBlock is the reference (built outside setup_s).
    raw, v1, v2, _ = build_driver(taxi, tracer, reps=1)
    run.verdict(n_headers == v1.n_cells)
    run.size_overhead = v1.header_size_bytes() / raw.size_bytes()
    answered = [(req, polys, rows) for req, polys, rows in done if rows is not None]
    for _ in range(len(done) - len(answered)):
        run.verdict(False)  # the op raised
    flat = [(req, poly) for req, polys, _ in answered for poly in polys]
    cells = iter(coverings([p for _, p in flat], LEVEL, tracer, [r for r, _ in flat]))
    prefix = []  # (polygon, covering, count) of the prefix batches
    for req, polys, rows in answered:
        plans = [next(cells) for _ in polys]
        counts = check_batch(run, v1, plans, rows)
        if req < PREFIX_BATCHES:
            prefix += zip(polys, plans, counts)
    run.count_rel_error = ExactCounts(taxi).mean_rel_error(
        [p for p, _, _ in prefix], [n for _, _, n in prefix]
    )
    if tracer is not None:
        run.counts.update(driver_layers(tracer, v1, v2, [c for _, c, _ in prefix], run))
    return run


def driver_layers(tracer, v1, v2, plans, run: Run) -> dict:
    """The driver GeoBlock layers on the coverings of a Spark run: the
    first half recorded, an AggregateTrie build, then the second half."""
    layers = DriverLayers(tracer, v1, v2)
    half = len(plans) // 2
    for k, cells in enumerate(plans):
        if k == half:
            _adapt(run, v2, tracer, None)
            run.counts["agg_trie.entries"] = len(v2.agg_trie)
            run.counts["agg_trie.bytes"] = v2.agg_trie.size_bytes()
        with tracer.span("geoblock.query_cells", k):
            v2.query_cells(cells, AGGS)
        with tracer.span("geoblock.count_cells", k):
            v2.count_cells(cells)
        layers.probe(cells, k, prefix=True, count_hits=k >= half)
    return layers.counts()


def spark_layers(taxi, polys, v1, run: Run, *, tracer, root: str, out: str) -> None:
    """Spark calls beside a driver workload's traced run: the set-up and
    three batches of the run's own polygons, each row checked."""
    polys = polys[: 3 * BATCH]
    plans = coverings(polys, LEVEL)
    with spark_session(root, out) as spark:
        headers, _, _ = spark_setup(spark, taxi, tracer)
        for b in range(3):
            part = slice(b * BATCH, (b + 1) * BATCH)
            rows = spark_batch(spark, headers, polys[part], tracer, b, root="spark_layers.batch")
            check_batch(run, v1, plans[part], rows)
