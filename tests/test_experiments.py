"""Smoke tests for the experiment harness at tiny scale — every
table/figure function must produce well-formed rows and be reachable
from ``jobs/run.py``, the one entry point that writes ``results/``."""
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import experiments as ex
from repro.core.geoblock import AdaptiveGeoBlock, GeoBlock, normalized_cells

SF = 0.002  # ~24k rides: shapes are meaningless here, structure is not
RUN_PY = Path(__file__).resolve().parents[1] / "jobs" / "run.py"
HELPERS = {"make_setup", "run_cell_workload", "print_table"}


@pytest.fixture
def run_module(monkeypatch):
    monkeypatch.syspath_prepend(str(RUN_PY.parent))  # for ``_session``
    spec = importlib.util.spec_from_file_location("run", RUN_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_timed_runs_calls_round_robin():
    calls = []
    best = ex._timed({"a": lambda: calls.append("a"), "b": lambda: calls.append("b")}, 3)
    assert calls == ["a", "b"] * 3
    assert set(best) == {"a", "b"} and all(t >= 0 for t in best.values())


def test_table1_rows():
    rows = ex.table1_build_times(sf=SF, levels=(13, 15))
    assert [r["level"] for r in rows] == [13, 15]
    assert all(r["sorting_ms"] > 0 and r["building_ms"] > 0 for r in rows)
    assert rows[1]["n_cells"] > rows[0]["n_cells"]


def test_fig1_rows():
    rows = ex.fig1_aggregates(sf=SF, agg_counts=(1, 4), skew_reps=1)
    assert [r["n_aggregates"] for r in rows] == [1, 4]
    for r in rows:
        for eng in ("BinarySearch", "BTree", "BlocksV1", "BlocksV2"):
            assert r[f"{eng}_ms"] > 0


def test_fig6a_rows():
    rows = ex.fig6a_build_times(sf=SF)
    names = {r["algorithm"] for r in rows}
    assert names == {"BinarySearch", "BTree", "Blocks", "PHTree", "RTree"}
    assert all(r["total_s"] >= r["build_s"] for r in rows)


def test_fig6b_rows():
    # Level 14 keeps tuples-per-cell at SF=0.002 comparable to level 17
    # at the benchmark scale; the overhead claim (Blocks below point
    # indexes) is about that density regime, not about near-singleton
    # grids.
    rows = ex.fig6b_size_overhead(sf=SF, level=14)
    by = {r["algorithm"]: r["relative_overhead"] for r in rows}
    assert by["Blocks"] < by["PHTree"]
    assert by["Blocks"] < by["RTree"]


def test_fig6c_rows():
    rows = ex.fig6c_level_overhead(sf=SF, levels=(13, 16))
    assert rows[1]["relative_overhead"] > rows[0]["relative_overhead"]


def test_fig7_rows():
    rows = ex.fig7_selectivity(sf=SF, fractions=(0.01, 0.1), repeats=1)
    assert [r["selectivity"] for r in rows] == [0.01, 0.1]
    for r in rows:
        for k in ("BinarySearch_ms", "BTree_ms", "PHTree_ms", "RTree_ms", "BlocksV1_ms", "BlocksV2_ms"):
            assert r[k] > 0


def test_fig8_rows():
    rows = ex.fig8_level_error(sf=SF, levels=(12, 14))
    assert rows[1]["mean_rel_error"] < rows[0]["mean_rel_error"]
    assert rows[0]["cell_diag_m"] == pytest.approx(4 * rows[1]["cell_diag_m"])
    assert all(r["cover_ms"] > 0 and r["runtime_ms"] > 0 for r in rows)


def test_fig9_rows():
    rows = ex.fig9_skew(sf=SF, skew_reps=(1, 2))
    assert [r["skew_reps"] for r in rows] == [1, 2]
    for r in rows:
        assert all(r[k] > 0 for k in ("V1_base_ms", "V1_skew_ms", "V2_base_ms", "V2_skew_ms"))


def test_fig10_rows():
    rows = ex.fig10_threshold(sf=SF, skew_reps=1, thresholds=(0.05, 1.0))
    assert rows[1]["cached_cells"] >= rows[0]["cached_cells"]


@pytest.fixture(scope="module")
def bench_blocks():
    """V1 at the figures' scale and level, with the base and skewed plans."""
    s = ex.make_setup(ex.BENCH_SF)
    plans = s.cover_all(ex.DEFAULT_LEVEL)
    v1 = GeoBlock.build_from_raw(s.raw, level=ex.DEFAULT_LEVEL)
    return v1, plans, [plans[i] for i in s.skew_indices()]


@pytest.mark.parametrize("threshold", [0.05, 0.5])
def test_v2_plans_fewer_headers_on_skewed_plans(bench_blocks, threshold):
    """The paper's cost model, read off the plans: a V2 trained as in
    Figs. 9/10 combines fewer header rows than V1 over the skewed part
    (at SF 0.1, level 17: 7,996 rows for V1, 2,943 for V2 at both
    thresholds)."""
    v1, plans, skew = bench_blocks
    v2 = AdaptiveGeoBlock.from_block(v1)
    ex._train_v2(v2, plans, skew, 4, threshold)

    def rows(engine):
        return sum(len(engine._plan(normalized_cells(c, v1.level))) for c in skew)

    assert rows(v2) < rows(v1)


def test_distributed_rows(spark):
    rows = ex.distributed_compare(spark, sf=SF, n_polys=4)
    assert rows[0]["method"].startswith("GeoBlocks")
    assert rows[0]["rows_scanned"] < rows[1]["rows_scanned"]
    assert all(r["workload_s"] > 0 for r in rows)


def test_print_table_smoke(capsys):
    ex.print_table([{"a": 1, "b": 2.5}], title="t")
    out = capsys.readouterr().out
    assert "== t ==" in out and "2.5" in out


def test_print_table_empty(capsys):
    ex.print_table([])
    assert "(no rows)" in capsys.readouterr().out


def test_every_experiment_has_an_entry_point(run_module):
    experiments = {
        fn
        for name, fn in inspect.getmembers(ex, inspect.isfunction)
        if fn.__module__ == ex.__name__ and not name.startswith("_") and name not in HELPERS
    }
    assert len(experiments) == 10
    assert {fn for fn, _ in run_module.EXPERIMENTS.values()} == experiments


def test_entry_point_writes_results(run_module, tmp_path):
    names = ["table1_build_times", "fig6b_size_overhead"]
    subprocess.run(
        [sys.executable, str(RUN_PY), *names, "--sf", "0.002"],
        cwd=tmp_path,
        check=True,
        capture_output=True,
        timeout=300,
    )
    headers = {"table1_build_times": "level", "fig6b_size_overhead": "algorithm"}
    assert {p.name for p in (tmp_path / "results").iterdir()} == {f"{n}.txt" for n in names}
    for name in names:
        lines = (tmp_path / "results" / f"{name}.txt").read_text().splitlines()
        assert lines[0] == f"== {run_module.EXPERIMENTS[name][1]} =="
        assert lines[1].split()[0] == headers[name]
        assert len(lines) > 2


@pytest.mark.parametrize("outer", [None, "other"])
def test_session_exports_src_to_workers(monkeypatch, outer):
    """Spark's Python workers inherit PYTHONPATH, not the driver's
    sys.path: importing ``_session`` must put ``src/`` first in it."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    if outer is None:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", outer)
    spec = importlib.util.spec_from_file_location("_session_fresh", RUN_PY.parent / "_session.py")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    first, *rest = os.environ["PYTHONPATH"].split(os.pathsep)
    assert Path(first) == RUN_PY.parents[1] / "src"
    assert rest == ([] if outer is None else [outer])


def test_entry_point_rejects_unknown_name(run_module, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_module.main(["fig99_nope"])
    assert exc.value.code != 0
    assert not (tmp_path / "results").exists()
