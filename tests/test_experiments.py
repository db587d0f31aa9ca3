"""Smoke tests for the experiment harness at tiny scale — every
table/figure function must produce well-formed rows and be reachable
from ``jobs/run.py``, the one entry point that writes ``results/``."""
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from repro import experiments as ex

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


def test_fig9_rows():
    rows = ex.fig9_skew(sf=SF, skew_reps=(1, 2))
    assert [r["skew_reps"] for r in rows] == [1, 2]
    for r in rows:
        assert all(r[k] > 0 for k in ("V1_base_ms", "V1_skew_ms", "V2_base_ms", "V2_skew_ms"))


def test_fig10_rows():
    rows = ex.fig10_threshold(sf=SF, skew_reps=1, thresholds=(0.05, 1.0))
    assert rows[1]["cached_cells"] >= rows[0]["cached_cells"]


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


def test_entry_point_rejects_unknown_name(run_module, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_module.main(["fig99_nope"])
    assert exc.value.code != 0
    assert not (tmp_path / "results").exists()
