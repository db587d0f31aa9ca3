"""Run the paper's experiments, one table or figure per name.

    python jobs/run.py <name> [<name> ...|all] [--sf 0.1]
    spark-submit jobs/run.py distributed_compare

Each experiment's table is printed and written to ``results/<name>.txt``
under the working directory. Only ``distributed_compare`` starts Spark.
"""
import argparse
import os

from _session import get_spark  # also puts src/ on sys.path

from repro import experiments as ex

# name -> (experiment function, table title)
EXPERIMENTS = {
    "table1_build_times": (
        ex.table1_build_times,
        "Table 1 — index build times (ms) at varying GeoBlock levels",
    ),
    "fig1_aggregates": (
        ex.fig1_aggregates,
        "Figure 1 — runtime with increasing number of aggregates",
    ),
    "fig6a_build_time": (
        ex.fig6a_build_times,
        "Figure 6a — build time of GeoBlock and baselines",
    ),
    "fig6b_size_overhead": (
        ex.fig6b_size_overhead,
        "Figure 6b — size overhead of GeoBlock and baselines",
    ),
    "fig6c_level_overhead": (
        ex.fig6c_level_overhead,
        "Figure 6c — level influence on GeoBlock overhead",
    ),
    "fig7_selectivity": (
        ex.fig7_selectivity,
        "Figure 7 — query runtime at varying selectivity",
    ),
    "fig8_level_error": (
        ex.fig8_level_error,
        "Figure 8 — relative error & runtime at varying levels",
    ),
    "fig9_skew": (
        ex.fig9_skew,
        "Figure 9 — query runtime with increasing workload skew",
    ),
    "fig10_threshold": (
        ex.fig10_threshold,
        "Figure 10 — threshold influence on workload runtime",
    ),
    "distributed_compare": (
        ex.distributed_compare,
        "Distributed: pre-aggregated headers vs on-the-fly",
    ),
}


def run(name: str, sf: float) -> list:
    fn, _ = EXPERIMENTS[name]
    if name != "distributed_compare":
        return fn(sf=sf)
    spark = get_spark(f"geoblocks-{name}")
    try:
        return fn(spark, sf=sf)
    finally:
        spark.stop()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="+", choices=[*EXPERIMENTS, "all"], metavar="name")
    parser.add_argument(
        "--sf", type=float, default=ex.BENCH_SF, help="scale factor (default %(default)s)"
    )
    args = parser.parse_args(argv)
    names = list(EXPERIMENTS) if "all" in args.names else args.names
    os.makedirs("results", exist_ok=True)
    for name in names:
        rows = run(name, args.sf)
        title = EXPERIMENTS[name][1]
        with open(os.path.join("results", f"{name}.txt"), "w") as f:
            ex.print_table(rows, title=title, file=f)
        print()
        ex.print_table(rows, title=title)


if __name__ == "__main__":
    main()
