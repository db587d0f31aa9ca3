"""Distributed polygon-aggregation queries as Catalyst range joins.

This is the repro target's `distributed_dataflow` path: a query polygon
becomes a small relation of disjoint descendant-key ranges (one per
covering cell); answering the query is a broadcast range join of that
relation against either

- the **CellBlock header relation** (GeoBlocks: combine pre-aggregated
  cell rows — touches at most one row per occupied grid cell), or
- the **raw point relation** (on-the-fly aggregation: touches every
  qualifying point).

Both produce one output row per query with identical column aliases
(``{col}_{op}``), so results are directly comparable to each other and
to the DuckDB oracle. Covering cells are disjoint by construction, so
every header/point row matches at most one range of a given query.

The ranges relation is explicitly broadcast: the session fixture turns
automatic broadcast off to exercise shuffle paths, but a tiny ranges
table against a large fact table is exactly the case where a broadcast
nested-loop range join is the intended plan.
"""
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.build import KEY_COL
from repro.s2lite.cell import range_max, range_min
from repro.s2lite.covering import exterior_covering

__all__ = [
    "ranges_for_polygons",
    "query_headers_spark",
    "query_points_spark",
    "agg_aliases",
]


def agg_aliases(specs):
    """Deterministic output column names, shared by every query path."""
    return [f"{col}_{op}" for col, op in specs]


def ranges_for_polygons(
    spark: SparkSession, polygons, level: int
) -> DataFrame:
    """Relation ``(qid, rmin, rmax)``: descendant point-key ranges of the
    exterior-covering cells of each polygon at ``level``."""
    rows = []
    for qid, poly in enumerate(polygons):
        for cid in exterior_covering(poly, level):
            rows.append((qid, int(range_min(cid)), int(range_max(cid))))
    return spark.createDataFrame(rows, "qid INT, rmin LONG, rmax LONG")


def _range_join(fact: DataFrame, ranges: DataFrame, key: str) -> DataFrame:
    cond = (F.col(key) >= F.col("rmin")) & (F.col(key) <= F.col("rmax"))
    return fact.join(F.broadcast(ranges), cond)


def query_headers_spark(headers: DataFrame, ranges: DataFrame, specs) -> DataFrame:
    """GeoBlocks distributed SELECT: combine pre-aggregated CellBlock
    rows per query. Returns one row per qid (queries whose covering
    matches no occupied cell produce no row, like an SQL GROUP BY)."""
    aggs = []
    for col, op in specs:
        name = f"{col}_{op}"
        if op == "count":
            aggs.append(F.sum("cnt").alias(name))
        elif op == "sum":
            aggs.append(F.sum(f"{col}__sum").alias(name))
        elif op == "min":
            aggs.append(F.min(f"{col}__min").alias(name))
        elif op == "max":
            aggs.append(F.max(f"{col}__max").alias(name))
        elif op == "avg":
            aggs.append(
                (F.sum(f"{col}__sum") / F.sum("cnt")).alias(name)
            )
        else:
            raise ValueError(f"unknown aggregate op {op!r}")
    return (
        _range_join(headers, ranges, "cell").groupBy("qid").agg(*aggs).orderBy("qid")
    )


def query_points_spark(points: DataFrame, ranges: DataFrame, specs) -> DataFrame:
    """On-the-fly distributed aggregation over raw points (the baseline
    the paper's Figure 1 calls "computing aggregates on the fly")."""
    aggs = []
    for col, op in specs:
        name = f"{col}_{op}"
        if op == "count":
            aggs.append(F.count(F.lit(1)).alias(name))
        elif op == "avg":
            aggs.append(F.avg(col).alias(name))
        else:
            aggs.append(getattr(F, op)(col).alias(name))
    return (
        _range_join(points, ranges, KEY_COL).groupBy("qid").agg(*aggs).orderBy("qid")
    )
