"""Distributed GeoBlock construction as a Spark DataFrame pipeline.

The paper builds headers in a single pass over sorted columnar data; the
distributed-dataflow equivalent is a ``groupBy`` over the spatial grid
cell at the block level. Key materialization (lat/lon -> Hilbert point
key) runs as a vectorized pandas UDF; the cell id at any level is then a
pure Catalyst bitwise expression on the key (`(skey & -lsb) | lsb`, the
same lsb arithmetic the paper uses), so re-leveling a block never
re-reads lat/lon.

``geoblock_from_spark`` collects the (small) header relation into the
driver-side :class:`~repro.core.geoblock.GeoBlock` layout used by the
query benchmarks. CellBlock offsets — positions of each cell's first
tuple in the key-sorted raw data — matter only there, so they are a
running sum of the collected counts. The header DataFrame itself feeds
the distributed query path in :mod:`repro.core.spark_query`.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import LongType

from repro.core.geoblock import GeoBlock
from repro.s2lite.cell import MAX_LEVEL, point_keys_from_latlon

__all__ = [
    "with_spatial_key",
    "cell_expr",
    "build_headers_spark",
    "geoblock_from_spark",
]


def with_spatial_key(
    df: DataFrame,
    *,
    lat_col: str = "dropoff_lat",
    lon_col: str = "dropoff_lon",
    key_col: str = "skey",
) -> DataFrame:
    """Materialize the level-30 spatial point key as a column (the paper
    materializes the S2 key "to speed up repeated benchmarking runs")."""

    @F.pandas_udf(LongType())
    def _key(lat: pd.Series, lon: pd.Series) -> pd.Series:
        return pd.Series(point_keys_from_latlon(lat.to_numpy(), lon.to_numpy()))

    return df.withColumn(key_col, _key(F.col(lat_col), F.col(lon_col)))


def cell_expr(key_col: str, level: int):
    """Catalyst expression: cell id at ``level`` containing a point key."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level {level} out of range")
    lsb = 1 << (2 * (MAX_LEVEL - level))
    return F.col(key_col).bitwiseAND(F.lit(-lsb)).bitwiseOR(F.lit(lsb))


def build_headers_spark(
    df: DataFrame, level: int, value_cols, *, key_col: str = "skey"
) -> DataFrame:
    """CellBlock-header relation: one row per non-empty grid cell.

    Schema: ``cell``, ``cnt`` and ``{col}__min/max/sum`` per value
    column, ordered by ``cell`` (empty cells are absent, as in the paper:
    "grid cells covering no tuples are omitted").
    """
    aggs = [F.count(F.lit(1)).alias("cnt")]
    for c in value_cols:
        aggs += [
            F.min(c).alias(f"{c}__min"),
            F.max(c).alias(f"{c}__max"),
            F.sum(c).alias(f"{c}__sum"),
        ]
    return df.groupBy(cell_expr(key_col, level).alias("cell")).agg(*aggs).orderBy("cell")


def geoblock_from_spark(
    df: DataFrame,
    level: int,
    value_cols,
    *,
    key_col: str = "skey",
) -> GeoBlock:
    """Collect the header relation into the driver-side GeoBlock layout."""
    hdr = build_headers_spark(df, level, value_cols, key_col=key_col).toPandas()
    krange = df.agg(
        F.min(key_col).alias("kmin"), F.max(key_col).alias("kmax")
    ).first()
    aggs = {
        c: {
            "min": hdr[f"{c}__min"].to_numpy(dtype="float64"),
            "max": hdr[f"{c}__max"].to_numpy(dtype="float64"),
            "sum": hdr[f"{c}__sum"].to_numpy(dtype="float64"),
        }
        for c in value_cols
    }
    counts = hdr["cnt"].to_numpy(dtype="int64")
    return GeoBlock(
        level=level,
        keys=hdr["cell"].to_numpy(dtype="int64"),
        offsets=np.cumsum(counts) - counts,
        counts=counts,
        aggs=aggs,
        value_cols=list(value_cols),
        key_min=int(krange["kmin"]),
        key_max=int(krange["kmax"]),
    )
