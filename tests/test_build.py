"""Tests for the distributed (Spark DataFrame) GeoBlock build.

The header relation is checked against DuckDB running the equivalent
bitwise groupBy SQL (the oracle), and the collected driver-side GeoBlock
is checked against the pure-numpy build from the same data.
"""
import numpy as np
import pytest

from repro.core.build import (
    build_headers_spark,
    cell_expr,
    geoblock_from_spark,
    with_spatial_key,
)
from repro.core.geoblock import AdaptiveGeoBlock, GeoBlock
from repro.core.raw import extract_and_reorganize
from repro.oracle import assert_equivalent
from repro.s2lite.cell import MAX_LEVEL, parent, point_keys_from_latlon
from repro.synth_data import nyc_taxi, nyc_taxi_pandas
from repro.workloads import VALUE_COLS

SF = 0.002
LEVEL = 14


@pytest.fixture(scope="module")
def taxi_sdf(spark):
    return with_spatial_key(nyc_taxi(spark, sf=SF)).cache()


def test_raw_table_matches_stable_argsort():
    """The chunked, one-allocation extract equals every column reordered by
    a stable argsort of the keys; SF 0.01 spans two encoding chunks."""
    taxi = nyc_taxi_pandas(sf=0.01)
    raw = extract_and_reorganize(taxi, VALUE_COLS)
    lats, lons = taxi["dropoff_lat"].to_numpy(), taxi["dropoff_lon"].to_numpy()
    keys = point_keys_from_latlon(lats, lons)
    order = np.argsort(keys, kind="stable")
    assert np.array_equal(raw.keys, keys[order])
    for c in VALUE_COLS:
        assert raw.columns[c].dtype == np.float64
        assert np.array_equal(raw.columns[c], taxi[c].to_numpy(dtype=np.float64)[order])
    assert np.array_equal(raw.lats, lats[order])
    assert np.array_equal(raw.lons, lons[order])
    owner = raw.keys.base
    assert owner is not None and raw.lats.base is owner and raw.lons.base is owner
    assert all(a.base is owner for a in raw.columns.values())


def test_spatial_key_udf_matches_numpy(taxi_sdf):
    pdf = taxi_sdf.select("dropoff_lat", "dropoff_lon", "skey").toPandas()
    expect = point_keys_from_latlon(
        pdf["dropoff_lat"].to_numpy(), pdf["dropoff_lon"].to_numpy()
    )
    assert np.array_equal(pdf["skey"].to_numpy(), expect)


def test_cell_expr_matches_parent_op(taxi_sdf):
    pdf = taxi_sdf.select(
        "skey", cell_expr("skey", LEVEL).alias("cell")
    ).toPandas()
    expect = parent(pdf["skey"].to_numpy(), LEVEL)
    assert np.array_equal(pdf["cell"].to_numpy(), expect)


def test_cell_expr_rejects_bad_level():
    with pytest.raises(ValueError):
        cell_expr("skey", MAX_LEVEL + 1)


def test_headers_against_duckdb_oracle(taxi_sdf):
    """The groupBy header build must equal the same aggregation done by
    DuckDB over the identical input (catches wrong bitwise cell ids,
    wrong aggregates, wrong ordering)."""
    lsb = 1 << (2 * (MAX_LEVEL - LEVEL))
    hdr = build_headers_spark(taxi_sdf, LEVEL, VALUE_COLS)
    sql = f"""
        SELECT (skey & {-lsb}) | {lsb} AS cell,
               count(*) AS cnt,
               min(dropoff_ts)      AS dropoff_ts__min,
               max(dropoff_ts)      AS dropoff_ts__max,
               sum(dropoff_ts)      AS dropoff_ts__sum,
               min(passenger_count) AS passenger_count__min,
               max(passenger_count) AS passenger_count__max,
               sum(passenger_count) AS passenger_count__sum,
               min(trip_distance)   AS trip_distance__min,
               max(trip_distance)   AS trip_distance__max,
               sum(trip_distance)   AS trip_distance__sum
        FROM taxi GROUP BY cell
    """
    assert_equivalent(hdr, sql, taxi=taxi_sdf)


def test_offsets_are_running_counts(taxi_sdf):
    blk = geoblock_from_spark(taxi_sdf, LEVEL, VALUE_COLS)
    assert (np.diff(blk.keys) > 0).all()
    expect = np.concatenate([[0], np.cumsum(blk.counts)[:-1]])
    assert np.array_equal(blk.offsets, expect)


def test_spark_block_equals_driver_block(taxi_sdf):
    """Distributed build and numpy build must produce the same layout."""
    sblk = geoblock_from_spark(taxi_sdf, LEVEL, VALUE_COLS)
    raw = extract_and_reorganize(nyc_taxi_pandas(sf=SF), VALUE_COLS)
    dblk = GeoBlock.build_from_raw(raw, level=LEVEL)
    assert np.array_equal(sblk.keys, dblk.keys)
    assert np.array_equal(sblk.counts, dblk.counts)
    assert np.array_equal(sblk.offsets, dblk.offsets)
    assert sblk.key_min == dblk.key_min and sblk.key_max == dblk.key_max
    for c in VALUE_COLS:
        for stat in ("min", "max"):
            assert np.allclose(sblk.aggs[c][stat], dblk.aggs[c][stat])
        assert np.allclose(sblk.aggs[c]["sum"], dblk.aggs[c]["sum"], rtol=1e-12)


def test_spark_block_queries_match_driver_block(taxi_sdf):
    from repro.workloads import DEFAULT_AGGS, neighborhoods

    sblk = geoblock_from_spark(taxi_sdf, LEVEL, VALUE_COLS)
    raw = extract_and_reorganize(nyc_taxi_pandas(sf=SF), VALUE_COLS)
    dblk = GeoBlock.build_from_raw(raw, level=LEVEL)
    for poly in neighborhoods()[:10]:
        got = sblk.query_select(poly, DEFAULT_AGGS)
        exp = dblk.query_select(poly, DEFAULT_AGGS)
        for k, v in exp.items():
            assert got[k] == pytest.approx(v, rel=1e-9) if v is not None else got[k] is None


def test_adaptive_block_from_spark(taxi_sdf):
    blk = AdaptiveGeoBlock.from_block(geoblock_from_spark(taxi_sdf, LEVEL, VALUE_COLS))
    assert isinstance(blk, AdaptiveGeoBlock)
    ids, hits = blk.stats.counts()
    assert len(ids) == len(hits) == 0


def test_releveling_from_key_column(taxi_sdf):
    """Building blocks at different levels re-uses the materialized key
    column (pure Catalyst expression, no second UDF pass)."""
    coarse = geoblock_from_spark(taxi_sdf, 10, VALUE_COLS)
    fine = geoblock_from_spark(taxi_sdf, 16, VALUE_COLS)
    assert coarse.n_cells < fine.n_cells
    count = (VALUE_COLS[0], "count")
    assert coarse.block_header[count] == fine.block_header[count]
