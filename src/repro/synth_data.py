"""Synthetic NYC taxi drop-offs at a configurable scale factor.

SF=1.0 is the paper's 12 M rides. Tests use SF<=0.01; benchmarks use
SF~=0.1. The generator is deterministic in ``seed`` so the DuckDB oracle
sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

# The paper evaluates on 12 M NYC yellow-cab trips (Jan-Mar 2015, TLC open
# data), using drop-off location as the spatial dimension plus drop-off
# time, passenger count, and trip distance. That dataset is not available
# offline, so we synthesize a drop-in replacement with the same *structure*:
# heavy spatial skew toward Manhattan / the airports (which drives every
# experiment in the paper) and the same column set. SF=1.0 ~ the paper's
# 12 M rows; tests use SF=0.01 (~120 k), benchmarks SF=0.1 (~1.2 M).

_N_TAXI_PER_SF = 12_000_000

# NYC bounding box used for outlier clipping (the paper "cleared the
# dataset of obvious spatial outliers").
NYC_BBOX = (-74.27, 40.48, -73.68, 40.93)  # lon_lo, lat_lo, lon_hi, lat_hi

# Drop-off hotspots: (lon, lat, sigma_deg, weight). Weights follow the
# skew the paper describes ("focus lies mostly on Manhattan, Brooklyn,
# and the airport regions, ignoring most suburbs").
NYC_HOTSPOTS = [
    (-73.985, 40.750, 0.012, 0.40),  # Midtown Manhattan
    (-74.005, 40.715, 0.010, 0.15),  # Downtown Manhattan
    (-73.950, 40.780, 0.012, 0.10),  # Upper East/West Side
    (-73.950, 40.680, 0.025, 0.15),  # Brooklyn
    (-73.780, 40.645, 0.008, 0.05),  # JFK
    (-73.873, 40.774, 0.006, 0.05),  # LaGuardia
]
_NYC_BACKGROUND_W = 0.10  # uniform over the bbox (suburbs)


def nyc_taxi_pandas(*, sf: float = 0.01, seed: int = 7) -> pd.DataFrame:
    """Synthetic NYC yellow-cab drop-off records as a pandas frame.

    Columns: ``dropoff_lon``, ``dropoff_lat`` (degrees, inside
    ``NYC_BBOX``), ``dropoff_ts`` (int64 epoch seconds, Jan-Mar 2015),
    ``passenger_count`` (int64, 1-6), ``trip_distance`` (float64 miles,
    lognormal). Deterministic in ``seed``.
    """
    n = max(1, int(_N_TAXI_PER_SF * sf))
    g = np.random.default_rng(seed)
    weights = np.array([w for *_, w in NYC_HOTSPOTS] + [_NYC_BACKGROUND_W])
    weights = weights / weights.sum()
    comp = g.choice(len(weights), size=n, p=weights)
    lon = np.empty(n)
    lat = np.empty(n)
    for i, (clon, clat, sigma, _w) in enumerate(NYC_HOTSPOTS):
        m = comp == i
        k = int(m.sum())
        lon[m] = g.normal(clon, sigma, k)
        lat[m] = g.normal(clat, sigma * 0.75, k)
    m = comp == len(NYC_HOTSPOTS)
    k = int(m.sum())
    lon_lo, lat_lo, lon_hi, lat_hi = NYC_BBOX
    lon[m] = g.uniform(lon_lo, lon_hi, k)
    lat[m] = g.uniform(lat_lo, lat_hi, k)
    # Outlier clipping = the paper's spatial-outlier removal.
    lon = np.clip(lon, lon_lo, lon_hi)
    lat = np.clip(lat, lat_lo, lat_hi)
    t0 = int(pd.Timestamp("2015-01-01").timestamp())
    t1 = int(pd.Timestamp("2015-04-01").timestamp())
    return pd.DataFrame(
        {
            "dropoff_lon": lon,
            "dropoff_lat": lat,
            "dropoff_ts": g.integers(t0, t1, n),
            "passenger_count": g.integers(1, 7, n),
            "trip_distance": np.round(g.lognormal(0.7, 0.8, n), 2),
        }
    )


def nyc_taxi(spark: SparkSession, *, sf: float = 0.01, seed: int = 7) -> DataFrame:
    """Spark DataFrame version of :func:`nyc_taxi_pandas`."""
    return spark.createDataFrame(nyc_taxi_pandas(sf=sf, seed=seed))

