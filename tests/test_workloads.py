"""Tests for the synthetic query workloads."""
import numpy as np
import pytest

from repro.exact import exact_mask
from repro.synth_data import NYC_BBOX, nyc_taxi_pandas
from repro.workloads import (
    DEFAULT_AGGS,
    VALUE_COLS,
    neighborhoods,
    selectivity_polygon,
    selectivity_suite,
    skewed_workload,
)


def test_default_aggs_shape():
    # The paper queries 7 aggregates touching every column at least once.
    assert len(DEFAULT_AGGS) == 7
    assert {c for c, _ in DEFAULT_AGGS} == set(VALUE_COLS)


def test_neighborhood_count_and_validity():
    polys = neighborhoods()
    assert 100 <= len(polys) <= 200  # paper: 195 NTAs
    for p in polys:
        assert len(p.vertices) == 4
        assert p.area() > 0


def test_neighborhoods_inside_bbox():
    lon_lo, lat_lo, lon_hi, lat_hi = NYC_BBOX
    for p in neighborhoods():
        assert p.bbox.lon_lo >= lon_lo - 1e-9
        assert p.bbox.lon_hi <= lon_hi + 1e-9
        assert p.bbox.lat_lo >= lat_lo - 1e-9
        assert p.bbox.lat_hi <= lat_hi + 1e-9


def test_neighborhoods_deterministic():
    a = neighborhoods(seed=11)
    b = neighborhoods(seed=11)
    assert all(np.array_equal(x.vertices, y.vertices) for x, y in zip(a, b))


def test_manhattan_polygons_smaller():
    """Polygon size must track data density (fine grid over Manhattan)."""
    polys = neighborhoods()
    areas = sorted(p.area() for p in polys)
    # Fine-grid quads are much smaller than coarse suburb quads.
    assert areas[0] < areas[-1] / 5


def test_base_and_skewed_workloads():
    polys = neighborhoods()
    skew = skewed_workload(polys, frac=0.1, seed=13)
    assert len(skew) == max(1, int(0.1 * len(polys)))
    assert all(any(s is p for p in polys) for s in skew)
    # Deterministic selection.
    assert [id(p) for p in skew] == [id(p) for p in skewed_workload(polys, frac=0.1, seed=13)]


@pytest.mark.parametrize("frac", [0.001, 0.01, 0.1])
def test_selectivity_polygon_hits_target(frac):
    taxi = nyc_taxi_pandas(sf=0.01)
    poly = selectivity_polygon(taxi, frac)
    measured = exact_mask(taxi, poly).mean()
    assert measured == pytest.approx(frac, rel=0.25)


def test_selectivity_suite_monotone():
    taxi = nyc_taxi_pandas(sf=0.005)
    suite = selectivity_suite(taxi, fractions=(0.001, 0.01, 0.1))
    areas = [suite[f].area() for f in (0.001, 0.01, 0.1)]
    assert areas[0] < areas[1] < areas[2]


def test_selectivity_polygon_rejects_bad_fraction():
    taxi = nyc_taxi_pandas(sf=0.001)
    with pytest.raises(ValueError):
        selectivity_polygon(taxi, 1.5)
