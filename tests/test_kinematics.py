from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from trackstitch.kinematics import displace, ground_distance_m, turning_cos
from trackstitch.model import AisPoint, CbtrConfig, TrackDataset

from conftest import link_of

CFG = CbtrConfig()


def test_displace_north():
    lat, lon = displace(37.0, -76.0, 10.0, 0.0, 100.0)
    assert lat - 37.0 == pytest.approx(0.004629625629949604, rel=1e-12)
    assert lon == -76.0  # sin(0) is exactly zero


def test_displace_east_rate_at_37():
    lat, lon = displace(37.0, -76.0, 1.0, 90.0, 100.0)
    assert lon + 76.0 == pytest.approx(5.7865044603352625e-06 * 100, rel=1e-12)
    assert abs(lat - 37.0) < 1e-14


@given(st.floats(min_value=20.0, max_value=45.0),
       st.floats(min_value=-80.0, max_value=-70.0),
       st.floats(min_value=0.0, max_value=8.0),
       st.floats(min_value=0.0, max_value=359.99),
       st.floats(min_value=0.0, max_value=5.0))
def test_displace_short_hops_reverse(lat, lon, sog, cog, dt):
    """Out and back lands where it started, to well under report noise."""
    mid_lat, mid_lon = displace(lat, lon, sog, cog, dt)
    back_lat, back_lon = displace(mid_lat, mid_lon, sog, cog, -dt)
    assert back_lat == pytest.approx(lat, abs=1e-9)
    assert back_lon == pytest.approx(lon, abs=1e-9)


_REPORTS = st.lists(
    st.tuples(st.floats(min_value=-80.0, max_value=80.0),
              st.floats(min_value=-180.0, max_value=180.0),
              st.just(0.0) | st.floats(min_value=0.0, max_value=40.0),
              st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
              st.integers(min_value=-5000, max_value=5000)),
    min_size=1, max_size=40)


@settings(deadline=None)
@given(_REPORTS, _REPORTS)
def test_array_forms_match_the_scalar_oracle(starts, ends):
    """Over arrays, displace is reference.advance bit for bit, and
    ground_distance_m is reference.ground_m to within np.hypot's last ulp."""
    lat, lon, sog, cog, dt = (np.array(col) for col in zip(*starts))
    got_lat, got_lon = displace(lat, lon, sog, cog, dt)
    for k, report in enumerate(starts):
        assert (got_lat[k], got_lon[k]) == reference.advance(*report)

    pairs = list(zip(starts, ends))
    lat1, lon1, lat2, lon2 = (np.array(col) for col in
                              zip(*((a[0], a[1], b[0], b[1]) for a, b in pairs)))
    got = ground_distance_m(lat1, lon1, lat2, lon2)
    for k, (a, b) in enumerate(pairs):
        expected = reference.ground_m(a[0], a[1], b[0], b[1])
        assert abs(got[k] - expected) <= np.spacing(expected)


def test_turning_cos_straight_and_reverse():
    ds = TrackDataset.from_points([
        AisPoint(0, 37.0, -76.0, 5.0, 90.0),
        AisPoint(60, 37.0, -75.99, 5.0, 90.0),
        AisPoint(120, 37.0, -75.98, 5.0, 90.0),
        AisPoint(120, 37.0, -76.0, 5.0, 270.0),
        AisPoint(180, 37.004, -75.985, 5.0, 30.0),
    ])
    bend = turning_cos(ds, np.array([0, 0, 1]), np.array([1, 1, 2]), np.array([2, 3, 4]), 1e-5)
    assert bend[0] == pytest.approx(1.0, abs=1e-12)
    assert bend[1] < 0.0
    # a bend to the north-east: latitude steps count scaled by ds.alpha
    a, b, c = (reference.pts_of(ds)[k] for k in (1, 2, 4))
    u = (1e-5 * (b[0] - a[0]), ds.alpha * (b[1] - a[1]), b[2] - a[2])
    v = (1e-5 * (c[0] - b[0]), ds.alpha * (c[1] - b[1]), c[2] - b[2])
    assert bend[2] == reference.cos3(u, v)


def test_ground_distance_lat_degree():
    d = ground_distance_m(37.0, -76.0, 37.001, -76.0)
    assert d == pytest.approx(111.12, abs=1e-6)


def test_ground_distance_lon_at_37():
    d = ground_distance_m(37.0, -76.0, 37.0, -76.0 + 1e-4)
    assert d == pytest.approx(8.890410497846464, abs=1e-6)


# The pair screening has one implementation, the link kernel.  These tests
# score two-report datasets through link_of, which reads build_links, and
# check each result against the scalar oracle.

def _link(xi, xj, cfg=CFG):
    """The link from xi to xj, checked against reference.pair_score."""
    ds = TrackDataset.from_points([xi, xj])
    got = link_of(ds, 0, cfg)
    pts = reference.pts_of(ds)
    expected = reference.pair_score(pts[0], pts[1], ds.alpha, cfg)
    if expected is None:
        assert got is None
        return None
    j, error, mode = got
    assert j == 1
    assert mode == expected[1]
    assert error == pytest.approx(expected[0], rel=1e-12)
    return error, mode


def test_pair_mode_boundary():
    a = AisPoint(0, 37.0, -76.0, 1.5, 0.0)
    assert _link(a, AisPoint(1, 37.0, -76.0, 1.5, 0.0))[1] == "steady"
    assert _link(a, AisPoint(1, 37.0, -76.0, 1.51, 0.0))[1] == "moving"


def test_moving_error_perfect_prediction():
    xi = AisPoint(0, 37.0, -76.0, 10.0, 0.0)
    lat, lon = displace(37.0, -76.0, 10.0, 0.0, 100)
    xj = AisPoint(100, lat, lon, 10.0, 0.0)
    error, mode = _link(xi, xj)
    tm = CFG.time_weight_moving * 100
    # the forward part is exactly tm^2; the rewind crosses a latitude
    # change, so the backward part and the score are only nearly tm^2
    assert mode == "moving"
    assert error == pytest.approx(tm * tm, rel=1e-9)
    # the heading agrees with the pair's direction: the link survives a
    # gate that only a cosine of about 1 passes
    assert _link(xi, xj, replace(CFG, cos_moving_min=1.0 - 1e-9)) is not None


def test_moving_error_requires_forward_time():
    xi = AisPoint(100, 37.0, -76.0, 10.0, 0.0)
    xj = AisPoint(100, 37.01, -76.0, 10.0, 0.0)
    ds = TrackDataset.from_points([xi, xj])
    assert link_of(ds, 0, CFG) is None
    assert link_of(ds, 1, CFG) is None


def test_moving_error_penalizes_behind():
    """A candidate opposite the reported course scores a negative cosine."""
    xi = AisPoint(0, 37.0, -76.0, 10.0, 0.0)
    xj = AisPoint(100, 36.9954, -76.0, 10.0, 0.0)  # south of xi, course north
    assert _link(xi, xj, replace(CFG, cos_moving_min=-1.0)) is not None
    assert _link(xi, xj, replace(CFG, cos_moving_min=0.0)) is None


def test_steady_error_colocated():
    xi = AisPoint(0, 37.0, -76.0, 0.5, 0.0)
    xj = AisPoint(500, 37.0, -76.0, 0.5, 0.0)
    error, mode = _link(xi, xj)
    assert mode == "steady"
    assert error == pytest.approx((CFG.time_weight_steady * 500) ** 2, rel=1e-12)
    # the pair lies on the time axis: the link survives a gate of exactly 1
    assert _link(xi, xj, replace(CFG, cos_steady_min=1.0)) is not None


def test_steady_error_displaced():
    xi = AisPoint(0, 37.0, -76.0, 0.5, 0.0)
    xj = AisPoint(100, 37.0, -76.0 + 2e-3, 0.5, 0.0)
    # the cosine to the time axis is 1/sqrt(5) = 0.4472..., below the default gate
    assert _link(xi, xj) is None
    assert _link(xi, xj, replace(CFG, cos_steady_min=0.448)) is None
    error, mode = _link(xi, xj, replace(CFG, cos_steady_min=0.447))
    assert mode == "steady"
    assert error == pytest.approx((2e-7) ** 2 + (2e-3) ** 2, rel=1e-9)
