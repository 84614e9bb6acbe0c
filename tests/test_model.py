import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trackstitch.model import (
    AisPoint,
    CbtrConfig,
    ClusterAssignment,
    LinkSet,
    TrackDataset,
    label_groups,
    latitude_scale,
)


def test_point_validation():
    AisPoint(0, 37.0, -76.0, 5.0, 359.9)
    with pytest.raises(ValueError):
        AisPoint(-1, 37.0, -76.0, 5.0, 0.0)
    with pytest.raises(ValueError):
        AisPoint(0, 91.0, -76.0, 5.0, 0.0)
    with pytest.raises(ValueError):
        AisPoint(0, 37.0, -181.0, 5.0, 0.0)
    with pytest.raises(ValueError):
        AisPoint(0, 37.0, -76.0, -0.1, 0.0)
    with pytest.raises(ValueError, match="sog must be finite, got inf"):
        AisPoint(0, 37.0, -76.0, math.inf, 0.0)
    with pytest.raises(ValueError):
        AisPoint(0, 37.0, -76.0, 5.0, 360.0)


def test_latitude_scale_at_equator():
    assert latitude_scale([0.0]) == pytest.approx(0.9975134447464292, abs=1e-15)


def test_latitude_scale_at_37():
    assert latitude_scale([37.0]) == pytest.approx(1.2490221536572539, abs=1e-12)


def test_latitude_scale_uses_mean():
    assert latitude_scale([36.0, 38.0]) == latitude_scale([37.0, 37.0])


def test_latitude_scale_rejects_empty_and_pole():
    with pytest.raises(ValueError):
        latitude_scale([])
    with pytest.raises(ValueError):
        latitude_scale(np.array([]))
    with pytest.raises(ValueError):
        latitude_scale([90.0])


@given(st.lists(st.floats(min_value=-60.0, max_value=60.0), min_size=1, max_size=40),
       st.randoms())
def test_latitude_scale_order_independent(lats, rng):
    shuffled = list(lats)
    rng.shuffle(shuffled)
    assert latitude_scale(shuffled) == latitude_scale(lats)


@given(st.lists(st.floats(min_value=-89.0, max_value=89.0), min_size=1, max_size=40))
def test_latitude_scale_of_an_array_equals_its_list(lats):
    array = np.array(lats)
    assert latitude_scale(array) == latitude_scale(memoryview(array)) == latitude_scale(lats)


def _points():
    return [
        AisPoint(30, 37.01, -76.1, 4.0, 90.0, "b"),
        AisPoint(0, 37.00, -76.2, 5.0, 0.0, "a"),
        AisPoint(30, 37.02, -76.3, 6.0, 180.0, "c"),
    ]


def test_dataset_sorts_by_time_stably():
    ds = TrackDataset.from_points(_points())
    assert list(ds.t) == [0, 30, 30]
    # the two t=30 points keep their input order
    assert ds.vids == ("a", "b", "c")
    assert ds.point(1).lat == 37.01


def test_dataset_arrays_read_only():
    ds = TrackDataset.from_points(_points())
    with pytest.raises(ValueError):
        ds.lat[0] = 0.0
    shifted = replace(ds, t=ds.t + 5)
    with pytest.raises(ValueError):
        shifted.t[0] = 0


def test_dataset_alpha_matches_scale():
    ds = TrackDataset.from_points(_points())
    assert ds.alpha == latitude_scale([p.lat for p in _points()])


def test_dataset_vids_all_or_none():
    mixed = [AisPoint(0, 37.0, -76.0, 5.0, 0.0, "a"),
             AisPoint(1, 37.0, -76.0, 5.0, 0.0)]
    with pytest.raises(ValueError):
        TrackDataset.from_points(mixed)
    unlabeled = TrackDataset.from_points([AisPoint(0, 37.0, -76.0, 5.0, 0.0)])
    assert not unlabeled.has_vids()
    assert unlabeled.vids is None


@pytest.mark.parametrize("sog", [-0.5, math.nan])
def test_dataset_rejects_bad_sog(sog):
    ds = TrackDataset.from_points(_points())
    with pytest.raises(ValueError, match="sog"):
        replace(ds, sog=np.array([4.0, sog, 6.0]))


@pytest.mark.parametrize("column, value, message", [
    ("lat", np.nan, "report 1: lat out of range: nan"),
    ("lat", 90.5, "report 1: lat out of range: 90.5"),
    ("lon", -np.inf, "report 1: lon out of range: -inf"),
    ("lon", np.nan, "report 1: lon out of range: nan"),
    ("sog", np.inf, "report 1: sog must be finite, got inf"),
    ("cog", np.nan, "report 1: cog must be in [0, 360), got nan"),
    ("cog", 360.0, "report 1: cog must be in [0, 360), got 360.0"),
])
def test_dataset_rejects_bad_columns(column, value, message):
    ds = TrackDataset.from_points(_points())
    values = getattr(ds, column).copy()
    values[1] = value
    with pytest.raises(ValueError) as exc:
        replace(ds, **{column: values})
    assert str(exc.value) == message


def test_dataset_names_the_first_bad_report():
    ds = TrackDataset.from_points(_points())
    with pytest.raises(ValueError) as exc:
        replace(ds, lat=np.array([37.0, 37.0, 95.0]), cog=np.array([0.0, 400.0, 0.0]))
    assert str(exc.value) == "report 1: cog must be in [0, 360), got 400.0"


def _columns(n=3):
    return dict(lat=np.full(n, 37.0), lon=np.full(n, -76.0), sog=np.full(n, 5.0),
                cog=np.zeros(n))


def test_dataset_rejects_times_out_of_order():
    with pytest.raises(ValueError, match="report 2: t=50 is before the previous report's t=100"):
        TrackDataset(t=np.array([0, 100, 50, 150]), **_columns(4), vids=None, alpha=1.0)


def test_dataset_rejects_times_whose_span_overflows_int64():
    # the widest span the CSV reader's ±2**62 limit allows still passes
    widest = [-2**62 + 1, 2**62 - 1]
    assert len(TrackDataset(t=np.array(widest), **_columns(2), vids=None, alpha=1.0)) == 2
    with pytest.raises(ValueError, match="times span 18446744073709551615 s"):
        TrackDataset(t=np.array([-2**63, 0, 2**63 - 1]), **_columns(), vids=None, alpha=1.0)


def test_dataset_rejects_vids_of_another_length():
    with pytest.raises(ValueError, match="1 vids values for 3 report times"):
        TrackDataset(t=np.arange(3), **_columns(), vids=("a",), alpha=1.0)
    with pytest.raises(ValueError, match="1 vids values for 3 report times"):
        TrackDataset.from_columns(np.arange(3), **_columns(), vids=("a",))


@pytest.mark.parametrize("build", [
    lambda t, cols: TrackDataset(t=t, **cols, vids=None, alpha=1.0),
    lambda t, cols: TrackDataset.from_columns(t, **cols),
])
def test_dataset_rejects_columns_of_another_length(build):
    for n in (2, 4):
        with pytest.raises(ValueError, match=f"3 lat values for {n} report times"):
            build(np.arange(n), _columns())


def test_from_columns_sorts_stably_and_reorders_vids():
    ds = TrackDataset.from_columns([30, 0, 30], [37.01, 37.0, 37.02], [-76.1, -76.2, -76.3],
                                   [4.0, 5.0, 6.0], [90.0, 0.0, 180.0], vids=("b", "a", "c"),
                                   epoch="5")
    assert ds.t.tolist() == [0, 30, 30]
    assert ds.lat.tolist() == [37.0, 37.01, 37.02]
    assert ds.cog.tolist() == [0.0, 90.0, 180.0]
    assert ds.vids == ("a", "b", "c")
    assert ds.alpha == latitude_scale([37.01, 37.0, 37.02])
    assert ds.epoch == "5"


def test_label_groups():
    order, bounds = label_groups(np.array([2, 0, 2, 0, 0]), 4)
    assert order.tolist() == [1, 3, 4, 0, 2]
    assert bounds == [0, 3, 3, 5, 5]
    assert label_groups(np.array([1, 0]))[1] == [0, 1, 2]


def test_dataset_rejects_empty():
    with pytest.raises(ValueError):
        TrackDataset.from_points([])


def test_dataset_point_round_trip():
    points = _points()
    ds = TrackDataset.from_points(points)
    assert tuple(ds.point(i) for i in range(len(ds))) == (points[1], points[0], points[2])


def test_cbtr_config_validation():
    CbtrConfig(window_s=300, n_abnormal=0)
    with pytest.raises(ValueError):
        CbtrConfig(window_s=0)
    with pytest.raises(ValueError):
        CbtrConfig(time_weight_moving=0.0)
    with pytest.raises(ValueError):
        CbtrConfig(cos_steady_min=1.5)
    with pytest.raises(ValueError):
        CbtrConfig(n_abnormal=-1)


def test_link_set_accessors():
    links = LinkSet(targets=np.array([1, -1], dtype=np.int64),
                    errors=np.array([0.5, np.nan]),
                    modes=np.array([1, 0], dtype=np.int8))
    assert len(links) == 2


def test_cluster_assignment_counts():
    assignment = ClusterAssignment(cluster_of=np.array([0, 1, 1, 2]),
                                   endpoints=np.array([3], dtype=np.int64),
                                   abnormal=np.empty(0, dtype=np.int64))
    assert len(assignment) == 4
    assert assignment.n_clusters == 3
