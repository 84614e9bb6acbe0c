from dataclasses import replace

import numpy as np
import pytest

import reference
from trackstitch.model import KNOT_MPS, AisPoint, TrackDataset
from trackstitch.synth import (
    EVERY_2ND,
    EVERY_5TH,
    SynthConfig,
    _interval_band,
    _sample_times,
    downsample,
    even_odd_split,
    generate_fleet,
    scenario_s1,
    scenario_s1_gaps,
)

from conftest import small_mixed_config


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_vessels=0)
    with pytest.raises(ValueError):
        SynthConfig(n_vessels=1, bbox=(37.0, 36.9, -76.0, -75.9))
    with pytest.raises(ValueError):
        SynthConfig(n_vessels=1, sample_interval_s=(0, 10))
    with pytest.raises(ValueError):
        SynthConfig(n_vessels=1, duration_s=100)
    with pytest.raises(ValueError):
        SynthConfig(n_vessels=2, archetypes=("transit",))
    with pytest.raises(ValueError):
        SynthConfig(n_vessels=1, archetypes=("hovercraft",))
    with pytest.raises(ValueError):
        SynthConfig(n_vessels=1, noise_sigma_m=-1.0)
    with pytest.raises(ValueError):
        SynthConfig(n_vessels=1, gaps_per_vessel=-1)


def test_same_seed_same_fleet():
    cfg = small_mixed_config(3)
    a = generate_fleet(cfg)
    b = generate_fleet(cfg)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.lat, b.lat)
    assert np.array_equal(a.lon, b.lon)
    assert np.array_equal(a.sog, b.sog)
    assert np.array_equal(a.cog, b.cog)
    assert a.vids == b.vids
    c = generate_fleet(small_mixed_config(4))
    assert not (len(a) == len(c) and np.array_equal(a.lat, c.lat))


def test_fleet_is_fully_labeled():
    ds = generate_fleet(small_mixed_config(5, n_vessels=6))
    assert ds.has_vids()
    assert set(ds.vids) == {f"V{v:02d}" for v in range(6)}


def _by_vid(ds):
    groups = {}
    for i in range(len(ds)):
        groups.setdefault(ds.vids[i], []).append(i)
    return groups


def test_cadence_respects_archetype_bands():
    cfg = SynthConfig(n_vessels=4, duration_s=2400, seed=9,
                      archetypes=("transit", "turning",
                                  "steady-drifting", "steady-docked"))
    ds = generate_fleet(cfg)
    bands = {"V00": (30, 65), "V01": (20, 85), "V02": (60, 180), "V03": (60, 180)}
    for vid, members in _by_vid(ds).items():
        lo, hi = bands[vid]
        gaps = np.diff(ds.t[members])
        assert gaps.min() >= lo, vid
        assert gaps.max() <= hi, vid


def _scalar_sample_times(rng, band, duration_s):
    """The sample-time loop with one scalar draw per interval."""
    a, b = band
    times = []
    t = int(rng.integers(0, 16))
    while t <= duration_s:
        times.append(t)
        t += int(rng.integers(a, b + 1))
    return times


def test_sample_times_leave_the_stream_where_scalar_draws_do():
    seen = set()
    for seed in (0, 7, 120):
        for archetype, bounds in (("transit", (2, 180)), ("turning", (2, 180)),
                                  ("steady-docked", (2, 180)),
                                  # bands that fall back to the whole range
                                  ("transit", (2, 20)), ("steady-drifting", (2, 20)),
                                  ("turning", (1, 1)), ("transit", (7, 7))):
            band = _interval_band(archetype, bounds)
            for duration_s in (bounds[1] + 16, 601, 1000):
                # 0 or 1 32-bit halves buffered in the bit generator on entry
                for buffered in (0, 1):
                    batch, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                    batch.integers(0, 1000, size=buffered)
                    scalar.integers(0, 1000, size=buffered)
                    times = _sample_times(batch, band, duration_s)
                    expected = _scalar_sample_times(scalar, band, duration_s)
                    assert times.dtype == np.int64
                    assert times.tolist() == expected
                    assert batch.bit_generator.state == scalar.bit_generator.state
                    assert batch.integers(0, 2**40) == scalar.integers(0, 2**40)
                    seen.add((len(expected) % 2, scalar.bit_generator.state["has_uint32"]))
    # odd and even draw counts, each leaving a half buffered and not
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_docked_vessel_never_moves():
    cfg = SynthConfig(n_vessels=1, duration_s=1200, seed=2,
                      archetypes=("steady-docked",), noise_sigma_m=0.0)
    ds = generate_fleet(cfg)
    assert np.ptp(ds.lat) == 0.0
    assert np.ptp(ds.lon) == 0.0
    assert np.all(ds.sog == 0.0)
    assert np.ptp(ds.cog) == 0.0


def test_drifting_vessel_stays_in_its_disk():
    cfg = SynthConfig(n_vessels=1, duration_s=3600, seed=6,
                      archetypes=("steady-drifting",), noise_sigma_m=0.0,
                      drift_radius_m=11.0)
    ds = generate_fleet(cfg)
    worst = 0.0
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            d = reference.ground_m(float(ds.lat[i]), float(ds.lon[i]),
                                   float(ds.lat[j]), float(ds.lon[j]))
            worst = max(worst, d)
    assert worst <= 2.0 * cfg.drift_radius_m


def test_consecutive_reports_within_kinematic_envelope():
    ds = generate_fleet(small_mixed_config(8, n_vessels=7, duration_s=1800,
                                           noise_sigma_m=0.0))
    for members in _by_vid(ds).values():
        for a, b in zip(members, members[1:]):
            dt = int(ds.t[b]) - int(ds.t[a])
            d = reference.ground_m(float(ds.lat[a]), float(ds.lon[a]),
                                   float(ds.lat[b]), float(ds.lon[b]))
            ceiling = (max(float(ds.sog[a]), float(ds.sog[b])) + 3.5) * KNOT_MPS * dt
            assert d <= ceiling + 1.0


def test_fleet_stays_inside_bbox():
    cfg = scenario_s1()
    ds = generate_fleet(cfg)
    lat_min, lat_max, lon_min, lon_max = cfg.bbox
    pad = 0.001  # room for report noise
    assert ds.lat.min() >= lat_min - pad
    assert ds.lat.max() <= lat_max + pad
    assert ds.lon.min() >= lon_min - pad
    assert ds.lon.max() <= lon_max + pad


def test_scenario_s1_composition(s1):
    assert len(set(s1.vids)) == 20
    assert 4000 < len(s1) < 7000
    assert s1.epoch == "0"


def _ten_point_dataset():
    pts = [AisPoint(k * 10, 37.0, -76.0 + k * 1e-4, 1.0, 90.0, vid="A")
           for k in range(10)]
    pts += [AisPoint(5 + k * 10, 37.01, -76.0, 0.0, 0.0, vid="B") for k in range(3)]
    return TrackDataset.from_points(pts, epoch="0")


def test_downsample_every_5th():
    ds = _ten_point_dataset()
    out = downsample(ds, EVERY_5TH)
    groups = _by_vid(out)
    assert [int(out.t[i]) for i in groups["A"]] == [0, 10, 20, 30, 50, 60, 70, 80]
    assert [int(out.t[i]) for i in groups["B"]] == [5, 15, 25]
    assert out.epoch == ds.epoch


def test_downsample_every_2nd():
    ds = _ten_point_dataset()
    out = downsample(ds, EVERY_2ND)
    groups = _by_vid(out)
    assert [int(out.t[i]) for i in groups["A"]] == [0, 20, 40, 60, 80]
    assert [int(out.t[i]) for i in groups["B"]] == [5, 25]


def test_downsample_keeps_first_report_and_checks_pattern():
    ds = _ten_point_dataset()
    for pattern in (EVERY_5TH, EVERY_2ND):
        out = downsample(ds, pattern)
        for vid, members in _by_vid(out).items():
            first = min(int(ds.t[i]) for i in _by_vid(ds)[vid])
            assert int(out.t[members[0]]) == first
    with pytest.raises(ValueError):
        downsample(ds, "every-3rd")


def test_downsample_unlabeled_runs_as_one_group():
    pts = [AisPoint(k * 10, 37.0, -76.0, 1.0, 0.0) for k in range(10)]
    out = downsample(TrackDataset.from_points(pts), EVERY_2ND)
    assert [int(t) for t in out.t] == [0, 20, 40, 60, 80]


def test_even_odd_split_alternates_per_vessel():
    ds = _ten_point_dataset()
    train, test = even_odd_split(ds)
    assert [int(t) for t in train.t] == [0, 5, 20, 25, 40, 60, 80]
    assert [int(t) for t in test.t] == [10, 15, 30, 50, 70, 90]
    assert train.vids == ("A", "B", "A", "B", "A", "A", "A")
    assert train.epoch == test.epoch == "0"
    # both halves keep the dataset's time base
    halves = even_odd_split(replace(ds, epoch="1714521600"))
    assert [half.epoch for half in halves] == ["1714521600"] * 2


def test_even_odd_split_orders_ties_by_first_appearance():
    # B reports first, so at a shared timestamp B's reports come before A's
    pts = [AisPoint(0, 37.0, -76.0, 1.0, 0.0, vid="B"),
           AisPoint(0, 37.1, -76.0, 1.0, 0.0, vid="A"),
           AisPoint(0, 37.2, -76.0, 1.0, 0.0, vid="A"),
           AisPoint(10, 37.3, -76.0, 1.0, 0.0, vid="A"),
           AisPoint(10, 37.4, -76.0, 1.0, 0.0, vid="B"),
           AisPoint(20, 37.5, -76.0, 1.0, 0.0, vid="B")]
    train, test = even_odd_split(TrackDataset.from_points(pts))
    assert list(zip(train.vids, train.lat.tolist())) == [
        ("B", 37.0), ("A", 37.1), ("A", 37.3), ("B", 37.5)]
    assert list(zip(test.vids, test.lat.tolist())) == [("A", 37.2), ("B", 37.4)]
    # the same reports with A first
    train, _ = even_odd_split(TrackDataset.from_points(pts[1:3] + pts[:1] + pts[3:]))
    assert train.vids[:2] == ("A", "B")


def test_gap_scenario_opens_real_outages():
    cfg = scenario_s1_gaps()
    assert cfg.gaps_per_vessel == 2
    ds = generate_fleet(cfg)
    for vid, members in _by_vid(ds).items():
        gaps = np.diff(ds.t[members])
        assert gaps.max() >= 350, f"{vid} has no visible outage"
