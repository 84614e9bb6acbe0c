import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import reference
from trackstitch import npc, search
from trackstitch.model import AisPoint, TrackDataset
from trackstitch.npc import (
    NpcConfig,
    UnclassifiablePointError,
    npc_classify,
    npc_cluster,
    npc_grouping_targets,
)
from trackstitch.synth import even_odd_split, generate_fleet, scenario_s1

from conftest import small_mixed_config


def _pt(t, lat, lon, sog, cog, vid=None):
    return AisPoint(t, lat, lon, sog, cog, vid=vid)


def test_config_validation():
    NpcConfig(k_neighbors=1, lat_weight=None)
    with pytest.raises(ValueError):
        NpcConfig(k_neighbors=0)
    with pytest.raises(ValueError):
        NpcConfig(time_weight=-1e-6)
    with pytest.raises(ValueError):
        NpcConfig(lat_weight=-0.5)
    with pytest.raises(ValueError):
        NpcConfig(cog_weight=-1.0)


def test_classify_requires_labels():
    train = TrackDataset.from_points([_pt(0, 37.0, -76.0, 1.0, 0.0)])
    test = TrackDataset.from_points([_pt(10, 37.0, -76.0, 1.0, 0.0)])
    with pytest.raises(ValueError):
        npc_classify(train, test)


def test_classify_projection_beats_raw_proximity():
    # vessel a last reported 309 m south of the test point but is headed
    # straight for it; vessel b sits 91 m away and is not moving
    a0 = _pt(0, 37.0, -76.0, 10.0, 0.0, vid="a")
    lat_100, lon_100 = reference.advance(37.0, -76.0, 10.0, 0.0, 100)
    a1 = _pt(100, lat_100, lon_100, 10.0, 0.0, vid="a")
    target_lat, target_lon = reference.advance(lat_100, lon_100, 10.0, 0.0, 100)
    b_lat = target_lat + 91.0 / 111120.0
    b0 = _pt(0, b_lat, target_lon, 0.0, 0.0, vid="b")
    b1 = _pt(100, b_lat, target_lon, 0.0, 0.0, vid="b")
    train = TrackDataset.from_points([a0, a1, b0, b1])
    test = TrackDataset.from_points([_pt(200, target_lat, target_lon, 10.0, 0.0)])
    assert npc_classify(train, test) == ("a",)


def test_classify_report_at_test_time_counts():
    train = TrackDataset.from_points([
        _pt(0, 37.01, -76.01, 0.0, 0.0, vid="b"),
        _pt(100, 37.0, -76.0, 0.0, 0.0, vid="a"),
    ])
    test = TrackDataset.from_points([_pt(100, 37.0, -76.0, 0.0, 0.0)])
    assert npc_classify(train, test) == ("a",)


def test_classify_tie_takes_first_sorted_label():
    # both labels project to the identical spot; insertion order is b first
    train = TrackDataset.from_points([
        _pt(0, 37.0, -76.0, 0.0, 0.0, vid="b"),
        _pt(0, 37.0, -76.0, 0.0, 0.0, vid="a"),
    ])
    test = TrackDataset.from_points([_pt(50, 37.0, -76.0, 0.0, 0.0)])
    assert npc_classify(train, test) == ("a",)


def test_classify_lookback_is_bounded():
    # a's only reports near the test point are older than its last ten, so
    # they are invisible and the closer-by-history label b wins
    pts = []
    x_lat, x_lon = 37.0, -76.0
    far_lat = 37.0 + 5000.0 / 111120.0
    for k in range(12):
        lat = x_lat if k < 2 else far_lat
        pts.append(_pt(k * 10, lat, x_lon, 0.0, 0.0, vid="a"))
    z_lat = x_lat + 1000.0 / 111120.0
    pts.append(_pt(0, z_lat, x_lon, 0.0, 0.0, vid="b"))
    train = TrackDataset.from_points(pts)
    test = TrackDataset.from_points([_pt(200, x_lat, x_lon, 0.0, 0.0)])
    assert npc_classify(train, test) == ("b",)


def test_classify_lookback_reaches_the_tenth_last_report():
    # a's only report near the test point is the tenth from its last, so it
    # still counts and beats b, 1000 m away
    x_lat, x_lon = 37.0, -76.0
    far_lat = 37.0 + 5000.0 / 111120.0
    pts = [_pt(k * 10, x_lat if k == 2 else far_lat, x_lon, 0.0, 0.0, vid="a")
           for k in range(12)]
    pts.append(_pt(0, x_lat + 1000.0 / 111120.0, x_lon, 0.0, 0.0, vid="b"))
    train = TrackDataset.from_points(pts)
    test = TrackDataset.from_points([_pt(200, x_lat, x_lon, 0.0, 0.0)])
    assert npc_classify(train, test) == ("a",)


def test_classify_equidistant_recent_reports_take_the_earlier():
    # a's two reports sit exactly 2**-8 degrees south and north of the test
    # point; the earlier one, headed for it, is taken and beats b at 300 m
    offset = 2.0 ** -8
    sog = offset * 111120.0 / (0.514444 * 200)
    train = TrackDataset.from_points([
        _pt(0, 37.0 - offset, -76.0, sog, 0.0, vid="a"),
        _pt(100, 37.0 + offset, -76.0, 0.0, 0.0, vid="a"),
        _pt(100, 37.0, -76.0 + 300.0 / (111320.0 * math.cos(math.radians(37.0))), 0.0, 0.0,
            vid="b"),
    ])
    test = TrackDataset.from_points([_pt(200, 37.0, -76.0, 0.0, 0.0)])
    assert npc_classify(train, test) == ("a",)


def test_classify_reports_unreachable_points():
    train = TrackDataset.from_points([_pt(50, 37.0, -76.0, 1.0, 0.0, vid="a")])
    test = TrackDataset.from_points([
        _pt(10, 37.0, -76.0, 1.0, 0.0),
        _pt(20, 37.0, -76.0, 1.0, 0.0),
        _pt(60, 37.0, -76.0, 1.0, 0.0),
    ])
    with pytest.raises(UnclassifiablePointError) as err:
        npc_classify(train, test)
    assert err.value.indices == [0, 1]


def test_unclassifiable_message_is_bounded():
    err = UnclassifiablePointError(list(range(88)))
    assert err.indices == list(range(88))
    assert str(err) == ("no labeled history for 88 test points: "
                        "0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...")
    assert str(UnclassifiablePointError([3, 4])) == "no labeled history for 2 test points: 3, 4"


def _assert_classify_matches_reference(train, test):
    expected = reference.classify_all(reference.pts_of(train), train.vids,
                                      reference.pts_of(test))
    assert list(npc_classify(train, test)) == expected


@pytest.mark.parametrize("seed", [7, 61])
def test_classify_matches_reference_on_s1_split(seed):
    _assert_classify_matches_reference(*even_odd_split(generate_fleet(scenario_s1(seed))))


@pytest.mark.parametrize("twin", ["same-label", "other-label"])
def test_classify_ties_match_reference(twin):
    # every history report twice: under its own label the twin ties inside
    # the recent reports, under another label it ties across labels
    train, test = even_odd_split(generate_fleet(small_mixed_config(66, n_vessels=5)))
    suffix = "" if twin == "same-label" else "/twin"
    doubled = [p for i in range(len(train)) for p in
               (train.point(i), replace(train.point(i), vid=train.vids[i] + suffix))]
    _assert_classify_matches_reference(TrackDataset.from_points(doubled), test)


def test_classify_late_label_matches_reference():
    # one vessel's history starts after a third of the test reports; the
    # reports before that can only go to other labels
    train, test = even_odd_split(generate_fleet(small_mixed_config(67, n_vessels=5)))
    late = train.vids[0]
    start = int(test.t[len(test) // 3])
    keep = [train.point(i) for i in range(len(train))
            if train.vids[i] != late or train.t[i] > start]
    _assert_classify_matches_reference(TrackDataset.from_points(keep), test)


@pytest.mark.parametrize("lat0", [89.9, -89.9])
def test_classify_near_pole_matches_reference(lat0):
    # a degree of longitude is ~190 m here, so east-west motion moves
    # longitude fast and the projections stretch far
    rng = random.Random(68)
    pts = []
    for v in range(6):
        lat, lon = lat0 + rng.uniform(-0.02, 0.02), rng.uniform(-20.0, 20.0)
        sog, cog, t = rng.uniform(0.0, 12.0), rng.uniform(0.0, 360.0), rng.randrange(60)
        for _ in range(30):
            pts.append(_pt(t, lat, lon, sog, cog, vid=f"V{v}"))
            step = rng.randrange(5, 40)
            lat, lon = reference.advance(lat, lon, sog, cog, step)
            t += step
    _assert_classify_matches_reference(*even_odd_split(TrackDataset.from_points(pts)))


def _two_vessel_toy():
    pts = []
    lat, lon = 37.0, -76.2
    for k in range(3):
        pts.append(_pt(k * 60, lat, lon, 10.0, 0.0, vid="a"))
        lat, lon = reference.advance(lat, lon, 10.0, 0.0, 60)
    lat, lon = 37.03, -76.0
    for k in range(3):
        pts.append(_pt(k * 60, lat, lon, 5.0, 90.0, vid="b"))
        lat, lon = reference.advance(lat, lon, 5.0, 90.0, 60)
    return TrackDataset.from_points(pts)


def test_grouping_separates_distant_vessels():
    ds = _two_vessel_toy()
    assignment = npc_cluster(npc_grouping_targets(ds))
    # reports interleave in time as a, b, a, b, ...
    assert list(assignment.cluster_of) == [0, 1, 0, 1, 0, 1]
    assert assignment.n_clusters == 2
    assert assignment.endpoints.tolist() == []


def test_grouping_requires_enough_points():
    ds = TrackDataset.from_points([_pt(t, 37.0, -76.0, 1.0, 0.0) for t in (0, 9, 21)])
    with pytest.raises(ValueError):
        npc_grouping_targets(ds, NpcConfig(k_neighbors=3))


def test_grouping_rejects_overflowing_weights():
    # 37 degrees of latitude times 1e307 is no float
    with pytest.raises(ValueError, match="overflows"), np.errstate(over="ignore"):
        npc_grouping_targets(_two_vessel_toy(), NpcConfig(lat_weight=1e307))


def _mean_course(a, b):
    y = (math.sin(math.radians(a)) + math.sin(math.radians(b))) / 2.0
    x = (math.cos(math.radians(a)) + math.cos(math.radians(b))) / 2.0
    if x == 0.0 and y == 0.0:
        return a
    return math.degrees(math.atan2(y, x)) % 360.0


def _bruteforce_targets(ds, cfg):
    n = len(ds)
    lat_w = ds.alpha if cfg.lat_weight is None else cfg.lat_weight
    feats = [(cfg.time_weight * int(ds.t[i]), lat_w * float(ds.lat[i]),
              cfg.lon_weight * float(ds.lon[i]), cfg.sog_weight * float(ds.sog[i]),
              cfg.cog_weight * float(ds.cog[i])) for i in range(n)]
    out = []
    for i in range(n):
        d2 = []
        for j in range(n):
            if j == i:
                d2.append((math.inf, j))
                continue
            s = sum((feats[i][m] - feats[j][m]) ** 2 for m in range(5))
            d2.append((s, j))
        nearest = sorted(j for _, j in sorted(d2, key=lambda p: (p[0], p[1]))[:cfg.k_neighbors])
        best_j, best_d = -1, math.inf
        for j in nearest:
            dt = int(ds.t[j]) - int(ds.t[i])
            sog = (float(ds.sog[i]) + float(ds.sog[j])) / 2.0
            cog = _mean_course(float(ds.cog[i]), float(ds.cog[j]))
            est_lat, est_lon = reference.advance(float(ds.lat[i]), float(ds.lon[i]),
                                                 sog, cog, dt)
            d = reference.ground_m(est_lat, est_lon, float(ds.lat[j]), float(ds.lon[j]))
            if d < best_d:
                best_j, best_d = j, d
        out.append(best_j)
    return out


@pytest.mark.parametrize("seed", [61, 62])
def test_grouping_matches_bruteforce(seed):
    ds = generate_fleet(small_mixed_config(seed, n_vessels=2, duration_s=600))
    cfg = NpcConfig()
    got = npc_grouping_targets(ds, cfg)
    assert list(got) == _bruteforce_targets(ds, cfg)


def test_grouping_opposite_courses_match_bruteforce():
    # courses of 17 and 197 degrees sum to an exactly zero vector, so such a
    # pair's mean course falls back to the report's own
    rng = random.Random(69)
    ds = TrackDataset.from_points([
        _pt(rng.randrange(600), 37.0 + rng.uniform(0.0, 0.01), -76.0 + rng.uniform(0.0, 0.01),
            8.0, rng.choice((17.0, 197.0))) for _ in range(60)])
    cfg = NpcConfig()
    assert list(npc_grouping_targets(ds, cfg)) == _bruteforce_targets(ds, cfg)


def test_grouping_respects_feature_weights():
    # with sog weighted heavily, a same-speed twin outranks a same-place one
    ds = _two_vessel_toy()
    heavy = NpcConfig(k_neighbors=2, sog_weight=100.0)
    got = npc_grouping_targets(ds, heavy)
    assert list(got) == _bruteforce_targets(ds, heavy)


def _twice(ds):
    # every report twice at the same time and place
    return TrackDataset.from_points([ds.point(i) for i in range(len(ds)) for _ in (0, 1)])


@pytest.mark.parametrize("cfg", [
    NpcConfig(time_weight=0.0),
    NpcConfig(time_weight=1.0),
    NpcConfig(k_neighbors=1),
    NpcConfig(k_neighbors=5),
    NpcConfig(sog_weight=1e-3, cog_weight=1e-5),
], ids=["no-time", "time-1", "k1", "k5", "sog-cog"])
def test_grouping_edge_configs_match_bruteforce(cfg, monkeypatch):
    # small blocks and chunks, so the search runs over many of each
    monkeypatch.setattr(npc, "_BLOCK_CELLS", 16)
    monkeypatch.setattr(npc, "_CHUNK_ROWS", 16)
    ds = generate_fleet(small_mixed_config(63, n_vessels=5, duration_s=2400))
    assert list(npc_grouping_targets(ds, cfg)) == _bruteforce_targets(ds, cfg)


@pytest.mark.parametrize("k", [2, 4])
def test_grouping_duplicate_ties_match_bruteforce(k, monkeypatch):
    # each report's twin is at distance 0 and the next nearest report comes
    # with its own twin at the same distance, so ties straddle the k-th place
    monkeypatch.setattr(npc, "_BLOCK_CELLS", 16)
    monkeypatch.setattr(npc, "_CHUNK_ROWS", 16)
    ds = _twice(generate_fleet(small_mixed_config(64, n_vessels=4, duration_s=1200)))
    cfg = NpcConfig(k_neighbors=k)
    assert list(npc_grouping_targets(ds, cfg)) == _bruteforce_targets(ds, cfg)


def _exact_ties(seed):
    # reports at rest on latitudes a binary fraction apart, scored with unit
    # latitude weight and a power-of-two time weight: every distance is exact,
    # so equal distances, on either side of a report, are common
    rng = random.Random(seed)
    t, pts = 0, []
    for _ in range(120):
        t += rng.choice((0, 1, 1, 2, 4))
        pts.append(_pt(t, 37.0 + rng.choice((0, 1, 2, 8)) * 2.0 ** -8, -76.0, 0.0, 0.0))
    return TrackDataset.from_points(pts)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("cells", [1, 4])
def test_grouping_exact_ties_match_bruteforce(seed, k, cells, monkeypatch):
    # blocks this small split every row's cells across blocks; slabs of 4 s
    # keep each row's gather near its time reach, so there are few blocks
    monkeypatch.setattr(npc, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(npc, "_SLAB_S", 4)
    ds = _exact_ties(seed)
    cfg = NpcConfig(k_neighbors=k, time_weight=2.0 ** -6, lat_weight=1.0)
    assert list(npc_grouping_targets(ds, cfg)) == _bruteforce_targets(ds, cfg)


@pytest.mark.parametrize("k", [1, 3])
def test_grouping_smallest_dataset_matches_bruteforce(k):
    ds = TrackDataset.from_points([_pt(10 * m, 37.0 + 0.001 * m, -76.0, 5.0, 0.0)
                                   for m in range(k + 1)])
    cfg = NpcConfig(k_neighbors=k)
    assert list(npc_grouping_targets(ds, cfg)) == _bruteforce_targets(ds, cfg)


@pytest.fixture(scope="module", params=["gapped", "duplicated"])
def block_fleet(request):
    ds = generate_fleet(replace(small_mixed_config(65, n_vessels=8, duration_s=3000),
                                gaps_per_vessel=1, gap_duration_s=(300, 500)))
    if request.param == "duplicated":
        ds = _twice(ds)
    return ds, npc_grouping_targets(ds)


@pytest.mark.parametrize("cells", [1, 7, 97])
def test_block_size_is_invisible(block_fleet, cells, monkeypatch):
    ds, default = block_fleet
    monkeypatch.setattr(npc, "_BLOCK_CELLS", cells)
    assert np.array_equal(npc_grouping_targets(ds), default)


# each search constant at an extreme: every time its own slab, one slab for
# the whole fleet, one longitude bin, bins far finer than the reports, a
# first radius that takes ~90 rounds, one round that scores every pair, and
# chunks of one row
SEARCH_EXTREMES = {
    "slab-1s": ("_SLAB_S", 1), "slab-past-fleet": ("_SLAB_S", 10**6),
    "bins-1": ("_LON_BINS", 1), "bins-4096": ("_LON_BINS", 4096),
    "start-1e-30": ("_START_RADIUS", 1e-30), "start-1e3": ("_START_RADIUS", 1e3),
    "chunk-one-row": ("_CHUNK_ROWS", 1),
}


def _set_extreme(monkeypatch, extreme, ds):
    name, value = SEARCH_EXTREMES[extreme]
    monkeypatch.setattr(npc, name, value)
    if name == "_LON_BINS":
        # the start table's cap would give a small fleet fewer bins
        monkeypatch.setattr(search, "_TABLE_PER_REPORT", value)
        assert search.SlabIndex(ds.t, ds.lon, npc._SLAB_S, value).bins == value


@pytest.mark.parametrize("extreme", sorted(SEARCH_EXTREMES))
def test_search_constants_are_invisible(block_fleet, extreme, monkeypatch):
    ds, default = block_fleet
    _set_extreme(monkeypatch, extreme, ds)
    assert np.array_equal(npc_grouping_targets(ds), default)


@pytest.mark.parametrize("extreme", sorted(SEARCH_EXTREMES))
@pytest.mark.parametrize("k", [1, 3])
def test_search_constants_are_invisible_on_exact_ties(extreme, k, monkeypatch):
    ds = _exact_ties(0)
    _set_extreme(monkeypatch, extreme, ds)
    cfg = NpcConfig(k_neighbors=k, time_weight=2.0 ** -6, lat_weight=1.0)
    assert list(npc_grouping_targets(ds, cfg)) == _bruteforce_targets(ds, cfg)


# fleets and weights the index sees at its limits
DEGENERATE = {
    # every report in one longitude bin
    "no-lon": (lambda ds: ds, NpcConfig(lon_weight=0.0)),
    "no-lat": (lambda ds: ds, NpcConfig(lat_weight=0.0)),
    # the time reach is unbounded, and every report falls in one slab
    "no-time-one-time": (lambda ds: replace(ds, t=np.full(len(ds), 100)),
                         NpcConfig(time_weight=0.0)),
    "one-meridian": (lambda ds: replace(ds, lon=np.full(len(ds), -76.0)), NpcConfig()),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_index_inputs_match_bruteforce(case):
    reshape, cfg = DEGENERATE[case]
    ds = reshape(generate_fleet(small_mixed_config(70, n_vessels=3, duration_s=900)))
    assert list(npc_grouping_targets(ds, cfg)) == _bruteforce_targets(ds, cfg)


# a first radius and weights that make every distance below exact
EDGE_R = 2.0**-8
EDGE_CFG = NpcConfig(k_neighbors=1, time_weight=2.0**-10, lat_weight=0.0)
EAST = -76.0 + EDGE_R


@pytest.mark.parametrize("times, lons, rounds", [
    # report 1 lies exactly the first radius east of report 0
    ((0, 0), (-76.0, EAST), 1),
    # one ulp of longitude farther
    ((0, 0), (-76.0, np.nextafter(EAST, 0.0)), 2),
    # report 1 lies exactly the first radius later in weighted time (4 s)
    ((0, 4), (-76.0, -76.0), 1),
    # one second later
    ((0, 5), (-76.0, -76.0), 2),
    # reports 1 and 2 tie for report 0, east and west of it; report 2's bin
    # is gathered first, and report 1 must win
    ((0, 0, 0), (-76.0, EAST, -76.0 - EDGE_R), 1),
], ids=["lon-at-radius", "lon-one-ulp-past", "time-at-radius", "time-one-second-past",
        "tie-lower-index-wins"])
def test_radius_boundary(times, lons, rounds, monkeypatch):
    """A report at distance exactly R is within the first round's R**2 and
    decides the round; one a step farther waits for the second round."""
    monkeypatch.setattr(npc, "_START_RADIUS", EDGE_R)
    n = len(times)
    ds = TrackDataset.from_columns(t=times, lat=np.full(n, 37.0), lon=lons,
                                   sog=np.zeros(n), cog=np.zeros(n))
    targets = npc_grouping_targets(ds, EDGE_CFG)
    assert list(targets) == _bruteforce_targets(ds, EDGE_CFG)
    assert targets[0] == 1
    assert npc._nearest(ds, EDGE_CFG)[1][0] == rounds


@pytest.mark.parametrize("rows", [1, 7])
def test_fit_slice_size_is_invisible(block_fleet, rows, monkeypatch):
    ds, default = block_fleet
    monkeypatch.setattr(npc, "_FIT_ROWS", rows)
    assert np.array_equal(npc_grouping_targets(ds), default)


@pytest.fixture(scope="module")
def long_s1():
    # ~18.8k reports, so 16 MB holds fewer than 112 full rows of float64 distances
    ds = generate_fleet(replace(scenario_s1(), duration_s=50_000))
    assert len(ds) > 15_000
    return ds


def _peak_bytes(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.fixture(scope="module")
def s1_fleet():
    return generate_fleet(scenario_s1(7))


def test_search_counts_are_pinned(s1_fleet):
    # rounds of the growing-radius search and cells scored; a change that
    # widens a round's gather, or needs more rounds, shows here first
    nbr, counts = npc._nearest(s1_fleet, NpcConfig())
    targets = npc_grouping_targets(s1_fleet)
    assert np.all(np.any(nbr == targets[:, None], axis=1))
    assert counts == (2, 127777)


def test_grouping_memory_is_bounded(s1_fleet):
    # per-report arrays, one chunk's runs and one block of cells: ~1.2 MiB
    # here, where the windowed search it replaced peaked at 1.33 MiB
    assert _peak_bytes(npc_grouping_targets, s1_fleet) < 1.32 * 2**20


def test_grouping_memory_is_not_quadratic(long_s1):
    assert _peak_bytes(npc_grouping_targets, long_s1) < 16 * 2**20


def test_classify_memory_is_not_quadratic(long_s1):
    # ~9.4k reports on each side: one test-by-history matrix would take
    # ~700 MB, one test-by-label-history matrix ~35 MB
    assert _peak_bytes(npc_classify, *even_odd_split(long_s1)) < 16 * 2**20
