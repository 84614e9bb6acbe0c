import warnings
from dataclasses import replace

import numpy as np
import pytest

import reference
from trackstitch import cbtr
from trackstitch.cbtr import (
    UnionFind,
    build_links,
    candidate_window,
    components_by_first_point,
    detect_abnormal,
    run_cbtr,
    select_bpnp,
    surviving_targets,
)
from trackstitch.model import AisPoint, CbtrConfig, PairMode, TrackDataset
from trackstitch.synth import SynthConfig, generate_fleet

from conftest import small_mixed_config

CFG = CbtrConfig()

MODE_NAME = {1: "moving", 2: "steady", 0: None}


def _dataset(seed, **kwargs):
    return generate_fleet(small_mixed_config(seed, **kwargs))


def test_candidate_window_bounds():
    pts = [AisPoint(t, 37.0, -76.0, 1.0, 0.0) for t in (0, 1, 500, 1000, 1001, 2000)]
    ds = TrackDataset.from_points(pts)
    assert list(candidate_window(ds, 0)) == [1, 2, 3]  # 1..window inclusive
    assert list(candidate_window(ds, 3)) == [4, 5]  # 2000 sits exactly on the edge
    assert list(candidate_window(ds, 5)) == []
    with pytest.raises(IndexError):
        candidate_window(ds, 6)
    with pytest.raises(IndexError):
        candidate_window(ds, -1)


def test_select_bpnp_no_candidates():
    ds = TrackDataset.from_points([AisPoint(0, 37.0, -76.0, 5.0, 0.0)])
    assert select_bpnp(ds, 0) is None


def test_select_bpnp_steady_screen_rejects_far_pair():
    # slow pair 5.5 km apart: displacement swamps the time axis
    pts = [AisPoint(0, 37.0, -76.0, 0.0, 0.0),
           AisPoint(100, 37.05, -76.0, 0.0, 0.0)]
    ds = TrackDataset.from_points(pts)
    assert select_bpnp(ds, 0) is None


def test_select_bpnp_moving_screen_rejects_candidate_astern():
    pts = [AisPoint(0, 37.0, -76.0, 10.0, 0.0),
           AisPoint(100, 36.99, -76.0, 10.0, 0.0)]
    ds = TrackDataset.from_points(pts)
    assert select_bpnp(ds, 0) is None


def test_select_bpnp_tie_takes_first_candidate():
    lat, lon = reference.advance(37.0, -76.0, 10.0, 0.0, 100)
    pts = [AisPoint(0, 37.0, -76.0, 10.0, 0.0),
           AisPoint(100, lat, lon, 10.0, 0.0),
           AisPoint(100, lat, lon, 10.0, 0.0)]
    ds = TrackDataset.from_points(pts)
    found = select_bpnp(ds, 0)
    assert found is not None
    j, err, mode = found
    assert j == 1
    assert mode is PairMode.MOVING


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_select_bpnp_matches_full_scan(seed):
    ds = _dataset(seed, n_vessels=3, duration_s=900)
    pts = reference.pts_of(ds)
    for i in range(len(ds)):
        expected = reference.best_next(pts, i, ds.alpha, CFG)
        got = select_bpnp(ds, i, CFG)
        if expected is None:
            assert got is None, f"point {i}: library linked, oracle did not"
        else:
            assert got is not None, f"point {i}: oracle linked, library did not"
            assert got[0] == expected[0], f"point {i}: target mismatch"
            assert got[1] == pytest.approx(expected[1], rel=1e-9)
            assert got[2].name.lower() == expected[2]


@pytest.mark.parametrize("seed", [21, 22, 23, 24, 25, 26, 27, 28])
def test_build_links_matches_reference(seed):
    ds = _dataset(seed, n_vessels=4, duration_s=1200)
    _assert_links_match(build_links(ds, CFG),
                        reference.link_all(reference.pts_of(ds), ds.alpha, CFG))


def _assert_links_match(links, expected):
    for i, exp in enumerate(expected):
        if exp is None:
            assert links.targets[i] == -1
            assert links.modes[i] == 0
            assert np.isnan(links.errors[i])
        else:
            assert links.targets[i] == exp[0], f"point {i}"
            assert links.errors[i] == pytest.approx(exp[1], rel=1e-9)
            assert MODE_NAME[int(links.modes[i])] == exp[2]


def _tied_fleet():
    # times floored to 30 s: many reports share a second
    ds = _dataset(61, n_vessels=6, duration_s=1800)
    return TrackDataset.from_points(
        [replace(ds.point(i), t=int(ds.t[i]) // 30 * 30) for i in range(len(ds))])


def _has_mid_fleet_empty_window(ds):
    return any(len(candidate_window(ds, i, CFG)) == 0
               for i in range(len(ds)) if ds.t[i] + CFG.window_s < ds.t[-1])


def _gapped_fleet():
    return generate_fleet(SynthConfig(n_vessels=2, duration_s=10800,
                                      gaps_per_vessel=4, seed=62))


def _steady_fleet():
    return generate_fleet(SynthConfig(
        n_vessels=4, archetypes=("steady-drifting", "steady-docked") * 2,
        duration_s=7200, seed=63))


def _moving_fleet():
    return generate_fleet(SynthConfig(n_vessels=3, archetypes=("transit",) * 3,
                                      duration_s=1800, seed=64))


def _linked_modes(links):
    return set(links.modes[links.targets >= 0].tolist())


# each fleet with the trait that makes it a block-boundary case
BLOCK_FLEETS = {
    "tied": (_tied_fleet, lambda ds, links: bool(np.any(np.diff(ds.t) == 0))),
    "gapped": (_gapped_fleet, lambda ds, links: _has_mid_fleet_empty_window(ds)),
    "all-steady": (_steady_fleet, lambda ds, links: _linked_modes(links) == {2}),
    "all-moving": (_moving_fleet, lambda ds, links: _linked_modes(links) == {1}),
}


@pytest.fixture(scope="module", params=sorted(BLOCK_FLEETS))
def block_fleet(request):
    make, trait = BLOCK_FLEETS[request.param]
    ds = make()
    links = build_links(ds, CFG)
    assert trait(ds, links), f"{request.param} fleet lost its defining trait"
    return ds, links, reference.link_all(reference.pts_of(ds), ds.alpha, CFG)


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("cells", [1, 7, 97])
def test_block_size_is_invisible(block_fleet, cells, threads, monkeypatch):
    ds, default, expected = block_fleet
    monkeypatch.setattr(cbtr, "_BLOCK_CELLS", cells)
    links = build_links(ds, CFG, threads=threads)
    assert np.array_equal(links.targets, default.targets)
    assert np.array_equal(links.modes, default.modes)
    assert np.array_equal(links.errors, default.errors, equal_nan=True)
    _assert_links_match(links, expected)


def test_masked_duplicates_raise_no_warnings():
    # every report twice at the same time and place: cells pairing a report
    # with its twin are masked but evaluate to 0/0
    ds = _dataset(71, n_vessels=3, duration_s=900)
    twice = TrackDataset.from_points([ds.point(i) for i in range(len(ds)) for _ in (0, 1)])
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        links = build_links(twice, CFG)
    assert np.geterr() == before
    _assert_links_match(links, reference.link_all(reference.pts_of(twice), twice.alpha, CFG))


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_full_pipeline_matches_reference(seed):
    ds = _dataset(seed, n_vessels=4, duration_s=1500)
    assignment, links, report = run_cbtr(ds, CFG)
    ref_links, ref_abnormal, ref_labels = reference.run_pipeline(
        reference.pts_of(ds), ds.alpha, CFG)
    got_targets = [int(x) if x >= 0 else None for x in links.targets]
    assert got_targets == [x[0] if x else None for x in ref_links]
    assert set(report.abnormal) == ref_abnormal
    assert list(assignment.cluster_of) == ref_labels


def _chain_points():
    """A -> B -> C straight east, then D a hard 90 degree turn north."""
    a = (0, 37.0, -76.0, 5.0, 90.0)
    lat, lon = reference.advance(37.0, -76.0, 5.0, 90.0, 60)
    b = (60, lat, lon, 5.0, 90.0)
    lat, lon = reference.advance(lat, lon, 5.0, 90.0, 60)
    c = (120, lat, lon, 5.0, 90.0)
    lat, lon = reference.advance(lat, lon, 5.0, 0.0, 60)
    d = (180, lat, lon, 5.0, 0.0)
    return [AisPoint(*p) for p in (a, b, c, d)]


def test_detect_abnormal_rescues_shallow_bends_only():
    ds = TrackDataset.from_points(_chain_points())
    cfg = CbtrConfig(n_abnormal=3)
    links = build_links(ds, cfg)
    assert list(links.targets) == [1, 2, 3, -1]
    report = detect_abnormal(ds, links, cfg)
    assert report.no_bpnp == frozenset({3})
    assert set(report.worst_n) == {0, 1, 2}
    # A continues straight through B, so it is kept; B bends 90 degrees at C
    # and is severed; C's target has no onward link to judge a bend by.
    assert report.rescued_turns == frozenset({0})
    assert report.abnormal == frozenset({1, 2, 3})


def test_assemble_clusters_after_severing():
    ds = TrackDataset.from_points(_chain_points())
    cfg = CbtrConfig(n_abnormal=3)
    assignment, links, report = run_cbtr(ds, cfg)
    assert list(assignment.cluster_of) == [0, 0, 1, 2]
    assert assignment.n_clusters == 3
    assert assignment.endpoints == frozenset({1, 2, 3})
    assert assignment.abnormal == frozenset({1, 2})
    survivors = surviving_targets(links, report)
    assert list(survivors) == [1, -1, -1, -1]


def test_detect_abnormal_zero_budget_keeps_all_links():
    ds = TrackDataset.from_points(_chain_points())
    cfg = CbtrConfig(n_abnormal=0)
    links = build_links(ds, cfg)
    report = detect_abnormal(ds, links, cfg)
    assert report.worst_n == ()
    assert report.rescued_turns == frozenset()
    assert report.abnormal == report.no_bpnp == frozenset({3})


def test_worst_n_budget_respected():
    ds = _dataset(41, n_vessels=3, duration_s=900)
    for budget in (1, 5):
        cfg = CbtrConfig(n_abnormal=budget)
        links = build_links(ds, cfg)
        report = detect_abnormal(ds, links, cfg)
        assert len(report.worst_n) == budget
        expected = reference.worst_ranked(reference.pts_of(ds),
                                          reference.link_all(reference.pts_of(ds),
                                                             ds.alpha, cfg),
                                          cfg)
        assert list(report.worst_n) == expected


def test_build_links_thread_count_is_invisible(s1):
    one = build_links(s1, CFG, threads=1)
    four = build_links(s1, CFG, threads=4)
    assert np.array_equal(one.targets, four.targets)
    assert np.array_equal(one.modes, four.modes)
    assert np.array_equal(one.errors, four.errors, equal_nan=True)


def test_build_links_rejects_bad_args():
    ds = TrackDataset.from_points([AisPoint(0, 37.0, -76.0, 1.0, 0.0)])
    with pytest.raises(ValueError):
        build_links(ds, CFG, threads=0)


def test_union_find_components_match_search():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        targets = [int(rng.integers(-1, n)) for _ in range(n)]
        uf = UnionFind(n)
        ref_links = []
        for i, j in enumerate(targets):
            if j >= 0 and j != i:
                uf.union(i, j)
                ref_links.append((j, 0.0, "moving"))
            else:
                ref_links.append(None)
        got = components_by_first_point(uf, n)
        expected = reference.partition(list(range(n)), ref_links, set())
        assert list(got) == expected


def test_result_tuple_unpacks(s1_cbtr):
    assignment, links, report = s1_cbtr
    assert s1_cbtr.assignment is assignment
    assert s1_cbtr.links is links
    assert s1_cbtr.report is report


def test_input_order_does_not_matter():
    ds = _dataset(51, n_vessels=3, duration_s=900)
    seen = set()
    unique = []
    for p in ds.points:
        if p.t not in seen:  # keep distinct times so sorting is unambiguous
            seen.add(p.t)
            unique.append(p)
    baseline = TrackDataset.from_points(unique)
    shuffled = list(unique)
    np.random.default_rng(0).shuffle(shuffled)
    reordered = TrackDataset.from_points(shuffled)
    a = run_cbtr(baseline, CFG)
    b = run_cbtr(reordered, CFG)
    assert np.array_equal(a.links.targets, b.links.targets)
    assert np.array_equal(a.assignment.cluster_of, b.assignment.cluster_of)
    assert a.report.abnormal == b.report.abnormal
