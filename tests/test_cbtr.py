import warnings
from dataclasses import replace

import numpy as np
import pytest

import reference
from trackstitch import cbtr
from trackstitch.cbtr import (
    build_links,
    candidate_window,
    components_of,
    detect_abnormal,
    run_cbtr,
    surviving_targets,
)
from trackstitch.kinematics import DEG_LAT_PER_KNOT_S
from trackstitch.model import AisPoint, CbtrConfig, TrackDataset
from trackstitch.synth import SynthConfig, generate_fleet

from conftest import MODE_NAME, link_of, small_mixed_config

CFG = CbtrConfig()


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


def test_link_no_candidates():
    ds = TrackDataset.from_points([AisPoint(0, 37.0, -76.0, 5.0, 0.0)])
    assert link_of(ds, 0) is None


def test_link_steady_screen_rejects_far_pair():
    # slow pair 5.5 km apart: displacement swamps the time axis
    pts = [AisPoint(0, 37.0, -76.0, 0.0, 0.0),
           AisPoint(100, 37.05, -76.0, 0.0, 0.0)]
    ds = TrackDataset.from_points(pts)
    assert link_of(ds, 0) is None


def test_link_moving_screen_rejects_candidate_astern():
    pts = [AisPoint(0, 37.0, -76.0, 10.0, 0.0),
           AisPoint(100, 36.99, -76.0, 10.0, 0.0)]
    ds = TrackDataset.from_points(pts)
    assert link_of(ds, 0) is None


def test_link_tie_takes_first_candidate():
    lat, lon = reference.advance(37.0, -76.0, 10.0, 0.0, 100)
    pts = [AisPoint(0, 37.0, -76.0, 10.0, 0.0),
           AisPoint(100, lat, lon, 10.0, 0.0),
           AisPoint(100, lat, lon, 10.0, 0.0)]
    ds = TrackDataset.from_points(pts)
    found = link_of(ds, 0)
    assert found is not None
    j, err, mode = found
    assert j == 1
    assert mode == "moving"


# seed -> (vessels, duration in s) of the fleet compared with the oracle
REFERENCE_FLEETS = {**{seed: (3, 900) for seed in range(11, 15)},
                    **{seed: (4, 1200) for seed in range(21, 29)}}


@pytest.mark.parametrize("seed", sorted(REFERENCE_FLEETS))
def test_build_links_matches_reference(seed):
    n_vessels, duration_s = REFERENCE_FLEETS[seed]
    ds = _dataset(seed, n_vessels=n_vessels, duration_s=duration_s)
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


def _dense_fleet():
    # every report's window spans the whole fleet
    return generate_fleet(SynthConfig(n_vessels=20, duration_s=600, seed=65))


def _linked_modes(links):
    return set(links.modes[links.targets >= 0].tolist())


def _time_bound_share(ds, links):
    """Share of window cells whose moving time term, computed as the kernel
    does, is at least their row's final error: cells that can be skipped."""
    skippable = total = 0
    for i in range(len(ds)):
        dt = (ds.t[candidate_window(ds, i, CFG)] - ds.t[i]).astype(np.float64)
        tt = CFG.time_weight_moving * dt
        skippable += int(np.sum(tt * tt >= links.errors[i]))
        total += dt.size
    return skippable / total


# each fleet with the trait that makes it a pass-boundary case
BLOCK_FLEETS = {
    "tied": (_tied_fleet, lambda ds, links: bool(np.any(np.diff(ds.t) == 0))),
    "gapped": (_gapped_fleet, lambda ds, links: _has_mid_fleet_empty_window(ds)),
    "all-steady": (_steady_fleet, lambda ds, links: _linked_modes(links) == {2}),
    "all-moving": (_moving_fleet, lambda ds, links: _linked_modes(links) == {1}),
    "dense": (_dense_fleet, lambda ds, links: _time_bound_share(ds, links) >= 0.5),
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


# with a dyadic time weight and alpha 1, every step of the scores below is exact
EXACT_CFG = CbtrConfig(time_weight_moving=2.0**-20)
SCORE = 25 * 2.0**-40


def _exact_track(offset_lat, later_dt, later_east):
    """Report 0 heads due north, too fast to pair as steady, at a speed the
    kernel turns into exactly 2**-16 degrees a second.  Report 1, 3 s on, is
    2**-18 degrees east and ``offset_lat`` north of where dead reckoning puts
    it; report 2, ``later_dt`` s on, is ``later_east`` degrees east of it.
    Each score is its time term (dt * 2**-20)**2 plus its squared offsets."""
    step = 2.0**-16
    sog = step / DEG_LAT_PER_KNOT_S
    assert sog * np.cos(0.0) * DEG_LAT_PER_KNOT_S == step and sog > CFG.moving_speed_sum
    return TrackDataset(
        t=np.array([0, 3, later_dt]),
        lat=np.array([37.0, 37.0 + 3 * step + offset_lat, 37.0 + later_dt * step]),
        lon=np.array([-76.0, -76.0 + 2.0**-18, -76.0 + later_east]),
        sog=np.full(3, sog), cog=np.zeros(3), vids=None, alpha=1.0)


@pytest.mark.parametrize("cells", [1, 2, 16384])
@pytest.mark.parametrize("offset_lat, later_dt, later_east, winner", [
    # report 2 scores its time term, one ulp below report 1's score
    (2.0**-44, 5, 0.0, 2),
    # report 2 scores its time term, equal to report 1's score
    (0.0, 5, 0.0, 1),
    # report 2's time term is below report 1's score, its score equal to it
    (0.0, 4, 3 * 2.0**-20, 1),
], ids=["bound-one-ulp-below", "bound-equal", "score-equal"])
def test_time_bound_boundary(offset_lat, later_dt, later_east, winner, cells, monkeypatch):
    ds = _exact_track(offset_lat, later_dt, later_east)

    def alone(k):
        return replace(ds, **{f: getattr(ds, f)[[0, k]]
                              for f in ("t", "lat", "lon", "sog", "cog")})

    assert link_of(alone(1), 0, EXACT_CFG)[1] == (np.nextafter(SCORE, 1.0) if offset_lat
                                                  else SCORE)
    assert link_of(alone(2), 0, EXACT_CFG)[1] == SCORE
    assert link_of(ds, 0, EXACT_CFG) == (winner, SCORE, "moving")
    monkeypatch.setattr(cbtr, "_BLOCK_CELLS", cells)
    links = build_links(ds, EXACT_CFG)
    assert (links.targets[0], links.errors[0], links.modes[0]) == (winner, SCORE, 1)


def _late_link_points(with_link):
    """Report 0 heads north at 10 kn.  The reports after it lie astern, which
    the heading gate rejects, except (``with_link``) one dead ahead at the
    far edge of report 0's window."""
    pts = [AisPoint(0, 37.0, -76.0, 10.0, 0.0)]
    pts += [AisPoint(t, 36.99, -76.0, 0.0, 0.0) for t in range(10, CFG.window_s, 10)]
    if with_link:
        lat, lon = reference.advance(37.0, -76.0, 10.0, 0.0, CFG.window_s)
        pts.append(AisPoint(CFG.window_s, lat, lon, 10.0, 0.0))
    return pts


@pytest.mark.parametrize("cells", [1, 7, 16384])
@pytest.mark.parametrize("with_link", [True, False])
def test_row_without_link_is_scanned_to_its_window_end(with_link, cells, monkeypatch):
    ds = TrackDataset.from_points(_late_link_points(with_link))
    monkeypatch.setattr(cbtr, "_BLOCK_CELLS", cells)
    links = build_links(ds, CFG)
    _assert_links_match(links, reference.link_all(reference.pts_of(ds), ds.alpha, CFG))
    assert links.targets[0] == (len(ds) - 1 if with_link else -1)


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
    pts = reference.pts_of(ds)
    ref_links, ref_abnormal, ref_labels = reference.run_pipeline(pts, ds.alpha, CFG)
    got_targets = [int(x) if x >= 0 else None for x in links.targets]
    assert got_targets == [x[0] if x else None for x in ref_links]
    worst = reference.worst_ranked(pts, ref_links, CFG)
    assert list(report.worst_n) == worst
    assert report.rescued_turns == reference.rescue_set(pts, ref_links, worst, ds.alpha, CFG)
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


def test_detect_abnormal_needs_a_continuation():
    """A worst link whose target has no link is never rescued, even where a
    later report would make a shallow bend with it."""
    a = (0, 37.0, -76.0, 5.0, 90.0)
    lat, lon = reference.advance(37.0, -76.0, 5.0, 90.0, 60)
    b = (60, lat, lon, 5.0, 90.0)
    # beyond b's window, straight on
    lat, lon = reference.advance(lat, lon, 5.0, 90.0, 2000)
    c = (2060, lat, lon, 5.0, 90.0)
    ds = TrackDataset.from_points([AisPoint(*p) for p in (a, b, c)])
    links = build_links(ds, CFG)
    assert list(links.targets) == [1, -1, -1]
    report = detect_abnormal(ds, links, CFG)
    assert report.worst_n == (0,)
    assert report.rescued_turns == frozenset()
    assert report.abnormal == frozenset({0, 1, 2})


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
        ref_links = [(j, 0.0, "moving") if j >= 0 and j != i else None
                     for i, j in enumerate(targets)]
        got = components_of(np.array(targets, dtype=np.int64))
        expected = reference.partition(list(range(n)), ref_links, set())
        assert list(got) == expected


def _random_graph(rng, n, kind):
    if kind == "any":  # npc-like: links point anywhere, cycles included
        return rng.integers(-1, n, n)
    if kind == "cyclic":  # every report linked: one cycle per component
        return rng.integers(0, n, n)
    # cbtr-like: links only point forward in time
    ahead = np.array([int(rng.integers(i + 1, n + 1)) for i in range(n)])
    return np.where((ahead < n) & (rng.random(n) < 0.8), ahead, -1)


@pytest.mark.parametrize("kind", ["any", "cyclic", "forward"])
def test_components_match_search_on_many_graphs(kind):
    rng = np.random.default_rng({"any": 11, "cyclic": 12, "forward": 13}[kind])
    for _ in range(1000):
        n = int(rng.integers(1, 70))
        targets = _random_graph(rng, n, kind)
        ref_links = [(int(j), 0.0, "moving") if j >= 0 and j != i else None
                     for i, j in enumerate(targets)]
        got = components_of(targets.astype(np.int64))
        assert got.tolist() == reference.partition(list(range(n)), ref_links, set())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 65, 1000])
def test_components_of_longest_paths(n):
    # a chain walked backward and one cycle through every report take the
    # most doublings to settle
    backward = np.arange(-1, n - 1)
    assert components_of(backward).tolist() == [0] * n
    cycle = np.roll(np.arange(n), 1)
    assert components_of(cycle).tolist() == [0] * n
    # a tail feeding the cycle's far end, plus a separate sink first
    tail = np.concatenate(([-1], np.arange(2, n + 1), [n]))
    assert components_of(tail).tolist() == [0] + [1] * n


def test_result_tuple_unpacks(s1_cbtr):
    assignment, links, report = s1_cbtr
    assert s1_cbtr.assignment is assignment
    assert s1_cbtr.links is links
    assert s1_cbtr.report is report


def test_input_order_does_not_matter():
    ds = _dataset(51, n_vessels=3, duration_s=900)
    seen = set()
    unique = []
    for i in range(len(ds)):
        p = ds.point(i)
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


def _north_sog(step):
    """A speed the kernel turns into exactly ``step`` degrees north a second."""
    sog = step / DEG_LAT_PER_KNOT_S
    for _ in range(4):
        got = sog * np.cos(0.0) * DEG_LAT_PER_KNOT_S
        if got == step:
            return sog
        sog = np.nextafter(sog, np.inf if got < step else 0.0)
    raise AssertionError(f"no speed gives {step} degrees a second")


def _fill_counts(ds, cfg):
    """build_links for one worker, with the cell counts _fill_links reports."""
    ws = cbtr._Workspace(ds, cfg)
    lo, hi = cbtr._window_bounds(ds.t, ds.t, cfg.window_s)
    targets = np.full(len(ds), -1)
    errors = np.full(len(ds), np.inf)
    modes = np.zeros(len(ds), dtype=np.int8)
    counts = cbtr._fill_links(ws, cbtr._sweep_columns(ws, lo, hi), lo, hi, targets, errors, modes, 0, len(ds))
    return targets, errors, counts


# time terms far below an ulp of the offsets, so each score below is its
# offset terms alone, and every step of it is exact (alpha 1)
FLOOR_CFG = CbtrConfig(time_weight_moving=2.0**-60, time_weight_steady=2.0**-60)
DELTA = 2.0**-20


def _moving_floor_track(nudge):
    """Reports 0 to 2 head due north, too fast to pair as steady.  Report 0
    moves 2**-16 degrees a second.  Reports 1 (2 s on) and 2 (4 s on) lie
    DELTA north of report 0's dead-reckoned position, and each moves at the
    speed that takes it back to report 0 exactly, less ``nudge`` degrees
    for report 1.  So cell (0, 2) scores its bound DELTA**2 / 2, and cell
    (0, 1) scores (DELTA**2 + nudge**2) / 2."""
    a = 2.0**-16
    lat = np.array([37.0, 37.0 + 2 * a + DELTA, 37.0 + 4 * a + DELTA])
    steps = [a, a + (DELTA - nudge) / 2, a + DELTA / 4]
    sog = np.array([_north_sog(s) for s in steps])
    assert (sog > FLOOR_CFG.moving_speed_sum).all()
    return TrackDataset(t=np.array([0, 2, 4]), lat=lat, lon=np.full(3, -76.0), sog=sog,
                        cog=np.zeros(3), vids=None, alpha=1.0)


def _steady_floor_track(east):
    """Three docked reports: report 1 (2 s on) lies DELTA north and ``east``
    degrees east of report 0, report 2 (4 s on) DELTA north of it.  Cell
    (0, 2) scores its bound DELTA**2, cell (0, 1) DELTA**2 + east**2."""
    return TrackDataset(t=np.array([0, 2, 4]), lat=np.array([37.0, 37.0 + DELTA, 37.0 + DELTA]),
                        lon=np.array([-76.0, -76.0 + east, -76.0]), sog=np.zeros(3),
                        cog=np.zeros(3), vids=None, alpha=1.0)


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("cells", [1, 7, 16384])
@pytest.mark.parametrize("make, best, floor, mode", [
    # report 1 holds a best one ulp above cell (0, 2)'s bound
    (lambda: _moving_floor_track(2.0**-46), np.nextafter(DELTA**2 / 2, 1.0), DELTA**2 / 2, 1),
    # report 1 holds a best equal to cell (0, 2)'s bound
    (lambda: _moving_floor_track(0.0), DELTA**2 / 2, DELTA**2 / 2, 1),
    (lambda: _steady_floor_track(2.0**-46), np.nextafter(DELTA**2, 1.0), DELTA**2, 2),
    (lambda: _steady_floor_track(0.0), DELTA**2, DELTA**2, 2),
], ids=["moving-bound-one-ulp-below", "moving-bound-equal",
        "steady-bound-one-ulp-below", "steady-bound-equal"])
def test_offset_bound_boundary(make, best, floor, mode, cells, threads, monkeypatch):
    ds = make()

    def alone(k):
        return replace(ds, **{f: getattr(ds, f)[[0, k]]
                              for f in ("t", "lat", "lon", "sog", "cog")})

    # cell (0, 2) scores exactly its bound, so it wins only below the best
    assert link_of(alone(1), 0, FLOOR_CFG)[1] == best
    assert link_of(alone(2), 0, FLOOR_CFG)[1] == floor
    winner = 2 if floor < best else 1
    assert link_of(ds, 0, FLOOR_CFG)[0] == winner
    monkeypatch.setattr(cbtr, "_BLOCK_CELLS", cells)
    links = build_links(ds, FLOOR_CFG, threads=threads)
    assert (links.targets[0], links.errors[0], links.modes[0]) == (winner, min(floor, best), mode)
    # cell (0, 2) is screened against report 1's best, and scored in full
    # only when its bound is below it
    _, _, (screened, scored) = _fill_counts(ds, FLOOR_CFG)
    _, _, (_, scored_alone) = _fill_counts(alone(1), FLOOR_CFG)
    assert screened >= 1
    assert scored == scored_alone + 1 + (winner == 2)


def _gated_points():
    """Report 0 heads north at 10 kn.  Report 1 (5 s on) lies 0.002 degrees
    ahead of its dead-reckoned position and gives it a first link.  Report
    2 (10 s on) lies just astern of report 0: closer to the dead-reckoned
    position than anything else, but failing the heading gate.  Report 3
    (20 s on) lies 0.001 degrees ahead of it and takes the link."""
    ahead = [reference.advance(37.0, -76.0, 10.0, 0.0, t) for t in (5, 20)]
    return [AisPoint(0, 37.0, -76.0, 10.0, 0.0),
            AisPoint(5, ahead[0][0] + 0.002, ahead[0][1], 10.0, 0.0),
            AisPoint(10, 37.0 - 1e-5, -76.0, 10.0, 0.0),
            AisPoint(20, ahead[1][0] + 0.001, ahead[1][1], 10.0, 0.0)]


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("cells", [1, 7, 16384])
def test_lowest_offset_cell_failing_its_gate_does_not_link(cells, threads, monkeypatch):
    ds = TrackDataset.from_points(_gated_points())
    pts = reference.pts_of(ds)
    offsets = [abs(complex(*reference.advance(37.0, -76.0, 10.0, 0.0, int(ds.t[k])))
                   - complex(ds.lat[k], ds.lon[k])) for k in (1, 2, 3)]
    assert offsets[1] < offsets[2] < offsets[0]
    assert reference.pair_score(pts[0], pts[1], ds.alpha, CFG) is not None
    assert reference.pair_score(pts[0], pts[2], ds.alpha, CFG) is None
    monkeypatch.setattr(cbtr, "_BLOCK_CELLS", cells)
    links = build_links(ds, CFG, threads=threads)
    expected = reference.link_all(pts, ds.alpha, CFG)
    assert expected[0][0] == 3
    _assert_links_match(links, expected)


def test_cell_counts_are_pinned():
    # cells screened (rows with a link) and cells scored in full (the
    # screen's survivors and every cell of rows without a link); a change
    # that stops screening, or screens less, shows here first
    ds = _dense_fleet()
    targets, errors, counts = _fill_counts(ds, CFG)
    links = build_links(ds, CFG)
    assert np.array_equal(targets, links.targets)
    assert np.array_equal(errors[targets >= 0], links.errors[targets >= 0])
    assert counts == (5543, 3727)


@pytest.mark.parametrize("step", [1, -1], ids=["table-columns", "reversed-table-columns"])
def test_strided_columns_give_the_same_links(step):
    # columns sliced from one (n, 4) table are views with a row stride, and
    # negative when the table is stored in reverse
    ds = _dense_fleet()
    stored = np.ascontiguousarray(np.column_stack([ds.lat, ds.lon, ds.sog, ds.cog])[::step])
    table = stored[::step]
    strided = replace(ds, lat=table[:, 0], lon=table[:, 1], sog=table[:, 2], cog=table[:, 3])
    assert strided.lat.strides == (step * 4 * ds.lat.itemsize,)
    expected = build_links(ds, CFG)
    for threads in (1, 2):
        links = build_links(strided, CFG, threads=threads)
        assert np.array_equal(links.targets, expected.targets)
        assert np.array_equal(links.modes, expected.modes)
        assert np.array_equal(links.errors, expected.errors, equal_nan=True)
