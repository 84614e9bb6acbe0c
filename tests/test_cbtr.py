import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import reference
from trackstitch import cbtr, search
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
from trackstitch.npc import npc_cluster, npc_grouping_targets
from trackstitch.search import SlabIndex
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


def _meridian_fleet():
    # every report on one meridian: the index's longitude span is 0
    ds = _dataset(66, n_vessels=4, duration_s=900)
    return replace(ds, lon=np.full(len(ds), -76.0))


def _one_time_fleet():
    ds = _dataset(67, n_vessels=4, duration_s=300)
    return replace(ds, t=np.full(len(ds), 100))


# longitude bin edges are this far apart when a chunk spans _LON_BINS of them
EDGE_STEP = 2.0**-20


def _edge_fleet():
    """Every report at a whole number of _SLAB_S seconds and on a longitude
    bin edge: the fleet spans exactly _LON_BINS steps of EDGE_STEP, so each
    report's scaled offset from the westmost is a whole number.  Its 2
    slabs hold 128 reports each on average, enough that the index's start
    table gets all _LON_BINS bins."""
    rng = np.random.default_rng(68)
    n = 256
    step = rng.integers(0, cbtr._LON_BINS + 1, n)
    step[:2] = 0, cbtr._LON_BINS
    return TrackDataset.from_columns(
        t=np.sort(rng.integers(0, 2, n)) * cbtr._SLAB_S, lat=37.0 + rng.uniform(0, 5e-4, n),
        lon=-76.0 + step * EDGE_STEP, sog=rng.choice([0.0, 0.5, 2.0, 8.0], n),
        cog=rng.uniform(0, 360, n))


def _on_edges(ds):
    offset = (ds.lon - ds.lon.min()) / EDGE_STEP
    return (bool(np.all(ds.t % cbtr._SLAB_S == 0)) and np.array_equal(offset, np.round(offset))
            and offset.max() == cbtr._LON_BINS and _index(ds).bins == cbtr._LON_BINS)


def _past_reach_points():
    """Report 0 is docked.  Within the first round's moving reach its
    window holds only reports that fail their gates: docked ones 0.01
    degrees north fail the time-axis gate, and fast ones 0.5 degrees north
    fail the heading gate.  Its one passing candidate, docked where it
    lies, comes 900 s on."""
    pts = [AisPoint(0, 37.0, -76.0, 0.0, 0.0)]
    pts += [AisPoint(t, 37.01, -76.0, 0.0, 0.0) for t in range(20, 240, 20)]
    pts += [AisPoint(t, 37.5, -76.0 + 1e-4 * t, 10.0, 90.0) for t in range(10, 240, 20)]
    return pts + [AisPoint(900, 37.0, -76.0, 0.0, 0.0)]


def _past_reach(ds, links):
    pts = reference.pts_of(ds)
    passing = [j for j in candidate_window(ds, 0, CFG)
               if reference.pair_score(pts[0], pts[j], ds.alpha, CFG) is not None]
    dt = float(ds.t[links.targets[0]] - ds.t[0])
    return (passing == [len(ds) - 1] and links.modes[0] == 2
            and (CFG.time_weight_moving * dt)**2 >= cbtr._START_BOUND)


# each fleet with the trait that makes it a pass-boundary case
BLOCK_FLEETS = {
    "tied": (_tied_fleet, lambda ds, links: bool(np.any(np.diff(ds.t) == 0))),
    "gapped": (_gapped_fleet, lambda ds, links: _has_mid_fleet_empty_window(ds)),
    "all-steady": (_steady_fleet, lambda ds, links: _linked_modes(links) == {2}),
    "all-moving": (_moving_fleet, lambda ds, links: _linked_modes(links) == {1}),
    "dense": (_dense_fleet, lambda ds, links: _time_bound_share(ds, links) >= 0.5),
    "one-meridian": (_meridian_fleet,
                     lambda ds, links: np.ptp(ds.lon) == 0 and bool(np.any(links.targets >= 0))),
    "one-report": (lambda: TrackDataset.from_points([AisPoint(0, 37.0, -76.0, 5.0, 0.0)]),
                   lambda ds, links: len(ds) == 1),
    "one-time": (_one_time_fleet, lambda ds, links: len(ds) > 1 and np.ptp(ds.t) == 0),
    "on-edges": (_edge_fleet, lambda ds, links: _on_edges(ds)
                 and len(_linked_modes(links)) == 2),
    "slow-past-reach": (lambda: TrackDataset.from_points(_past_reach_points()), _past_reach),
}


@pytest.fixture(scope="module", params=sorted(BLOCK_FLEETS))
def block_fleet(request):
    make, trait = BLOCK_FLEETS[request.param]
    ds = make()
    links = build_links(ds, CFG)
    assert trait(ds, links), f"{request.param} fleet lost its defining trait"
    return ds, links, reference.link_all(reference.pts_of(ds), ds.alpha, CFG)


def _search_in_parts(monkeypatch, n, parts):
    """Search ``n`` rows in at least ``parts`` chunks a round; 1 leaves a
    fleet of at most _CHUNK_ROWS reports in one chunk."""
    monkeypatch.setattr(cbtr, "_CHUNK_ROWS", min(cbtr._CHUNK_ROWS, -(-n // parts)))


def _assert_invisible(ds, default, expected, parts, monkeypatch):
    _search_in_parts(monkeypatch, len(ds), parts)
    links = build_links(ds, CFG)
    assert np.array_equal(links.targets, default.targets)
    assert np.array_equal(links.modes, default.modes)
    assert np.array_equal(links.errors, default.errors, equal_nan=True)
    _assert_links_match(links, expected)


@pytest.mark.parametrize("parts", [1, 4])
@pytest.mark.parametrize("cells", [1, 7, 97])
def test_block_size_is_invisible(block_fleet, cells, parts, monkeypatch):
    monkeypatch.setattr(cbtr, "_BLOCK_CELLS", cells)
    _assert_invisible(*block_fleet, parts, monkeypatch)


@pytest.mark.parametrize("parts", [1, 4])
@pytest.mark.parametrize("name, value", [
    ("_SLAB_S", 1), ("_SLAB_S", CFG.window_s + 1),
    ("_LON_BINS", 1), ("_LON_BINS", 4096),
    ("_START_BOUND", 1e-30), ("_START_BOUND", 1.0),
    # every chunk holds one row, or the whole fleet
    ("_CHUNK_ROWS", 1), ("_CHUNK_ROWS", 10**9),
], ids=["slab-1s", "slab-past-window", "bins-1", "bins-4096", "start-1e-30", "start-1",
        "chunk-one-row", "chunk-all-rows"])
def test_search_constants_are_invisible(block_fleet, name, value, parts, monkeypatch):
    monkeypatch.setattr(cbtr, name, value)
    if name == "_LON_BINS":
        # the start table's cap would give a small fleet fewer bins
        monkeypatch.setattr(search, "_TABLE_PER_REPORT", value)
        assert _index(block_fleet[0]).bins == value
    _assert_invisible(*block_fleet, parts, monkeypatch)


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
    rescued = reference.rescue_set(pts, ref_links, worst, ds.alpha, CFG)
    assert report.rescued_turns.tolist() == sorted(rescued)
    assert report.abnormal.tolist() == sorted(ref_abnormal)
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
    assert report.no_bpnp.tolist() == [3]
    assert set(report.worst_n.tolist()) == {0, 1, 2}
    # A continues straight through B, so it is kept; B bends 90 degrees at C
    # and is severed; C's target has no onward link to judge a bend by.
    assert report.rescued_turns.tolist() == [0]
    assert report.abnormal.tolist() == [1, 2, 3]


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
    assert report.worst_n.tolist() == [0]
    assert report.rescued_turns.tolist() == []
    assert report.abnormal.tolist() == [0, 1, 2]


def test_assemble_clusters_after_severing():
    ds = TrackDataset.from_points(_chain_points())
    cfg = CbtrConfig(n_abnormal=3)
    assignment, links, report = run_cbtr(ds, cfg)
    assert list(assignment.cluster_of) == [0, 0, 1, 2]
    assert assignment.n_clusters == 3
    assert assignment.endpoints.tolist() == [1, 2, 3]
    assert assignment.abnormal.tolist() == [1, 2]
    survivors = surviving_targets(links, report)
    assert list(survivors) == [1, -1, -1, -1]


def test_detect_abnormal_zero_budget_keeps_all_links():
    ds = TrackDataset.from_points(_chain_points())
    cfg = CbtrConfig(n_abnormal=0)
    links = build_links(ds, cfg)
    report = detect_abnormal(ds, links, cfg)
    assert report.worst_n.tolist() == []
    assert report.rescued_turns.tolist() == []
    assert report.abnormal.tolist() == report.no_bpnp.tolist() == [3]


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


def test_build_links_rejects_bad_args():
    # from_columns cannot build one, as an empty fleet has no latitude scale
    empty = np.zeros(0)
    ds = TrackDataset(t=np.zeros(0, dtype=np.int64), lat=empty, lon=empty, sog=empty, cog=empty,
                      vids=None, alpha=1.0)
    with pytest.raises(ValueError, match="empty dataset"):
        build_links(ds, CFG)


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


def test_flags_are_read_only_index_arrays(s1, s1_cbtr):
    assignment, _, report = s1_cbtr
    npc = npc_cluster(npc_grouping_targets(s1))
    ascending = [report.no_bpnp, report.rescued_turns, report.abnormal, assignment.endpoints,
                 assignment.abnormal, npc.endpoints, npc.abnormal]
    for flags in [report.worst_n, *ascending]:
        assert flags.dtype == np.int64
        assert not flags.flags.writeable
    for flags in ascending:
        assert np.all(np.diff(flags) > 0)
    # s1 flags some of each
    assert min(map(len, ascending[:5])) > 0


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
    assert np.array_equal(a.report.abnormal, b.report.abnormal)


def _north_sog(step):
    """A speed the kernel turns into exactly ``step`` degrees north a second."""
    sog = step / DEG_LAT_PER_KNOT_S
    for _ in range(4):
        got = sog * np.cos(0.0) * DEG_LAT_PER_KNOT_S
        if got == step:
            return sog
        sog = np.nextafter(sog, np.inf if got < step else 0.0)
    raise AssertionError(f"no speed gives {step} degrees a second")


def _index(ds):
    """The one index build_links searches: every report."""
    return SlabIndex(ds.t, ds.lon, cbtr._SLAB_S, cbtr._LON_BINS)


def _search_counts(ds, cfg):
    """The targets and errors of build_links, with the (rounds, cells
    scored) that _link_rows reports."""
    targets, errors, _, counts = cbtr._link_rows(cbtr._Workspace(ds, cfg), _index(ds))
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


@pytest.mark.parametrize("parts", [1, 4])
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
def test_offset_bound_boundary(make, best, floor, mode, cells, parts, monkeypatch):
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
    _search_in_parts(monkeypatch, len(ds), parts)
    links = build_links(ds, FLOOR_CFG)
    assert (links.targets[0], links.errors[0], links.modes[0]) == (winner, min(floor, best), mode)
    # every score here is far below the first round's bound, so one round
    # links every row, scoring each of the three window cells once
    assert _search_counts(ds, FLOOR_CFG)[2] == (1, 3)
    assert _search_counts(alone(1), FLOOR_CFG)[2] == (1, 1)


# every pair moves, and the time terms lie far below an ulp of the offsets
TUBE_CFG = CbtrConfig(time_weight_moving=2.0**-60, time_weight_steady=2.0**-60,
                      moving_speed_sum=0.0)


def _tube_track(west_1, west_2):
    """Report 0 heads due east at 0.001 kn, so its dead-reckoned latitude
    stays 37.  Reports 1 and 2, 4 s on, lie docked ``west_1`` and
    ``west_2`` ulps of longitude west of report 0's own position.  Docked
    there, a report scores fo**2 / 2 exactly, its floor in the tube; an
    ulp west, it scores more.  Report 3, also 4 s on, lies 0.01 degrees
    east, outside every tube of the first two rounds, so the first round
    cannot cover report 0's window."""
    lon = [-76.0, -76.0, -76.0, -75.99]
    for k, ulps in ((1, west_1), (2, west_2)):
        for _ in range(ulps):
            lon[k] = np.nextafter(lon[k], -np.inf)
    return TrackDataset(t=np.array([0, 4, 4, 4]), lat=np.full(4, 37.0), lon=np.array(lon),
                        sog=np.array([0.001, 0.0, 0.0, 0.0]), cog=np.array([90.0, 0, 0, 0]),
                        vids=None, alpha=1.0)


def _tube_holds(ds, cfg, i, j, bound):
    """Whether row i's tube at ``bound`` holds column j: in one of its runs,
    within that run's latitudes."""
    index = _index(ds)
    _, first, stop, south, north = cbtr._tube(index, cbtr._Workspace(ds, cfg), np.array([i]),
                                              bound)
    return any(j in index.cols[a:b] and s <= ds.lat[j] <= n
               for a, b, s, n in zip(first, stop, south, north))


@pytest.mark.parametrize("tie", [True, False], ids=["tie", "report-2-lower"])
@pytest.mark.parametrize("west_2, above", [
    # report 2's floor equals the bound
    (0, 0),
    # report 2's floor lies one ulp below the bound
    (0, 1),
    # report 2 lies one ulp of longitude outside the tube's edge
    (1, 0),
], ids=["floor-equal", "floor-one-ulp-below", "one-ulp-outside"])
def test_tube_boundary(west_2, above, tie, monkeypatch):
    """Slabs of 4 s start at report 1's time, so report 0's tube over that
    slab starts at its dead-reckoned position 4 s on.  The bound puts the
    tube's edge sqrt(2 * bound) west of there at report 0's own longitude,
    up to the bound's ulps ``above``.  Report 1 ties with report 2, or
    scores more."""
    ds = _tube_track(west_2 if tie else west_2 + 1, west_2)
    ws = cbtr._Workspace(ds, TUBE_CFG)
    fo = (ws.ve[0] * 4.0 + ds.lon[0]) - ds.lon[0]
    bound = (fo * fo) * 0.5
    for _ in range(above):
        bound = np.nextafter(bound, 1.0)
    score = link_of(replace(ds, **{f: getattr(ds, f)[[0, 2]]
                                   for f in ("t", "lat", "lon", "sog", "cog")}), 0, TUBE_CFG)[1]
    assert (score == bound) == (west_2 == 0 and above == 0)
    assert (score < bound) == (above > 0)
    monkeypatch.setattr(cbtr, "_SLAB_S", 4)
    monkeypatch.setattr(cbtr, "_START_BOUND", bound)
    links = build_links(ds, TUBE_CFG)
    _assert_links_match(links, reference.link_all(reference.pts_of(ds), ds.alpha, TUBE_CFG))
    assert (links.targets[0], links.errors[0]) == ((1 if tie else 2), score)
    # a score below the bound puts report 2 in the first round's tube and
    # decides the link there; otherwise the second round decides it
    assert not _tube_holds(ds, TUBE_CFG, 0, 3, bound)
    if score < bound:
        assert _tube_holds(ds, TUBE_CFG, 0, 2, bound)
    assert _search_counts(ds, TUBE_CFG)[2][0] == (1 if score < bound else 2)


# as TUBE_CFG, and every heading passes its gate
BOX_CFG = replace(TUBE_CFG, cos_moving_min=-1.0)
# a latitude scale at which sqrt(2 * bound) / alpha, unwidened, rounds to
# a box that ends just north of report 2 in the first round below
BOX_ALPHA = 0.7
# an ulp of report 2's latitude offset 0.375
BOX_STEP = 2.0**-54


def _box_track(south_1, south_2):
    """Report 0, at latitude 0.1875, heads due north at 0.09375 degrees a
    second, so its dead-reckoned latitude 4 s on is 0.5625 and its longitude
    stays.  Reports 1 and 2, 4 s on, lie docked ``south_1`` and ``south_2``
    steps of BOX_STEP south of report 0's own position.  Docked there, a
    report scores fl**2 / 2 exactly, its floor in the box; a step south, it
    scores more.  Report 3, also 4 s on, lies 5 degrees north, outside every
    box of the first two rounds, so the first round cannot cover report 0's
    window."""
    lat = [0.1875, 0.1875 - south_1 * BOX_STEP, 0.1875 - south_2 * BOX_STEP, 5.0]
    return TrackDataset(t=np.array([0, 4, 4, 4]), lat=np.array(lat), lon=np.full(4, -76.0),
                        sog=np.array([_north_sog(0.09375), 0.0, 0.0, 0.0]), cog=np.zeros(4),
                        vids=None, alpha=BOX_ALPHA)


@pytest.mark.parametrize("tie", [True, False], ids=["tie", "report-2-lower"])
@pytest.mark.parametrize("south_2, above", [
    # report 2's floor equals the bound
    (0, 0),
    # report 2's floor lies one ulp below the bound
    (0, 1),
    # report 2 lies one step of latitude outside the box's edge
    (1, 0),
], ids=["floor-equal", "floor-one-ulp-below", "one-step-outside"])
def test_box_latitude_boundary(south_2, above, tie, monkeypatch):
    """The latitude side of test_tube_boundary.  Slabs of 4 s start at
    report 1's time, so report 0's box over that slab starts at its
    dead-reckoned latitude 4 s on.  The bound puts the box's south edge
    R / alpha south of there, and report 0's own latitude 0.375 south of it,
    up to the bound's ulps ``above``.  Report 1 ties with report 2, or
    scores more."""
    ds = _box_track(south_2 if tie else south_2 + 1, south_2)
    fl = (0.5625 - 0.1875) * BOX_ALPHA
    bound = (fl * fl) * 0.5
    for _ in range(above):
        bound = np.nextafter(bound, 1.0)
    score = link_of(replace(ds, **{f: getattr(ds, f)[[0, 2]]
                                   for f in ("t", "lat", "lon", "sog", "cog")}), 0, BOX_CFG)[1]
    assert (score == bound) == (south_2 == 0 and above == 0)
    assert (score < bound) == (above > 0)
    monkeypatch.setattr(cbtr, "_SLAB_S", 4)
    monkeypatch.setattr(cbtr, "_START_BOUND", bound)
    links = build_links(ds, BOX_CFG)
    _assert_links_match(links, reference.link_all(reference.pts_of(ds), ds.alpha, BOX_CFG))
    assert (links.targets[0], links.errors[0]) == ((1 if tie else 2), score)
    assert not _tube_holds(ds, BOX_CFG, 0, 3, bound)
    if score < bound:
        # report 2 lies just south of sqrt(2 * bound) / alpha: only the
        # slack of R puts it in the first round's box
        assert 0.5625 - np.sqrt(2.0 * bound) / BOX_ALPHA > 0.1875
        assert _tube_holds(ds, BOX_CFG, 0, 2, bound)
    assert _search_counts(ds, BOX_CFG)[2][0] == (1 if score < bound else 2)


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


@pytest.mark.parametrize("parts", [1, 4])
@pytest.mark.parametrize("cells", [1, 7, 16384])
def test_lowest_offset_cell_failing_its_gate_does_not_link(cells, parts, monkeypatch):
    ds = TrackDataset.from_points(_gated_points())
    pts = reference.pts_of(ds)
    offsets = [abs(complex(*reference.advance(37.0, -76.0, 10.0, 0.0, int(ds.t[k])))
                   - complex(ds.lat[k], ds.lon[k])) for k in (1, 2, 3)]
    assert offsets[1] < offsets[2] < offsets[0]
    assert reference.pair_score(pts[0], pts[1], ds.alpha, CFG) is not None
    assert reference.pair_score(pts[0], pts[2], ds.alpha, CFG) is None
    monkeypatch.setattr(cbtr, "_BLOCK_CELLS", cells)
    _search_in_parts(monkeypatch, len(ds), parts)
    links = build_links(ds, CFG)
    expected = reference.link_all(pts, ds.alpha, CFG)
    assert expected[0][0] == 3
    _assert_links_match(links, expected)


def test_cell_counts_are_pinned():
    # rounds of the bound-driven search and cells scored; a change that
    # widens the tube, or needs more rounds, shows here first
    ds = _dense_fleet()
    targets, errors, counts = _search_counts(ds, CFG)
    links = build_links(ds, CFG)
    assert np.array_equal(targets, links.targets)
    assert np.array_equal(errors[targets >= 0], links.errors[targets >= 0])
    assert counts == (10, 1162)


@pytest.mark.parametrize("gap", [598, 599], ids=["last-2**63-2", "last-int64-max"])
def test_reports_near_the_end_of_int64_time_link_as_their_shifted_copy(gap):
    # report 1 lies 2**63 - 600 s after report 0, and report 2 ``gap`` s
    # after report 1, so no window end that adds window_s to a time fits
    def fleet(t1):
        return TrackDataset.from_columns(t=[0, t1, t1 + gap], lat=[30, 37, 37],
                                         lon=[-70, -76, -76], sog=[0, 0, 0], cog=[0, 0, 0])

    late, shifted = fleet(2**63 - 600), fleet(1_000_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        links = build_links(late, CFG)
        windows = [candidate_window(late, i, CFG).tolist() for i in range(3)]
        clusters = run_cbtr(late, replace(CFG, n_abnormal=0)).assignment.cluster_of
    expected = build_links(shifted, CFG)
    assert links.targets.tolist() == [-1, 2, -1]
    assert np.array_equal(links.targets, expected.targets)
    assert np.array_equal(links.modes, expected.modes)
    assert np.array_equal(links.errors, expected.errors, equal_nan=True)
    assert windows == [candidate_window(shifted, i, CFG).tolist() for i in range(3)]
    assert windows == [[], [2], []]
    assert clusters.tolist() == [0, 1, 1]


@pytest.mark.parametrize("lon, inward", [
    (-75.5, -np.inf),
    (np.nextafter(-75.5, -np.inf), np.inf),
], ids=["east-end-on-bin-edge", "west-end-below-bin-edge"])
def test_index_runs_hold_a_column_at_either_rounded_end(lon, inward):
    """Columns at -76 and -75 cut the longitudes into 4 bins of exactly a
    quarter degree, so -75.5 is bin 2's lower edge and the double below it
    lies in bin 1.  An interval whose ends are both the middle column's
    longitude holds that column; moved one ulp inward, the end that
    ``inward`` points to would bin it out of the run."""
    index = SlabIndex(np.zeros(3, dtype=np.int64), np.array([-76.0, lon, -75.0]), 128, 4)
    assert index.bins == 4
    assert index.bin(np.array([np.nextafter(lon, inward)])) != index.bin(np.array([lon]))
    kept, first, stop = index.runs(np.array([0]), np.array([lon]), np.array([lon]))
    assert kept.tolist() == [0]
    assert index.cols[first[0]:stop[0]].tolist() == [1]


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
    links = build_links(strided, CFG)
    assert np.array_equal(links.targets, expected.targets)
    assert np.array_equal(links.modes, expected.modes)
    assert np.array_equal(links.errors, expected.errors, equal_nan=True)


def test_link_memory_is_bounded():
    # the benchmark's harbor hour: ~12.4k reports and 36.8M window cells,
    # which as float64 alone would take 294 MB.  The search holds the index,
    # one block of cells and the tube runs of _CHUNK_ROWS rows; the column
    # sweep it replaced peaked at 7.6 MB here
    ds = generate_fleet(SynthConfig(n_vessels=200, duration_s=3600, noise_sigma_m=10.0, seed=7))
    tracemalloc.start()
    try:
        build_links(ds, CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def _long_span_fleet():
    """A small fleet's 600 s, repeated nine times 1.25e8 s apart, so its
    reports span 10**9 s: 49 of the span's 7.8M slabs of 128 s hold a
    report."""
    ds = _dataset(69, n_vessels=3, duration_s=600)
    shift = np.repeat(np.arange(9) * 125_000_000, len(ds))
    return TrackDataset.from_columns(t=np.tile(ds.t, 9) + shift, lat=np.tile(ds.lat, 9),
                                     lon=np.tile(ds.lon, 9), sog=np.tile(ds.sog, 9),
                                     cog=np.tile(ds.cog, 9))


def test_long_span_fleet_links_in_small_memory():
    # the index holds only the slabs with a report; one int32 per slab of
    # the span would alone take 31 MB.  The rest is the block buffers
    ds = _long_span_fleet()
    assert ds.t[-1] - ds.t[0] >= 10**9
    tracemalloc.start()
    try:
        links = build_links(ds, CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    _assert_links_match(links, reference.link_all(reference.pts_of(ds), ds.alpha, CFG))
