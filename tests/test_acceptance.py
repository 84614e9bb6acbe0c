"""End-to-end bars the library commits to, one verdict line per criterion.

Each test prints "ACCEPTANCE NN <name>: PASS" or "... FAIL" (run pytest with
-s to see the lines) and then asserts.  Quality numbers measured once on the
pinned fixtures are frozen below as regression goldens; a diff there is a
behavior change, not noise.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import reference
from trackstitch.cbtr import build_links, run_cbtr
from trackstitch.metrics import correct_neighbor_rate, estimate_vessel_count, jumps_merges
from trackstitch.model import CbtrConfig
from trackstitch.npc import npc_classify, npc_cluster, npc_grouping_targets
from trackstitch.synth import (
    EVERY_2ND,
    EVERY_5TH,
    SynthConfig,
    downsample,
    even_odd_split,
    generate_fleet,
    scenario_s1,
    scenario_s1_gaps,
)

CFG = CbtrConfig()

# regression goldens, frozen from the first verified run on the pinned seeds
S1_N = 5437
S1_RATE = 0.9972385861561119
S1_CLUSTERS = 20
S1_NO_LINK = 5
S1_RESCUED = 35
S1_SEVERED_TOTAL = 20
DOWN5_N, DOWN5_RATE, DOWN5_JUMPS = 4357, 0.9967823488853137, 10
DOWN2_N, DOWN2_RATE, DOWN2_JUMPS = 2725, 0.9944852941176471, 16
GAPS_RATE_W1000, GAPS_JUMPS_W1000, GAPS_MERGES_W1000 = 0.995402758344993, 27, 2
GAPS_RATE_W300, GAPS_JUMPS_W300 = 0.9902, 38
NPC_RATE = 0.9994482251241493
NPC_CLASSIFY_ACC = 1.0


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _small_config(k: int) -> SynthConfig:
    return SynthConfig(n_vessels=1 + k % 5,
                       duration_s=600 + 450 * (k // 10),
                       noise_sigma_m=(0.0, 5.0, 12.0)[k % 3],
                       seed=1000 + k)


@pytest.fixture(scope="module")
def s1_ref(s1):
    pts = reference.pts_of(s1)
    links = reference.link_all(pts, s1.alpha, CFG)
    worst = reference.worst_ranked(pts, links, CFG)
    rescued = reference.rescue_set(pts, links, worst, s1.alpha, CFG)
    return pts, links, worst, rescued


@pytest.fixture(scope="module")
def down_runs(s1):
    out = {}
    for name, pattern in (("down5", EVERY_5TH), ("down2", EVERY_2ND)):
        ds = downsample(s1, pattern)
        out[name] = (ds, run_cbtr(ds, CFG))
    return out


@pytest.fixture(scope="module")
def gaps_runs():
    ds = generate_fleet(scenario_s1_gaps())
    return {"w1000": (ds, run_cbtr(ds, CbtrConfig(window_s=1000))),
            "w300": (ds, run_cbtr(ds, CbtrConfig(window_s=300)))}


@pytest.fixture(scope="module")
def drifter_runs():
    runs = []
    for k in range(100):
        cfg = SynthConfig(n_vessels=2,
                          archetypes=("steady-drifting", "steady-drifting"),
                          duration_s=3600, noise_sigma_m=0.0, seed=3000 + k)
        ds = generate_fleet(cfg)
        runs.append((ds, run_cbtr(ds, CFG)))
    return runs


@pytest.fixture(scope="module")
def npc_run(s1):
    targets = npc_grouping_targets(s1)
    return targets, npc_cluster(targets)


def test_01_link_choice_equals_brute_force():
    start = time.perf_counter()
    total = 0
    for k in range(50):
        ds = generate_fleet(_small_config(k))
        assert len(ds) <= 500
        pts = reference.pts_of(ds)
        targets = build_links(ds, CFG).targets
        for i in range(len(ds)):
            expected = reference.best_next(pts, i, ds.alpha, CFG)
            assert targets[i] == (-1 if expected is None else expected[0]), \
                f"seed {1000 + k} point {i}"
            total += 1
    elapsed = time.perf_counter() - start
    _verdict(1, "link choice equals brute force", elapsed < 30.0,
             f"{total} points across 50 fleets, {elapsed:.1f} s")


def _audit_moving_links(ds, links) -> tuple[int, int]:
    """Recount moving links whose direction agreement sits at or under the gate."""
    pts = reference.pts_of(ds)
    checked = violations = 0
    for i in range(len(ds)):
        if int(links.modes[i]) != 1:
            continue
        j = int(links.targets[i])
        a, b = pts[i], pts[j]
        dt = b[0] - a[0]
        plat, plon = reference.advance(a[1], a[2], a[3], a[4], dt)
        u = (CFG.angle_time_weight * dt, ds.alpha * (plat - a[1]), plon - a[2])
        v = (CFG.angle_time_weight * dt, ds.alpha * (b[1] - a[1]), b[2] - a[2])
        checked += 1
        if reference.cos3(u, v) <= CFG.cos_moving_min:
            violations += 1
    return checked, violations


def test_02_no_moving_link_beyond_angle_gate(s1, s1_cbtr, down_runs, gaps_runs):
    datasets = [(s1, s1_cbtr.links)]
    datasets += [(ds, res.links) for ds, res in down_runs.values()]
    datasets += [(ds, res.links) for ds, res in gaps_runs.values()]
    for k in range(6):
        ds = generate_fleet(_small_config(k))
        datasets.append((ds, run_cbtr(ds, CFG).links))
    checked = violations = 0
    for ds, links in datasets:
        c, v = _audit_moving_links(ds, links)
        checked += c
        violations += v
    _verdict(2, "no moving link beyond the angle gate", violations == 0,
             f"{checked} moving links audited, {violations} violations")


def test_03_distant_steady_vessels_never_merge(drifter_runs):
    merged = 0
    min_sep = math.inf
    bound = 0.0
    for ds, result in drifter_runs:
        mean_lat = float(np.mean(ds.lat))
        reach = (math.tan(math.acos(CFG.cos_steady_min))
                 * CFG.angle_time_weight * CFG.window_s
                 * 111320.0 * math.cos(math.radians(mean_lat)))
        bound = max(bound, reach)
        groups = {}
        for i in range(len(ds)):
            groups.setdefault(ds.vids[i], []).append(i)
        (_, a_idx), (_, b_idx) = sorted(groups.items())
        for i in a_idx:
            for j in b_idx:
                d = reference.ground_m(float(ds.lat[i]), float(ds.lon[i]),
                                       float(ds.lat[j]), float(ds.lon[j]))
                min_sep = min(min_sep, d)
        merged += jumps_merges(result.assignment, ds.vids)[1]
    ok = merged == 0 and min_sep > bound
    _verdict(3, "distant steady vessels never merge", ok,
             f"computed steady-link reach bound {bound:.1f} m "
             f"(1140 m is the usual conservative figure); "
             f"closest pair {min_sep:.0f} m; {merged} merges in 100 runs")


def test_04_endpoint_flags_rederived_independently(s1_cbtr, s1_ref):
    _, links, worst, rescued = s1_ref
    no_link = {i for i, link in enumerate(links) if link is None}
    expected = no_link | (set(worst) - rescued)
    endpoints = set(s1_cbtr.assignment.endpoints)
    ok = endpoints == expected
    _verdict(4, "endpoint flags re-derived independently", ok,
             f"{len(endpoints)} flagged, {len(expected)} expected, "
             f"{len(endpoints ^ expected)} disagreements")


def test_05_benchmark_quality_floors(s1, s1_cbtr, npc_run):
    rate = correct_neighbor_rate(s1_cbtr.links.targets, s1.vids)
    jumps, merges = jumps_merges(s1_cbtr.assignment, s1.vids)
    report = s1_cbtr.report

    npc_targets, npc_assignment = npc_run
    npc_rate = correct_neighbor_rate(npc_targets, s1.vids)

    train, test = even_odd_split(s1)
    labels = npc_classify(train, test)
    acc = sum(a == b for a, b in zip(labels, test.vids)) / len(labels)

    ok = (rate >= 0.99 and jumps + merges <= 5
          and npc_rate >= 0.94 and acc >= 0.98)
    _verdict(5, "benchmark quality floors", ok,
             f"cbtr rate {rate:.6f}, jumps+merges {jumps + merges}, "
             f"npc rate {npc_rate:.6f}, classify acc {acc:.6f}")

    # goldens for the pinned seed
    assert len(s1) == S1_N
    assert rate == pytest.approx(S1_RATE, abs=1e-12)
    assert (jumps, merges) == (0, 0)
    assert s1_cbtr.assignment.n_clusters == S1_CLUSTERS
    assert len(report.no_bpnp) == S1_NO_LINK
    assert len(report.rescued_turns) == S1_RESCUED
    assert len(report.abnormal) == S1_SEVERED_TOTAL
    assert npc_rate == pytest.approx(NPC_RATE, abs=1e-12)
    assert acc == NPC_CLASSIFY_ACC


def test_06_downsampling_degrades_gracefully(s1, s1_cbtr, down_runs):
    full_rate = correct_neighbor_rate(s1_cbtr.links.targets, s1.vids)
    ds5, res5 = down_runs["down5"]
    ds2, res2 = down_runs["down2"]
    rate5 = correct_neighbor_rate(res5.links.targets, ds5.vids)
    rate2 = correct_neighbor_rate(res2.links.targets, ds2.vids)
    ok = full_rate >= rate5 >= rate2 and rate5 >= 0.985
    _verdict(6, "downsampling degrades gracefully", ok,
             f"rates {full_rate:.6f} >= {rate5:.6f} >= {rate2:.6f}")

    assert (len(ds5), len(ds2)) == (DOWN5_N, DOWN2_N)
    assert rate5 == pytest.approx(DOWN5_RATE, abs=1e-12)
    assert rate2 == pytest.approx(DOWN2_RATE, abs=1e-12)
    assert jumps_merges(res5.assignment, ds5.vids) == (DOWN5_JUMPS, 0)
    assert jumps_merges(res2.assignment, ds2.vids) == (DOWN2_JUMPS, 0)


def test_07_short_window_fragments_gapped_tracks(gaps_runs):
    ds, wide = gaps_runs["w1000"]
    _, narrow = gaps_runs["w300"]
    jumps_wide, merges_wide = jumps_merges(wide.assignment, ds.vids)
    jumps_narrow, _ = jumps_merges(narrow.assignment, ds.vids)
    ok = jumps_narrow > jumps_wide
    _verdict(7, "short window fragments gapped tracks", ok,
             f"jumps {jumps_narrow} (window 300) > {jumps_wide} (window 1000)")

    assert (jumps_wide, merges_wide) == (GAPS_JUMPS_W1000, GAPS_MERGES_W1000)
    assert jumps_narrow == GAPS_JUMPS_W300
    rate_wide = correct_neighbor_rate(wide.links.targets, ds.vids)
    rate_narrow = correct_neighbor_rate(narrow.links.targets, ds.vids)
    assert rate_wide == pytest.approx(GAPS_RATE_W1000, abs=1e-12)
    assert rate_narrow == pytest.approx(GAPS_RATE_W300, abs=1e-12)


def test_08_near_linear_scaling(s1):
    density = len(s1) / scenario_s1().duration_s
    sizes = (12_500, 25_000, 50_000)
    fleets = [generate_fleet(replace(scenario_s1(), duration_s=int(round(target / density))))
              for target in sizes]
    # the sizes take turns, so a drift in CPU speed reaches each of them alike
    times = [[] for _ in sizes]
    for _ in range(9):
        for ds, took in zip(fleets, times):
            start = time.perf_counter()
            run_cbtr(ds, CFG)
            took.append(time.perf_counter() - start)
    # a stall only adds time, so each size's fastest run tracks the code
    # and not the machine
    fastest = [min(took) for took in times]
    r1 = fastest[1] / fastest[0]
    r2 = fastest[2] / fastest[1]
    ok = r1 <= 2.6 and r2 <= 2.6 and fastest[2] < 10.0
    _verdict(8, "near-linear scaling", ok,
             f"minima {fastest[0]:.2f}/{fastest[1]:.2f}/{fastest[2]:.2f} s "
             f"for {sizes[0]}/{sizes[1]}/{sizes[2]} points, "
             f"ratios {r1:.2f}, {r2:.2f}")


def test_09_vessel_count_identity(s1, s1_cbtr, down_runs, gaps_runs,
                                  drifter_runs, npc_run):
    cases = [("s1", s1, s1_cbtr.assignment)]
    cases += [(name, ds, res.assignment) for name, (ds, res) in down_runs.items()]
    cases += [(name, ds, res.assignment) for name, (ds, res) in gaps_runs.items()]
    cases += [(f"drifters-{k}", ds, res.assignment)
              for k, (ds, res) in enumerate(drifter_runs)]
    cases.append(("npc", s1, npc_run[1]))
    bad = []
    for name, ds, assignment in cases:
        jumps, merges = jumps_merges(assignment, ds.vids)
        estimate = estimate_vessel_count(assignment.n_clusters, jumps, merges)
        if estimate != len(set(ds.vids)):
            bad.append(name)
    _verdict(9, "vessel count identity", not bad,
             f"{len(cases)} labeled fixtures, mismatches: {bad or 'none'}")
