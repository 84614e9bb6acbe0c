"""Run both reconstruction algorithms on the benchmark fleet and print a
side-by-side quality summary, then time npc classification on each vessel's
alternating reports.

Usage: python3 scripts/run_s1_benchmark.py [--seed N]
"""

import argparse
import time

from trackstitch.cbtr import run_cbtr, surviving_targets
from trackstitch.metrics import build_report, correct_neighbor_rate, jumps_merges
from trackstitch.npc import npc_classify, npc_cluster, npc_grouping_targets
from trackstitch.synth import even_odd_split, generate_fleet, scenario_s1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=None,
                        help="fleet seed (default: the pinned benchmark seed)")
    args = parser.parse_args()

    cfg = scenario_s1(args.seed) if args.seed is not None else scenario_s1()
    ds = generate_fleet(cfg)
    print(f"fleet: {len(ds)} reports, {len(set(ds.vids))} vessels, "
          f"seed {cfg.seed}")

    start = time.perf_counter()
    result = run_cbtr(ds)
    cbtr_s = time.perf_counter() - start
    report = build_report(result.assignment,
                          surviving_targets(result.links, result.report),
                          ds.vids, cbtr_s)
    raw_rate = correct_neighbor_rate(result.links.targets, ds.vids)
    print("\n== clustering-based reconstruction ==")
    print(report.to_text())
    print(f"raw link rate = {raw_rate:.6f}")
    print(f"track ends flagged = {len(result.assignment.endpoints)} "
          f"(no candidate: {len(result.report.no_bpnp)}, "
          f"severed: {len(result.assignment.abnormal)}, "
          f"turns rescued: {len(result.report.rescued_turns)})")

    start = time.perf_counter()
    targets = npc_grouping_targets(ds)
    assignment = npc_cluster(targets)
    npc_s = time.perf_counter() - start
    jumps, merges = jumps_merges(assignment, ds.vids)
    print("\n== next-point connection ==")
    print(f"correct_neighbor_rate = {correct_neighbor_rate(targets, ds.vids):.6f}")
    print(f"jumps = {jumps}, merges = {merges}, "
          f"clusters = {assignment.n_clusters}")
    print(f"runtime_s = {npc_s:.3f}")

    train, test = even_odd_split(ds)
    start = time.perf_counter()
    labels = npc_classify(train, test)
    classify_s = time.perf_counter() - start
    hits = sum(a == b for a, b in zip(labels, test.vids))
    print(f"classify_accuracy = {hits / len(labels):.6f}")
    print(f"classify_runtime_s = {classify_s:.3f}")


if __name__ == "__main__":
    main()
