"""Reconstruction quality of a benchmark fleet over seeds and candidate windows.

Prints one CSV row per cbtr run, one for each seed and window, then a
min/median/max summary over all rows.  Many seeds check that quality is a
property of the pipeline, not of one lucky fleet; on s1-gaps, windows
shorter than the reporting outages show how they fragment tracks.

Usage: python3 scripts/quality.py [--fleet s1|s1-gaps] [--seeds N] [--first S] [--windows W,...]
"""

import argparse
from statistics import median

from trackstitch.cbtr import run_cbtr
from trackstitch.metrics import correct_neighbor_rate, jumps_merges
from trackstitch.model import CbtrConfig
from trackstitch.synth import S1_SEED, generate_fleet, scenario_s1, scenario_s1_gaps

FLEETS = {"s1": scenario_s1, "s1-gaps": scenario_s1_gaps}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fleet", choices=FLEETS, default="s1")
    parser.add_argument("--seeds", type=int, default=1,
                        help="how many consecutive seeds to run")
    parser.add_argument("--first", type=int, default=S1_SEED, help="first seed")
    parser.add_argument("--windows", default="1000",
                        help="comma-separated window sizes in seconds")
    args = parser.parse_args()
    windows = [int(w) for w in args.windows.split(",")]

    rates, errors = [], []
    print("fleet,seed,window_s,n,vessels,rate,jumps,merges,clusters")
    for seed in range(args.first, args.first + args.seeds):
        ds = generate_fleet(FLEETS[args.fleet](seed))
        vessels = len(set(ds.vids))
        for window in windows:
            result = run_cbtr(ds, CbtrConfig(window_s=window))
            rate = correct_neighbor_rate(result.links.targets, ds.vids)
            jumps, merges = jumps_merges(result.assignment, ds.vids)
            rates.append(rate)
            errors.append(jumps + merges)
            print(f"{args.fleet},{seed},{window},{len(ds)},{vessels},{rate:.6f},"
                  f"{jumps},{merges},{result.assignment.n_clusters}")
    print(f"# rate min/median/max = {min(rates):.6f}/"
          f"{median(rates):.6f}/{max(rates):.6f}")
    print(f"# jumps+merges min/median/max = {min(errors)}/"
          f"{median(errors)}/{max(errors)}")


if __name__ == "__main__":
    main()
