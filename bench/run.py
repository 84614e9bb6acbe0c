"""Benchmark of the trackstitch CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a trackstitch source tree: the package is imported
from ./src, never from an installed copy, and the benchmark exits with an
error when ./src holds no trackstitch.  The last line of standard output is
one JSON object with the run's verdict and metrics.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep starting timed iterations until this much has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "trackstitch" / "__init__.py").is_file():
        print(f"error: no trackstitch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    start = time.perf_counter()
    import harness
    import_s = time.perf_counter() - start
    loaded = Path(sys.modules["trackstitch"].__file__).resolve()
    if SRC not in loaded.parents:
        print(f"error: trackstitch was imported from {loaded}, not {SRC}", file=sys.stderr)
        return 2
    return harness.run(args.workload, args.seed, args.seconds, args.trace == 1, import_s)


if __name__ == "__main__":
    sys.exit(main())
