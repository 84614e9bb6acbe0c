"""Command-line front end.

Subcommands: synth (make a labeled fleet), cluster (reconstruct tracks),
classify (label test reports from labeled history), eval (score an
assignment against truth), downsample (thin a dataset).  Every run that
writes files also writes a manifest describing exactly what produced them.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .cbtr import run_cbtr, surviving_targets
from .export import coordinate_text, export_geojson, export_label_timeline
from .ingest import IngestError, csv_rows, parse_ais_csv, write_ais_csv
from .metrics import EvalReport, build_report, successor_targets
from .model import CbtrConfig, ClusterAssignment, TrackDataset, index_mask
from .npc import NpcConfig, npc_classify, npc_cluster, npc_grouping_targets
from .synth import (
    ARCHETYPES,
    PATTERNS,
    SynthConfig,
    downsample,
    generate_fleet,
    scenario_s1,
    scenario_s1_gaps,
)


def _manifest_text(command: str, config: dict, input_sha256: str,
                   report: EvalReport | None) -> str:
    """What produced a set of output files.

    Execution details that do not affect the outputs (worker count, wall
    time) are deliberately left out, so re-running a manifest's command on
    its input reproduces the files byte for byte.
    """
    lines = [f"command = {command}"]
    for key in sorted(config):
        lines.append(f"config.{key} = {config[key]}")
    lines += [f"input_sha256 = {input_sha256}",
              "seed = -",
              "output.assignment = assignment.csv",
              "output.geojson = tracks.geojson",
              "output.svg = timeline.svg"]
    if report is not None:
        lines.append("report:")
        lines.append(report.to_text(include_runtime=False))
    else:
        lines.append("report: unavailable (input has no vessel ids)")
    return "\n".join(lines) + "\n"


def _sha256_of(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# characters encoded and written at a time, so a text is never held twice
_WRITE_CHARS = 2 ** 16


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for start in range(0, len(text), _WRITE_CHARS):
            handle.write(text[start:start + _WRITE_CHARS])


def _config_from(args: argparse.Namespace, cls):
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _add_cbtr_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(CbtrConfig):
        parser.add_argument("--" + f.name.replace("_", "-"),
                            type=type(f.default), default=f.default)


def _add_npc_flags(parser: argparse.ArgumentParser) -> None:
    defaults = NpcConfig()
    parser.add_argument("--k-neighbors", type=int, default=defaults.k_neighbors)
    parser.add_argument("--npc-time-weight", dest="time_weight", type=float,
                        default=defaults.time_weight)
    parser.add_argument("--npc-lat-weight", dest="lat_weight", type=float,
                        default=defaults.lat_weight)
    parser.add_argument("--npc-lon-weight", dest="lon_weight", type=float,
                        default=defaults.lon_weight)
    parser.add_argument("--npc-sog-weight", dest="sog_weight", type=float,
                        default=defaults.sog_weight)
    parser.add_argument("--npc-cog-weight", dest="cog_weight", type=float,
                        default=defaults.cog_weight)


_ASSIGNMENT_HEADER = "index,t,lat,lon,cluster,endpoint,abnormal"
# the columns eval reads; lat and lon are counted as fields, as zero-width
# text, but not converted
_ASSIGNMENT_INTS = ("index", "t", "cluster", "endpoint", "abnormal")
_ASSIGNMENT_ROW = np.dtype([(name, np.int64 if name in _ASSIGNMENT_INTS else "U0")
                            for name in _ASSIGNMENT_HEADER.split(",")])


def _assignment_csv(ds: TrackDataset, assignment: ClusterAssignment,
                    coords: tuple[list[str], list[str]]) -> str:
    """One row per report; ``coords`` is coordinate_text(ds)."""
    n = len(ds)
    flags = (index_mask(n, assignment.endpoints), index_mask(n, assignment.abnormal))
    columns = [np.arange(n), ds.t, *coords, assignment.cluster_of,
               *(f.view(np.uint8) for f in flags)]
    return "".join([_ASSIGNMENT_HEADER + "\n", *csv_rows(columns)])


def _read_assignment(path: str) -> tuple[np.ndarray, ClusterAssignment]:
    """Report times and the assignment from an assignment.csv, read by column."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != _ASSIGNMENT_HEADER:
        raise IngestError(f"{path} line 1: not an assignment file")
    if not any(lines[1:]):
        raise IngestError(f"{path}: no data rows")
    try:
        table = np.loadtxt(lines[1:], dtype=_ASSIGNMENT_ROW, delimiter=",",
                           comments=None, ndmin=1)
    except ValueError as exc:
        raise _first_assignment_error(path, lines, exc) from None
    index, t, cluster, endpoint, abnormal = (
        np.ascontiguousarray(table[name]) for name in _ASSIGNMENT_INTS)
    assignment = ClusterAssignment(cluster_of=cluster,
                                   endpoints=frozenset(index[endpoint != 0].tolist()),
                                   abnormal=frozenset(index[abnormal != 0].tolist()))
    return t, assignment


def _first_assignment_error(path: str, lines: list[str], fallback: Exception) -> IngestError:
    """The first line of an assignment.csv breaking the row format, scanned
    only when the column pass fails: field count, then int(), then int64."""
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
            return IngestError(f"{path} line {line_no}: expected 7 fields")
        try:
            values = [int(parts[i]) for i in (0, 1, 4, 5, 6)]
        except ValueError as exc:
            return IngestError(f"{path} line {line_no}: {exc}")
        if not all(-2**63 <= value < 2**63 for value in values):
            return IngestError(f"{path} line {line_no}: integer out of int64 range")
    return IngestError(f"{path}: unreadable assignment: {fallback}")


def cmd_cluster(args: argparse.Namespace) -> int:
    ds = parse_ais_csv(args.input)
    cfg = _config_from(args, CbtrConfig if args.algo == "cbtr" else NpcConfig)
    if args.print_config:
        for key, value in sorted(asdict(cfg).items()):
            print(f"{key} = {value}")

    start = time.perf_counter()
    if args.algo == "cbtr":
        result = run_cbtr(ds, cfg, threads=args.threads)
        assignment = result.assignment
        targets = surviving_targets(result.links, result.report)
    else:
        targets = npc_grouping_targets(ds, cfg)
        assignment = npc_cluster(targets)
    runtime = time.perf_counter() - start

    report = None
    if ds.has_vids():
        report = build_report(assignment, targets, ds.vids, runtime)
        print(report.to_text())
    else:
        print(f"clustered {len(ds)} points into {assignment.n_clusters} clusters "
              f"in {runtime:.3f} s (no vessel ids, metrics omitted)")

    # every text is rendered before the first write, so a failing writer
    # leaves an earlier run's files as they were; the GeoJSON goes first,
    # as its build needs the most memory and no other text is held yet
    coords = coordinate_text(ds)
    texts = {
        "tracks.geojson": export_geojson(ds, assignment, coords) + "\n",
        "assignment.csv": _assignment_csv(ds, assignment, coords),
        "timeline.svg": export_label_timeline(ds, assignment),
        "manifest.txt": _manifest_text(f"cluster --algo {args.algo}", asdict(cfg),
                                       _sha256_of(args.input), report),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        _write_text(out / name, text)
    print(f"wrote {out / 'assignment.csv'}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    train = parse_ais_csv(args.train, has_labels=True)
    test = parse_ais_csv(args.test)
    # both files were rebased to their own start; restore a shared timeline
    base = min(int(train.epoch), int(test.epoch))
    train, test = (replace(ds, t=ds.t + (int(ds.epoch) - base), epoch=str(base))
                   for ds in (train, test))

    labels = npc_classify(train, test)
    write_ais_csv(replace(test, vids=labels), args.out)
    if test.has_vids():
        hits = sum(a == b for a, b in zip(labels, test.vids))
        print(f"classified {len(labels)} points, accuracy {hits / len(labels):.4f}")
    else:
        print(f"classified {len(labels)} points")
    print(f"wrote {args.out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.scenario == "s1":
        cfg = scenario_s1(args.seed) if args.seed is not None else scenario_s1()
    elif args.scenario == "s1-gaps":
        cfg = scenario_s1_gaps(args.seed) if args.seed is not None else scenario_s1_gaps()
    else:
        if args.n_vessels is None:
            raise ValueError("--n-vessels is required without --scenario")
        archetypes = None
        if args.archetypes:
            wanted = tuple(a.strip() for a in args.archetypes.split(","))
            archetypes = tuple(wanted[i % len(wanted)] for i in range(args.n_vessels))
        cfg = SynthConfig(
            n_vessels=args.n_vessels,
            duration_s=args.duration_s,
            archetypes=archetypes,
            sample_interval_s=(args.interval_min_s, args.interval_max_s),
            noise_sigma_m=args.noise_sigma_m,
            drift_radius_m=args.drift_radius_m,
            gaps_per_vessel=args.gaps_per_vessel,
            gap_duration_s=(args.gap_min_s, args.gap_max_s),
            seed=args.seed if args.seed is not None else 0,
        )
    ds = generate_fleet(cfg)
    write_ais_csv(ds, args.out)
    print(f"wrote {len(ds)} points for {cfg.n_vessels} vessels to {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    t_assign, assignment = _read_assignment(args.assignment)
    truth = parse_ais_csv(args.truth, has_labels=True)
    if len(truth) != len(assignment):
        raise ValueError(f"assignment has {len(assignment)} points, "
                         f"truth has {len(truth)}")
    if not np.array_equal(t_assign, truth.t):
        raise ValueError("assignment and truth disagree on report times")
    targets = successor_targets(assignment.cluster_of)
    report = build_report(assignment, targets, truth.vids,
                          time.perf_counter() - start)
    if args.format == "csv":
        print(EvalReport.CSV_HEADER)
        print(report.to_csv_row())
    else:
        print(report.to_text())
    return 0


def cmd_downsample(args: argparse.Namespace) -> int:
    ds = parse_ais_csv(args.input)
    thinned = downsample(ds, args.pattern)
    write_ais_csv(thinned, args.out)
    print(f"kept {len(thinned)} of {len(ds)} points ({args.pattern})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackstitch",
        description="Reconstruct per-vessel trajectories from anonymous position reports.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_cluster = sub.add_parser("cluster", help="group reports into per-vessel tracks")
    p_cluster.add_argument("input", help="CSV of reports, vid column optional")
    p_cluster.add_argument("--algo", choices=("cbtr", "npc"), default="cbtr")
    p_cluster.add_argument("--out", required=True, help="output directory")
    p_cluster.add_argument("--threads", type=int, default=1)
    p_cluster.add_argument("--print-config", action="store_true",
                           help="dump the effective configuration before running")
    _add_cbtr_flags(p_cluster)
    _add_npc_flags(p_cluster)
    p_cluster.set_defaults(func=cmd_cluster)

    p_classify = sub.add_parser("classify", help="label test reports from labeled history")
    p_classify.add_argument("train", help="labeled CSV")
    p_classify.add_argument("test", help="CSV to label")
    p_classify.add_argument("--out", required=True, help="labeled output CSV")
    p_classify.set_defaults(func=cmd_classify)

    p_synth = sub.add_parser("synth", help="generate a labeled synthetic fleet")
    p_synth.add_argument("--scenario", choices=("s1", "s1-gaps"),
                         help="use a canned benchmark fleet")
    p_synth.add_argument("--n-vessels", type=int)
    p_synth.add_argument("--duration-s", type=int, default=SynthConfig(1).duration_s)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--noise-sigma-m", type=float, default=0.0)
    p_synth.add_argument("--drift-radius-m", type=float, default=SynthConfig(1).drift_radius_m)
    p_synth.add_argument("--interval-min-s", type=int, default=2)
    p_synth.add_argument("--interval-max-s", type=int, default=180)
    p_synth.add_argument("--gaps-per-vessel", type=int, default=0)
    p_synth.add_argument("--gap-min-s", type=int, default=1200)
    p_synth.add_argument("--gap-max-s", type=int, default=2400)
    p_synth.add_argument("--archetypes",
                         help=f"comma-separated, cycled over vessels; one of {ARCHETYPES}")
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", help="score an assignment against labeled truth")
    p_eval.add_argument("assignment", help="assignment.csv from the cluster command")
    p_eval.add_argument("truth", help="labeled CSV the clustering ran on")
    p_eval.add_argument("--format", choices=("text", "csv"), default="text")
    p_eval.set_defaults(func=cmd_eval)

    p_down = sub.add_parser("downsample", help="thin a dataset")
    p_down.add_argument("input")
    p_down.add_argument("--pattern", choices=PATTERNS, required=True)
    p_down.add_argument("--out", required=True)
    p_down.set_defaults(func=cmd_downsample)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
