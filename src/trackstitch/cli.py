"""Command-line front end.

Subcommands: synth (make a labeled fleet), cluster (reconstruct tracks),
classify (label test reports from labeled history), eval (score an
assignment against truth), downsample (thin a dataset).  Every run that
writes files also writes a manifest describing exactly what produced them.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import asdict, fields, replace
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

from .cbtr import run_cbtr, surviving_targets
from .export import export_geojson, export_label_timeline
from .ingest import (IngestError, _data_lines, _first_format_error, _load, _open_text,
                     _parse_int, csv_rows, parse_ais_csv, write_ais_csv)
from .metrics import EvalReport, build_report, successor_targets
from .model import CbtrConfig, ClusterAssignment, TrackDataset
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

    Execution details that do not affect the outputs (wall time) are
    deliberately left out, so re-running a manifest's command on
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


# bytes hashed at a time, so the input is never held whole
_HASH_CHUNK = 2 ** 20


def _sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def _write_outputs(out: Path, writers: dict[str, Callable[[BinaryIO], object]]) -> None:
    """Each writer fills a temp file in ``out``, in order; only once all are
    complete do they replace their named files.  A failing writer leaves an
    earlier run's files as they were, and no temp file behind."""
    temps: dict[str, Path] = {}
    try:
        for name, write in writers.items():
            temps[name] = out / f".{name}.{os.getpid()}.tmp"
            with open(temps[name], "wb") as handle:
                write(handle)
        for name, temp in temps.items():
            os.replace(temp, out / name)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def _config_from(args: argparse.Namespace, cls):
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _add_cbtr_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(CbtrConfig):
        parser.add_argument("--" + f.name.replace("_", "-"),
                            type=type(f.default), default=f.default)


def _add_npc_flags(parser: argparse.ArgumentParser) -> None:
    defaults = NpcConfig()
    parser.add_argument("--k-neighbors", type=int, default=defaults.k_neighbors)
    for name in ("time", "lat", "lon", "sog", "cog"):
        parser.add_argument(f"--npc-{name}-weight", dest=f"{name}_weight", type=float,
                            default=getattr(defaults, f"{name}_weight"))


_ASSIGNMENT_HEADER = "index,t,lat,lon,cluster,endpoint,abnormal"
# the columns eval reads, and a check per field: lat and lon are counted as
# fields, as zero-width text without a check, but not converted
_ASSIGNMENT_INTS = ("index", "t", "cluster", "endpoint", "abnormal")
_ASSIGNMENT_ROW = np.dtype([(name, np.int64 if name in _ASSIGNMENT_INTS else "U0")
                            for name in _ASSIGNMENT_HEADER.split(",")])
_ASSIGNMENT_CHECKS = [_parse_int if name in _ASSIGNMENT_INTS else None
                      for name in _ASSIGNMENT_HEADER.split(",")]


def _assignment_csv(ds: TrackDataset, assignment: ClusterAssignment) -> Iterator[bytes]:
    """The header, then the rows a block at a time: one row per report, lat
    and lon as ``repr`` writes them."""
    n = len(ds)
    flags = np.zeros((2, n), dtype=np.uint8)
    flags[0, assignment.endpoints] = 1
    flags[1, assignment.abnormal] = 1
    columns = [np.arange(n), ds.t, ds.lat, ds.lon, assignment.cluster_of, *flags]
    yield (_ASSIGNMENT_HEADER + "\n").encode()
    for block in csv_rows(columns):
        yield block.encode()


def _read_assignment(path: str) -> tuple[np.ndarray, ClusterAssignment]:
    """Report times and the assignment from an assignment.csv, read by column
    as parse_ais_csv reads reports."""
    with _open_text(path) as handle:
        if handle.readline().rstrip("\n") != _ASSIGNMENT_HEADER:
            raise IngestError("line 1: not an assignment file")
        try:
            table = _load(handle, _ASSIGNMENT_ROW)
        except (ValueError, DeprecationWarning) as exc:
            raise _first_format_error(handle, _ASSIGNMENT_CHECKS, exc) from None
        if not len(table):
            raise IngestError("no data rows")
        index, t, cluster, endpoint, abnormal = (
            np.ascontiguousarray(table[name]) for name in _ASSIGNMENT_INTS)
        # rows run in index order and flag with 0 or 1
        wrong = {"index": index != np.arange(len(index)),
                 "endpoint": (endpoint != 0) & (endpoint != 1),
                 "abnormal": (abnormal != 0) & (abnormal != 1)}
        bad = np.logical_or.reduce(list(wrong.values()))
        if bad.any():
            row = int(bad.argmax())
            name = next(name for name, column in wrong.items() if column[row])
            expected = row if name == "index" else "0 or 1"
            line, _ = next(islice(_data_lines(handle), row, None))
            raise IngestError(f"line {line}: {name} {table[name][row]}, expected {expected}")
    # any distinct integers name the clusters; number them 0..k-1
    _, cluster = np.unique(cluster, return_inverse=True)
    assignment = ClusterAssignment(cluster_of=cluster, endpoints=np.flatnonzero(endpoint),
                                   abnormal=np.flatnonzero(abnormal))
    return t, assignment


def _read(path: str, read: Callable | None = None, **options):
    """``read(path, **options)``, parse_ais_csv by default, with an input
    error led by the path: ``PATH line N: MESSAGE``, or ``PATH: MESSAGE``.
    The default is looked up per call, so a wrapper set on it applies."""
    try:
        return (read or parse_ais_csv)(path, **options)
    except (IngestError, UnicodeDecodeError) as exc:
        lead = path if str(exc).startswith("line ") else f"{path}:"
        raise IngestError(f"{lead} {exc}") from None


def cmd_cluster(args: argparse.Namespace) -> int:
    ds = _read(args.input)
    cfg = _config_from(args, CbtrConfig if args.algo == "cbtr" else NpcConfig)
    if args.print_config:
        for key, value in sorted(asdict(cfg).items()):
            print(f"{key} = {value}")

    start = time.perf_counter()
    if args.algo == "cbtr":
        # only the assignment and its targets outlive the run, not its links
        assignment, links, abnormal = run_cbtr(ds, cfg)
        targets = surviving_targets(links, abnormal)
        del links, abnormal
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

    # each output is rendered when its file is written, so one is held at a time
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_outputs(out, {
        "tracks.geojson": lambda handle: handle.writelines(
            (export_geojson(ds, assignment), b"\n")),
        "assignment.csv": lambda handle: handle.writelines(_assignment_csv(ds, assignment)),
        "timeline.svg": lambda handle: handle.write(
            export_label_timeline(ds, assignment).encode()),
        "manifest.txt": lambda handle: handle.write(_manifest_text(
            f"cluster --algo {args.algo}", asdict(cfg), _sha256_of(args.input),
            report).encode()),
    })
    print(f"wrote {out / 'assignment.csv'}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    train = _read(args.train, has_labels=True)
    test = _read(args.test)
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


# the flags that describe a custom fleet, which a --scenario fleet fixes
_FLEET_FLAGS = ("n_vessels", "duration_s", "noise_sigma_m", "drift_radius_m", "interval_min_s",
                "interval_max_s", "gaps_per_vessel", "gap_min_s", "gap_max_s", "archetypes")


def cmd_synth(args: argparse.Namespace) -> int:
    given = {name: getattr(args, name) for name in _FLEET_FLAGS if getattr(args, name) is not None}
    if args.scenario is not None:
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ValueError(f"{flags} cannot be combined with --scenario")
        make = scenario_s1 if args.scenario == "s1" else scenario_s1_gaps
        cfg = make() if args.seed is None else make(args.seed)
    else:
        if args.n_vessels is None:
            raise ValueError("--n-vessels is required without --scenario")
        base = SynthConfig(args.n_vessels)
        archetypes = None
        if args.archetypes:
            wanted = tuple(a.strip() for a in args.archetypes.split(","))
            archetypes = tuple(wanted[i % len(wanted)] for i in range(args.n_vessels))
        cfg = replace(
            base,
            duration_s=given.get("duration_s", base.duration_s),
            archetypes=archetypes,
            sample_interval_s=(given.get("interval_min_s", base.sample_interval_s[0]),
                               given.get("interval_max_s", base.sample_interval_s[1])),
            noise_sigma_m=given.get("noise_sigma_m", base.noise_sigma_m),
            drift_radius_m=given.get("drift_radius_m", base.drift_radius_m),
            gaps_per_vessel=given.get("gaps_per_vessel", base.gaps_per_vessel),
            gap_duration_s=(given.get("gap_min_s", base.gap_duration_s[0]),
                            given.get("gap_max_s", base.gap_duration_s[1])),
            seed=base.seed if args.seed is None else args.seed,
        )
    ds = generate_fleet(cfg)
    write_ais_csv(ds, args.out)
    print(f"wrote {len(ds)} points for {cfg.n_vessels} vessels to {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    t_assign, assignment = _read(args.assignment, _read_assignment)
    truth = _read(args.truth, has_labels=True)
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
    ds = _read(args.input)
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
    # accepted and ignored: the benchmark harness still passes it on every call
    p_cluster.add_argument("--threads", type=int, help=argparse.SUPPRESS)
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
    # unset fleet flags take SynthConfig's defaults
    p_synth.add_argument("--n-vessels", type=int)
    p_synth.add_argument("--duration-s", type=int)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--noise-sigma-m", type=float)
    p_synth.add_argument("--drift-radius-m", type=float)
    p_synth.add_argument("--interval-min-s", type=int)
    p_synth.add_argument("--interval-max-s", type=int)
    p_synth.add_argument("--gaps-per-vessel", type=int)
    p_synth.add_argument("--gap-min-s", type=int)
    p_synth.add_argument("--gap-max-s", type=int)
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
