"""Workloads, timed CLI calls, output checks and metrics of the benchmark.

Every timed call goes through ``trackstitch.cli.main`` in this process with
the argv a user would type.  End-to-end metrics come from untraced calls;
one traced iteration (plus, where cbtr runs, one traced ``--threads 2``
cluster call) supplies the per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from trackstitch import cli
from trackstitch.ingest import write_ais_csv
from trackstitch.model import CbtrConfig, TrackDataset
from trackstitch.synth import SynthConfig, generate_fleet, scenario_s1

from tracing import Tracer, installed, self_times

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"

# set-up is repeated and its median reported, so one slow repetition does
# not move setup_s
SETUP_REPS = 5
CLUSTER_OUTPUTS = ("assignment.csv", "tracks.geojson", "timeline.svg", "manifest.txt")


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str
    fleet: Callable[[int], SynthConfig]
    classify: bool = False


def _long_sparse(seed: int) -> SynthConfig:
    # s1 mix and density, stretched from 4 h to ~37 h: ~50k reports
    return replace(scenario_s1(seed), duration_s=132_000)


def _dense_harbor(seed: int) -> SynthConfig:
    # default archetype mix, s1 bbox: ~12.4k reports, ~3k candidates each
    return SynthConfig(n_vessels=200, duration_s=3600, noise_sigma_m=10.0, seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("long-sparse", "cbtr", _long_sparse),
    Workload("dense-harbor", "cbtr", _dense_harbor),
    Workload("npc-s1", "npc", scenario_s1, classify=True),
)}


@dataclass
class Inputs:
    fleet: TrackDataset
    fleet_csv: Path
    # classify inputs, only where the workload classifies
    test_vids: tuple[str, ...] = ()
    train_csv: Path | None = None
    test_csv: Path | None = None

    def files(self) -> list[Path]:
        return [p for p in (self.fleet_csv, self.train_csv, self.test_csv) if p]


def even_odd_split(ds: TrackDataset) -> tuple[TrackDataset, TrackDataset]:
    """Each vessel's reports alternate between history (even) and test (odd)."""
    groups: dict[str, list[int]] = {}
    for i, vid in enumerate(ds.vids):
        groups.setdefault(vid, []).append(i)
    train_idx, test_idx = [], []
    for members in groups.values():
        for k, i in enumerate(members):
            (train_idx if k % 2 == 0 else test_idx).append(i)
    return (TrackDataset.from_points([ds.point(i) for i in train_idx], epoch="0"),
            TrackDataset.from_points([ds.point(i) for i in test_idx], epoch="0"))


def set_up(workload: Workload, seed: int, work: Path) -> Inputs:
    """Generate the fleet and write the CSVs the timed calls read."""
    work.mkdir(parents=True, exist_ok=True)
    fleet = generate_fleet(workload.fleet(seed))
    inputs = Inputs(fleet, work / "fleet.csv")
    write_ais_csv(fleet, inputs.fleet_csv)
    if workload.classify:
        train, test = even_odd_split(fleet)
        inputs.test_vids = test.vids
        inputs.train_csv, inputs.test_csv = work / "train.csv", work / "test.csv"
        write_ais_csv(train, inputs.train_csv)
        # the reports to classify carry no vessel ids; the benchmark keeps them
        write_ais_csv(replace(test, vids=None), inputs.test_csv)
    return inputs


def candidates(t: np.ndarray, window_s: int) -> int:
    """Reports build_links scans: those 1..window_s seconds after each report."""
    lo = np.searchsorted(t, t + 1, side="left")
    hi = np.searchsorted(t, t + window_s, side="right")
    return int((hi - lo).sum())


def _digests(paths: list[Path]) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def _report_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


@dataclass
class Call:
    kind: str
    seconds: float
    problems: list[str]
    bytes_out: int = 0
    quality: dict[str, float] = field(default_factory=dict)


class Runner:
    """Makes the timed calls of one workload and checks every output."""

    def __init__(self, workload: Workload, inputs: Inputs, work: Path):
        self.workload = workload
        self.inputs = inputs
        self.out = work / "out"
        self.calls: list[Call] = []
        self._first: dict[str, dict[str, str]] = {}

    def _invoke(self, kind: str, argv: list[str], tracer: Tracer | None
                ) -> tuple[int | None, float, str, str]:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        rc = None
        root = len(tracer.spans) if tracer is not None else None
        with redirect_stdout(stdout), redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with installed(tracer), tracer.span(f"cli.{kind}"):
                        rc = cli.main(argv)
            except Exception:  # a crash is a failed call, not a failed benchmark
                traceback.print_exc()
            seconds = time.perf_counter() - start
        if tracer is not None:
            seconds = tracer.spans[root].duration
        return rc, seconds, stdout.getvalue(), stderr.getvalue()

    def _finish(self, call: Call, rc: int | None, err: str, files: list[Path]) -> Call:
        if rc != 0:
            call.problems.insert(0, f"exit code {rc}: {err.strip()[-300:]}")
        if all(p.is_file() for p in files):
            call.bytes_out = sum(p.stat().st_size for p in files)
            digests = _digests(files)
            first = self._first.setdefault(call.kind, digests)
            if digests != first:
                call.problems.append("outputs differ from the first repetition")
        for problem in call.problems:
            print(f"FAILED {call.kind}: {problem}", file=sys.stderr)
        self.calls.append(call)
        return call

    def cluster(self, tracer: Tracer | None = None, threads: int = 1) -> Call:
        argv = ["cluster", str(self.inputs.fleet_csv), "--algo", self.workload.algo,
                "--out", str(self.out), "--threads", str(threads)]
        rc, seconds, stdout, err = self._invoke("cluster", argv, tracer)
        call = Call("cluster", seconds, [])
        files = [self.out / name for name in CLUSTER_OUTPUTS]
        missing = [p.name for p in files if not p.is_file()]
        if missing:
            call.problems.append(f"missing outputs {missing}")
            return self._finish(call, rc, err, files)
        rows = (self.out / "assignment.csv").read_text(encoding="utf-8").splitlines()[1:]
        fleet = self.inputs.fleet
        if len(rows) != len(fleet):
            call.problems.append(f"assignment.csv has {len(rows)} rows for {len(fleet)} reports")
        report = _report_fields(stdout)
        try:
            clusters = int(report["n_clusters_predicted"])
            jumps, merges = int(report["jumps"]), int(report["merges"])
            call.quality = {"correct_neighbor_rate": float(report["correct_neighbor_rate"]),
                            "jumps": jumps, "merges": merges}
        except (KeyError, ValueError):
            call.problems.append("no quality report on stdout")
            return self._finish(call, rc, err, files)
        vessels = len(set(fleet.vids))
        if clusters + merges - jumps != vessels:
            call.problems.append(f"clusters + merges - jumps = {clusters + merges - jumps}, "
                                 f"true vessel count {vessels}")
        if len({row.split(",")[4] for row in rows}) != clusters:
            call.problems.append("cluster count disagrees with assignment.csv")
        return self._finish(call, rc, err, files)

    def classify(self, tracer: Tracer | None = None) -> Call:
        labeled = self.out / "labeled.csv"
        argv = ["classify", str(self.inputs.train_csv), str(self.inputs.test_csv),
                "--out", str(labeled)]
        rc, seconds, _, err = self._invoke("classify", argv, tracer)
        call = Call("classify", seconds, [])
        if not labeled.is_file():
            call.problems.append("missing labeled.csv")
            return self._finish(call, rc, err, [labeled])
        labels = [row.split(",", 1)[0]
                  for row in labeled.read_text(encoding="utf-8").splitlines()[1:]]
        truth = self.inputs.test_vids
        if len(labels) != len(truth):
            call.problems.append(f"labeled.csv has {len(labels)} rows for {len(truth)} reports")
        else:
            hits = sum(a == b for a, b in zip(labels, truth))
            call.quality = {"classify_accuracy": hits / len(truth)}
        return self._finish(call, rc, err, [labeled])

    def iterate(self, tracer: Tracer | None = None) -> tuple[Call, Call | None]:
        cluster = self.cluster(tracer)
        return cluster, self.classify(tracer) if self.workload.classify else None

    def times(self, kind: str) -> list[float]:
        return [c.seconds for c in self.calls if c.kind == kind]


def layer_metrics(tracer: Tracer, threads2: Tracer | None, candidates_per_call: int,
                  cluster: Call, classify: Call | None, cluster_median: float
                  ) -> dict[str, float]:
    """Per-layer numbers from one traced cluster (+ classify) iteration."""
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    counts: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        self_s[span.name] += own
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value
    root = next(s for s in tracer.spans if s.name == "cli.cluster")
    cands = candidates_per_call * calls["cbtr.build_links"]
    build_s = self_s["cbtr.build_links"]
    reports, linked = counts["cbtr.build_links.reports"], counts["cbtr.build_links.linked"]
    build2_s = sum(s.duration for s in threads2.spans
                   if s.name == "cbtr.build_links") if threads2 else 0.0
    return {
        "ingest.parse_s": self_s["ingest.parse"],
        "ingest.bytes_in": counts["ingest.parse.bytes_in"],
        "ingest.write_s": self_s["ingest.write"],
        "cbtr.build_links_s": build_s,
        "cbtr.candidates": cands,
        "cbtr.ns_per_candidate": build_s * 1e9 / cands if cands else 0.0,
        "cbtr.detect_abnormal_s": self_s["cbtr.detect_abnormal"],
        "cbtr.assemble_clusters_s": self_s["cbtr.assemble_clusters"],
        "cbtr.linked_ratio": linked / reports if reports else 0.0,
        "cbtr.no_link": reports - linked,
        "cbtr.severed": counts["cbtr.assemble_clusters.severed"],
        "cbtr.rescued": counts["cbtr.detect_abnormal.rescued"],
        "cbtr.threads2_speedup": build_s / build2_s if build2_s else 0.0,
        "metrics.report_s": self_s["metrics.report"],
        "npc.grouping_s": self_s["npc.grouping"],
        "npc.grouping_calls": calls["npc.grouping"],
        "npc.distance_cells": counts["npc.grouping.distance_cells"],
        "npc.cluster_self_s": self_s["npc.cluster"],
        "npc.classify_s": self_s["npc.classify"],
        "export.geojson_s": self_s["export.geojson"],
        "export.svg_s": self_s["export.svg"],
        "export.bytes_out": cluster.bytes_out + (classify.bytes_out if classify else 0),
        "cli.self_s": self_s["cli.cluster"],
        "cli.classify_self_s": self_s["cli.classify"],
        "trace.overhead_s": root.duration - cluster_median,
        "quality.jumps": cluster.quality.get("jumps", 0),
        "quality.merges": cluster.quality.get("merges", 0),
        "quality.classify_accuracy":
            classify.quality.get("classify_accuracy", 0.0) if classify else 0.0,
    }


def _cache_size(level: int) -> str:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == str(level):
                return (index / "size").read_text().strip()
        except OSError:
            break
    return "unknown"


def machine() -> dict[str, object]:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "l2": _cache_size(2), "l3": _cache_size(3)}


def _declared() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]}}


def _print_table(title: str, values: dict[str, float], declared: dict[str, dict],
                 samples: dict[str, int]) -> None:
    print(title)
    for name, value in values.items():
        unit = declared[name]["unit"]
        print(f"  {name:<26} {value:>16.6g} {unit:<6} n={samples.get(name, 1)}")


def _print_breakdown(tracer: Tracer, root_name: str) -> None:
    spans = tracer.spans
    owns = self_times(spans)
    root = next(i for i, s in enumerate(spans) if s.name == root_name)
    layer: dict[str, float] = defaultdict(float)
    for i, (span, own) in enumerate(zip(spans, owns)):
        j = i
        while j is not None and j != root:
            j = spans[j].parent
        if j == root:
            layer[span.name] += own
    total = sum(layer.values())
    if abs(total - spans[root].duration) > 1e-6:
        raise RuntimeError(f"{root_name}: self times sum to {total}, "
                           f"span lasted {spans[root].duration}")
    print(f"{root_name} self times (traced, sum {total:.4f} s = span):")
    for name, own in sorted(layer.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<26} {own:>10.4f} s  {100 * own / total:5.1f}%")


def _timed_set_up(workload: Workload, seed: int, work: Path) -> tuple[Inputs, list[float]]:
    times, digests = [], None
    for _ in range(SETUP_REPS):
        gc.collect()
        start = time.perf_counter()
        inputs = set_up(workload, seed, work)
        times.append(time.perf_counter() - start)
        rep = _digests(inputs.files())
        if digests not in (None, rep):
            raise RuntimeError("set-up is not deterministic for this seed")
        digests = rep
    return inputs, times


def run(workload_name: str, seed: int, seconds: float, trace: bool, import_s: float) -> int:
    if workload_name not in WORKLOADS:
        print(f"error: unknown workload {workload_name!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[workload_name]
    declared = _declared()
    work = WORK / f"{workload.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)

    inputs, setup_times = _timed_set_up(workload, seed, work)
    runner = Runner(workload, inputs, work)
    start = time.perf_counter()
    while True:
        runner.cluster()
        if time.perf_counter() - start >= seconds:
            break
    if workload.classify:
        runner.classify()

    cluster_times = runner.times("cluster")
    first_cluster = runner.calls[0]
    end_to_end = {
        "cluster_wall_s": statistics.median(cluster_times),
        "correct_neighbor_rate": first_cluster.quality.get("correct_neighbor_rate", 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": import_s + statistics.median(setup_times),
    }
    samples = {"cluster_wall_s": len(cluster_times), "setup_s": SETUP_REPS}

    fleet = inputs.fleet
    cands = candidates(fleet.t, CbtrConfig().window_s)
    sizes = {"reports": len(fleet), "vessels": len(set(fleet.vids)),
             "candidates_per_report": cands / len(fleet),
             "input_bytes": sum(p.stat().st_size for p in inputs.files())}
    facts = machine()
    print(f"workload {workload.name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    print("sizes   " + "  ".join(f"{k}={v:.6g}" for k, v in sizes.items()))
    print(f"quality jumps={first_cluster.quality.get('jumps')}  "
          f"merges={first_cluster.quality.get('merges')}")
    _print_table("end-to-end (untraced):", end_to_end, declared["end_to_end"], samples)
    print(f"  import {import_s:.4f} s; set-up times: "
          + " ".join(f"{t:.4f}" for t in setup_times))
    for kind in ("cluster", "classify"):
        if runner.times(kind):
            print(f"  {kind} call times: " + " ".join(f"{t:.4f}" for t in runner.times(kind)))
    if workload.classify:
        print(f"  classify accuracy {runner.calls[-1].quality.get('classify_accuracy')}")

    result: dict[str, object] = {"workload": workload.name, "seed": seed, "machine": facts,
                                 "sizes": sizes, "end_to_end": end_to_end}
    reported = end_to_end
    if trace:
        tracer = Tracer()
        cluster, classify = runner.iterate(tracer)
        threads2 = None
        if workload.algo == "cbtr":
            threads2 = Tracer()
            runner.cluster(threads2, threads=2)
        per_layer = layer_metrics(tracer, threads2, cands, cluster, classify,
                                  end_to_end["cluster_wall_s"])
        _print_table("per-layer (one traced iteration; counts computed from input "
                     "are cbtr.candidates and npc.distance_cells):",
                     per_layer, declared["per_layer"], {})
        _print_breakdown(tracer, "cli.cluster")
        if classify:
            _print_breakdown(tracer, "cli.classify")
        result.update(per_layer=per_layer, spans=tracer.to_json(),
                      threads2_spans=threads2.to_json() if threads2 else [])
        reported = per_layer

    section = "per_layer" if trace else "end_to_end"
    if set(reported) != set(declared[section]):
        raise RuntimeError(f"metrics {sorted(reported)} do not match BENCHMARK.json {section}")
    failed = sum(1 for c in runner.calls if c.problems)
    attempted = len(runner.calls)
    print(f"calls attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.6g}")
    result["calls"] = [{"kind": c.kind, "seconds": c.seconds, "problems": c.problems}
                       for c in runner.calls]
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[section][name]["unit"]}
                    for name, value in reported.items()},
    }))
    return 0
