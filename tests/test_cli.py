import csv
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from trackstitch import cli, ingest
from trackstitch.cli import main
from trackstitch.ingest import parse_ais_csv, write_ais_csv
from trackstitch.model import AisPoint, CbtrConfig, ClusterAssignment, TrackDataset
from trackstitch.npc import NpcConfig
from trackstitch.synth import generate_fleet, scenario_s1

OUT_FILES = ("assignment.csv", "tracks.geojson", "timeline.svg", "manifest.txt")

# (flag, config field, a non-default value) for every cluster config flag
CONFIG_FLAGS = {
    CbtrConfig: [
        ("--window-s", "window_s", 700),
        ("--moving-speed-sum", "moving_speed_sum", 2.5),
        ("--time-weight-moving", "time_weight_moving", 3e-6),
        ("--time-weight-steady", "time_weight_steady", 4e-9),
        ("--angle-time-weight", "angle_time_weight", 2e-5),
        ("--cos-moving-min", "cos_moving_min", 0.2),
        ("--cos-steady-min", "cos_steady_min", 0.9),
        ("--n-abnormal", "n_abnormal", 40),
        ("--turn-rescue-dist-m", "turn_rescue_dist_m", 300.0),
        ("--turn-rescue-cos-min", "turn_rescue_cos_min", 0.5),
    ],
    NpcConfig: [
        ("--k-neighbors", "k_neighbors", 4),
        ("--npc-time-weight", "time_weight", 3e-5),
        ("--npc-lat-weight", "lat_weight", 0.9),
        ("--npc-lon-weight", "lon_weight", 1.1),
        ("--npc-sog-weight", "sog_weight", 0.01),
        ("--npc-cog-weight", "cog_weight", 0.001),
    ],
}


@pytest.fixture()
def fleet_csv(tmp_path):
    path = tmp_path / "fleet.csv"
    rc = main(["synth", "--n-vessels", "3", "--duration-s", "900", "--seed", "5",
               "--noise-sigma-m", "5", "--out", str(path)])
    assert rc == 0
    return path


def test_synth_writes_labeled_csv(tmp_path, capsys):
    path = tmp_path / "out.csv"
    assert main(["synth", "--n-vessels", "3", "--duration-s", "900",
                 "--seed", "5", "--out", str(path)]) == 0
    assert "for 3 vessels" in capsys.readouterr().out
    ds = parse_ais_csv(str(path), has_labels=True)
    assert len(set(ds.vids)) == 3


def test_cluster_eval_flow(fleet_csv, tmp_path, capsys):
    outdir = tmp_path / "run"
    assert main(["cluster", str(fleet_csv), "--out", str(outdir)]) == 0
    stdout = capsys.readouterr().out
    assert "correct_neighbor_rate = " in stdout
    assert f"wrote {outdir / 'assignment.csv'}" in stdout
    for name in OUT_FILES:
        assert (outdir / name).exists(), name

    manifest = (outdir / "manifest.txt").read_text()
    assert manifest.startswith("command = cluster --algo cbtr\n")
    assert "config.window_s = 1000" in manifest
    assert "report:" in manifest
    assert "runtime" not in manifest

    assert main(["eval", str(outdir / "assignment.csv"), str(fleet_csv)]) == 0
    text = capsys.readouterr().out
    assert "n_vessels_true = 3" in text

    assert main(["eval", str(outdir / "assignment.csv"), str(fleet_csv),
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("correct_neighbor_rate,")
    assert len(lines[1].split(",")) == len(lines[0].split(","))


ASSIGNMENT_HEAD = "index,t,lat,lon,cluster,endpoint,abnormal\n"
ROW = "0,0,1.0,2.0,0,0,0\n"

# assignment text -> what follows the path in the error line
EVAL_REJECTED = [
    pytest.param("index,t\n" + ROW, " line 1: not an assignment file", id="bad-header"),
    pytest.param("", " line 1: not an assignment file", id="empty"),
    pytest.param(ASSIGNMENT_HEAD + "0,0,1.0,2.0,0,0\n", " line 2: expected 7 fields, got 6",
                 id="short-row"),
    pytest.param(ASSIGNMENT_HEAD + ROW + "\n1,5,1.0,2.0,0,0,0,0\n",
                 " line 4: expected 7 fields, got 8", id="long-row-after-blank"),
    pytest.param(ASSIGNMENT_HEAD + "0,x,1.0,2.0,0,0,0\n",
                 " line 2: invalid literal for int() with base 10: 'x'", id="bad-time"),
    pytest.param(ASSIGNMENT_HEAD + ROW + "1,5,1.0,2.0,0,1.0,0\n",
                 " line 3: invalid literal for int() with base 10: '1.0'", id="float-flag"),
    pytest.param(ASSIGNMENT_HEAD + ROW + "1,5,1.0,2.0,9223372036854775808,0,0\n",
                 " line 3: integer out of int64 range", id="int64-overflow"),
    pytest.param(ASSIGNMENT_HEAD + "\n\n", ": no data rows", id="blank-rows-only"),
    pytest.param(ASSIGNMENT_HEAD + ROW + "1,1_000,1.0,2.0,0,0,0\n",
                 " line 3: invalid literal for int() with base 10: '1_000'",
                 id="digit-separator"),
    pytest.param(ASSIGNMENT_HEAD + ROW + "1,\u0661\u0662,1.0,2.0,0,0,0\n",
                 " line 3: invalid literal for int() with base 10: '\u0661\u0662'",
                 id="non-ascii-digits"),
    # a lone surrogate escape writes the byte 0xff, which is not UTF-8
    pytest.param(ASSIGNMENT_HEAD + ROW + "1,5,1.0,2.0,0,0,\udcff\n",
                 ": 'utf-8' codec can't decode byte 0xff in position 76: invalid start byte",
                 id="not-utf-8"),
    pytest.param(ASSIGNMENT_HEAD + "1,0,1.0,2.0,0,0,0\n0,0,1.0,2.0,1,0,0\n",
                 " line 2: index 1, expected 0", id="swapped-rows"),
    pytest.param(ASSIGNMENT_HEAD + ROW + "\n99,5,1.0,2.0,0,0,0\n",
                 " line 4: index 99, expected 1", id="index-out-of-range-after-blank"),
    pytest.param(ASSIGNMENT_HEAD + ROW + "1,5,1.0,2.0,0,1,7\n",
                 " line 3: abnormal 7, expected 0 or 1", id="flag-7"),
]


@pytest.mark.parametrize("text, message", EVAL_REJECTED)
def test_eval_rejects_bad_assignment(fleet_csv, tmp_path, capsys, text, message):
    path = tmp_path / "assignment.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(["eval", str(path), str(fleet_csv)]) == 1
    assert capsys.readouterr().err == f"error: {path}{message}\n"


@pytest.mark.parametrize("variant", ["padded", "crlf", "blank-lines", "lat-lon-unread", "bom",
                                     "bom-crlf"])
def test_eval_reads_assignment_variants(fleet_csv, tmp_path, capsys, variant):
    outdir = tmp_path / "run"
    assert main(["cluster", str(fleet_csv), "--out", str(outdir)]) == 0
    clean = (outdir / "assignment.csv").read_text()
    head, *rows = clean.splitlines()
    if variant == "padded":
        rows = [",".join(f if k in (2, 3) else f" +{f} " for k, f in enumerate(r.split(",")))
                for r in rows]
    elif variant == "lat-lon-unread":
        rows = [",".join("x" if k in (2, 3) else f for k, f in enumerate(r.split(",")))
                for r in rows]
    elif variant == "blank-lines":
        rows = [r + "\n" for r in rows]
    if variant.startswith("bom"):
        head = "\ufeff" + head
    end = "\r\n" if variant.endswith("crlf") else "\n"
    odd = tmp_path / "odd.csv"
    odd.write_bytes(end.join([head, *rows, ""]).encode())
    capsys.readouterr()
    reports = []
    for path in (outdir / "assignment.csv", odd):
        assert main(["eval", str(path), str(fleet_csv), "--format", "csv"]) == 0
        reports.append(capsys.readouterr().out.rsplit(",", 1)[0])  # all but runtime_s
    assert reports[0] == reports[1]


@pytest.mark.parametrize("edit", ["time", "count"])
def test_eval_names_the_files_that_disagree(fleet_csv, tmp_path, capsys, edit):
    outdir = tmp_path / "run"
    assert main(["cluster", str(fleet_csv), "--out", str(outdir)]) == 0
    path = outdir / "assignment.csv"
    head, *rows = path.read_text().splitlines()
    n = len(rows)
    if edit == "time":
        # the second row, after a blank line, sits on line 4
        fields = rows[1].split(",")
        t = int(fields[1])
        rows[1] = ",".join([fields[0], str(t + 1), *fields[2:]])
        rows[0] += "\n"
        message = f"{path} line 4: t {t + 1}, but {fleet_csv} has t {t}"
    else:
        rows.pop()
        message = f"{path} has {n - 1} points, {fleet_csv} has {n}"
    path.write_text("\n".join([head, *rows, ""]))
    capsys.readouterr()
    assert main(["eval", str(path), str(fleet_csv)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.booleans(), st.booleans()), min_size=1,
                max_size=20))
def test_assignment_round_trips_through_its_csv(tmp_path_factory, reports):
    # endpoints include every abnormal report, as both algorithms' do
    n = len(reports)
    ds = TrackDataset(t=np.arange(n) * 10, lat=np.full(n, 37.0), lon=np.full(n, -76.0),
                      sog=np.zeros(n), cog=np.zeros(n), vids=None, alpha=1.0)
    _, cluster_of = np.unique([label for label, _, _ in reports], return_inverse=True)
    endpoints = [i for i, (_, end, severed) in enumerate(reports) if end or severed]
    abnormal = [i for i, (_, _, severed) in enumerate(reports) if severed]
    assignment = ClusterAssignment(cluster_of=cluster_of,
                                   endpoints=np.array(endpoints, dtype=np.int64),
                                   abnormal=np.array(abnormal, dtype=np.int64))
    path = tmp_path_factory.getbasetemp() / "round-trip.csv"
    path.write_bytes(b"".join(cli._assignment_csv(ds, assignment)))
    t, read = cli._read_assignment(str(path))
    assert t.tolist() == ds.t.tolist()
    assert read.cluster_of.tolist() == cluster_of.tolist()
    assert read.endpoints.tolist() == endpoints
    assert read.abnormal.tolist() == abnormal


@pytest.mark.parametrize("labels", [(0, 7), (0, -1), (7, 0)])
def test_eval_renumbers_cluster_labels(tmp_path, capsys, labels):
    # two vessels alternate over four reports, each in a cluster of its own
    truth = tmp_path / "truth.csv"
    write_ais_csv(TrackDataset.from_points(
        [AisPoint(10 * k, 37.0, -76.0 + 0.01 * (k % 2), 5.0, 0.0, "AB"[k % 2])
         for k in range(4)]), str(truth))
    reports = []
    for a, b in ((0, 1), labels):
        path = tmp_path / f"assignment_{a}_{b}.csv"
        path.write_text(ASSIGNMENT_HEAD + "".join(
            f"{k},{10 * k},1.0,2.0,{(a, b)[k % 2]},0,0\n" for k in range(4)))
        assert main(["eval", str(path), str(truth)]) == 0
        reports.append(capsys.readouterr().out.rsplit("runtime_s", 1)[0])
    assert "n_clusters_predicted = 2\n" in reports[0]
    assert "n_vessels_estimated = 2\n" in reports[0]
    assert reports[1] == reports[0]


def test_cluster_rerun_is_byte_identical(fleet_csv, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["cluster", str(fleet_csv), "--out", str(a)]) == 0
    assert main(["cluster", str(fleet_csv), "--out", str(b)]) == 0
    for name in OUT_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_manifest_replays_byte_identical(fleet_csv, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["cluster", str(fleet_csv), "--out", str(a), "--window-s", "300",
                 "--n-abnormal", "20"]) == 0
    lines = (a / "manifest.txt").read_text().splitlines()
    # the manifest's command and config lines, each config.key as its --key flag
    argv = lines[0].removeprefix("command = ").split()
    for line in lines:
        if line.startswith("config."):
            key, value = line.removeprefix("config.").split(" = ")
            argv += ["--" + key.replace("_", "-"), value]
    assert argv[:3] == ["cluster", "--algo", "cbtr"]
    assert "300" in argv and "20" in argv
    assert main(argv + [str(fleet_csv), "--out", str(b)]) == 0
    for name in OUT_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# the renderers of the first, a middle and the last output written
@pytest.mark.parametrize("writer", ["export_geojson", "export_label_timeline", "_manifest_text"])
def test_failing_writer_leaves_an_earlier_run_unchanged(fleet_csv, tmp_path, monkeypatch,
                                                         writer):
    other = tmp_path / "other.csv"
    assert main(["synth", "--n-vessels", "4", "--duration-s", "600", "--seed", "6",
                 "--out", str(other)]) == 0
    out = tmp_path / "run"
    assert main(["cluster", str(other), "--out", str(out)]) == 0
    earlier = {name: (out / name).read_bytes() for name in OUT_FILES}

    def failing(*args):
        raise ValueError(f"{writer} failed")

    monkeypatch.setattr(cli, writer, failing)
    assert main(["cluster", str(fleet_csv), "--out", str(out)]) == 1
    assert sorted(os.listdir(out)) == sorted(OUT_FILES)
    for name in OUT_FILES:
        assert (out / name).read_bytes() == earlier[name], name
    monkeypatch.undo()
    assert main(["cluster", str(fleet_csv), "--out", str(out)]) == 0
    assert (out / "assignment.csv").read_bytes() != earlier["assignment.csv"]


def test_cluster_holds_one_output_at_a_time(tmp_path):
    # the ~50k-report long-sparse benchmark fleet: its GeoJSON build sets the
    # call's peak, about 13.5 MiB; holding the rendered outputs together, the
    # whole input for its hash, or a str per report's vid or time passes 16 MiB
    fleet = tmp_path / "long.csv"
    write_ais_csv(generate_fleet(replace(scenario_s1(7), duration_s=132_000)), fleet)
    tracemalloc.start()
    try:
        assert main(["cluster", str(fleet), "--out", str(tmp_path / "run")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_assignment_row_blocks_are_invisible(fleet_csv, tmp_path, monkeypatch):
    whole = tmp_path / "whole"
    assert main(["cluster", str(fleet_csv), "--out", str(whole)]) == 0
    for rows in (1, 3, 100):
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", rows)
        out = tmp_path / f"rows{rows}"
        assert main(["cluster", str(fleet_csv), "--out", str(out)]) == 0
        assert (out / "assignment.csv").read_bytes() == (whole / "assignment.csv").read_bytes()


def test_coordinates_near_zero_keep_their_repr_form(tmp_path):
    # one vessel heading north-east across the equator and the prime meridian,
    # 3e-5 degrees a step, so |lat| and |lon| fall below 1e-4 near the crossing
    steps = np.arange(-12, 13)
    ds = TrackDataset.from_columns(10 * (steps + 12), steps * 3e-5, steps * 3e-5 + 1e-6,
                                   np.full(25, 1.3), np.full(25, 45.0),
                                   vids=["A"] * 25, epoch="1700000000")
    fleet = tmp_path / "equator.csv"
    write_ais_csv(ds, str(fleet))
    again = tmp_path / "again.csv"
    write_ais_csv(parse_ais_csv(str(fleet)), str(again))
    assert again.read_bytes() == fleet.read_bytes()

    out = tmp_path / "run"
    assert main(["cluster", str(fleet), "--out", str(out)]) == 0
    rows = list(csv.reader((out / "assignment.csv").read_text().splitlines()))[1:]
    assert [row[2] for row in rows] == list(map(repr, ds.lat.tolist()))
    assert [row[3] for row in rows] == list(map(repr, ds.lon.tolist()))
    assert rows[13][2:4] == ["3e-05", "3.1e-05"]
    text = (out / "tracks.geojson").read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert "[\n            3.1e-05,\n            3e-05\n          ]" in text


def test_cluster_npc_algo(fleet_csv, tmp_path, capsys):
    outdir = tmp_path / "npc"
    assert main(["cluster", str(fleet_csv), "--algo", "npc",
                 "--out", str(outdir)]) == 0
    manifest = (outdir / "manifest.txt").read_text()
    assert manifest.startswith("command = cluster --algo npc\n")
    assert "config.k_neighbors = 3" in manifest


def test_cluster_print_config(fleet_csv, tmp_path, capsys):
    outdir = tmp_path / "cfg"
    assert main(["cluster", str(fleet_csv), "--out", str(outdir),
                 "--print-config", "--window-s", "300"]) == 0
    out = capsys.readouterr().out
    assert "window_s = 300" in out
    manifest = (outdir / "manifest.txt").read_text()
    assert "config.window_s = 300" in manifest


@pytest.mark.parametrize("cls, algo", [(CbtrConfig, "cbtr"), (NpcConfig, "npc")])
def test_every_config_flag_reaches_the_config(fleet_csv, tmp_path, capsys, cls, algo):
    assert [name for _, name, _ in CONFIG_FLAGS[cls]] == [f.name for f in fields(cls)]
    outdir = tmp_path / algo
    argv = ["cluster", str(fleet_csv), "--algo", algo, "--out", str(outdir),
            "--print-config"]
    for flag, _, value in CONFIG_FLAGS[cls]:
        argv += [flag, str(value)]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    manifest = (outdir / "manifest.txt").read_text().splitlines()
    for _, name, value in CONFIG_FLAGS[cls]:
        assert value != getattr(cls(), name)
        assert f"{name} = {value}" in printed
        assert f"config.{name} = {value}" in manifest


@pytest.mark.parametrize("algo, other", [("cbtr", "npc"), ("npc", "cbtr")])
def test_cluster_refuses_the_other_algorithms_flags(fleet_csv, tmp_path, capsys, algo, other):
    # the chosen algorithm would ignore every one of them, so none is taken
    other_flags = CONFIG_FLAGS[{"cbtr": CbtrConfig, "npc": NpcConfig}[other]]
    outdir = tmp_path / algo
    argv = ["cluster", str(fleet_csv), "--algo", algo, "--out", str(outdir)]
    for flag, _, value in other_flags:
        argv += [flag, str(value)]
    assert main(argv) == 1
    flags = ", ".join(flag for flag, _, _ in other_flags)
    assert capsys.readouterr().err == f"error: --algo {algo} cannot take {other} flags: {flags}\n"
    assert not outdir.exists()


def test_cluster_unlabeled_input(fleet_csv, tmp_path, capsys):
    labeled = parse_ais_csv(str(fleet_csv), has_labels=True)
    stripped = TrackDataset.from_points(
        [AisPoint(int(labeled.t[i]), float(labeled.lat[i]), float(labeled.lon[i]),
                  float(labeled.sog[i]), float(labeled.cog[i]))
         for i in range(len(labeled))],
        epoch=labeled.epoch)
    bare = tmp_path / "bare.csv"
    write_ais_csv(stripped, str(bare))

    outdir = tmp_path / "anon"
    assert main(["cluster", str(bare), "--out", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "metrics omitted" in out
    assert "report: unavailable" in (outdir / "manifest.txt").read_text()

    # unlabeled truth cannot back an evaluation
    assert main(["eval", str(outdir / "assignment.csv"), str(bare)]) == 1
    assert "error:" in capsys.readouterr().err


def test_classify_flow(fleet_csv, tmp_path, capsys):
    out = tmp_path / "labeled.csv"
    assert main(["classify", str(fleet_csv), str(fleet_csv),
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "accuracy 1.0000" in stdout
    relabeled = parse_ais_csv(str(out), has_labels=True)
    truth = parse_ais_csv(str(fleet_csv), has_labels=True)
    assert relabeled.vids == truth.vids


def test_classify_across_offset_start_times(fleet_csv, tmp_path, capsys):
    # history in ISO timestamps; test reports in unix seconds, starting later
    start = 1714521600  # 2024-05-01T00:00:00Z
    rows = [line.split(",", 2) for line in fleet_csv.read_text().splitlines()[1:]]
    t0 = min(int(t) for _, t, _ in rows)
    later = [(vid, int(t), rest) for vid, t, rest in rows if int(t) >= t0 + 300]
    header = "vid,timestamp,lat,lon,sog,cog\n"
    train = tmp_path / "train.csv"
    train.write_text(header + "".join(
        f"{vid},{datetime.fromtimestamp(start + int(t), tz=timezone.utc).isoformat()},{rest}\n"
        for vid, t, rest in rows))
    test = tmp_path / "test.csv"
    test.write_text(header + "".join(f"{vid},{start + t},{rest}\n" for vid, t, rest in later))

    out = tmp_path / "labeled.csv"
    assert main(["classify", str(train), str(test), "--out", str(out)]) == 0
    assert "accuracy 1.0000" in capsys.readouterr().out
    with open(out, newline="") as handle:
        written = list(csv.reader(handle))[1:]
    # times are written back as the unix seconds they were read as
    assert [int(row[1]) for row in written] == [start + t for _, t, _ in later]
    assert [row[0] for row in written] == [vid for vid, _, _ in later]


def test_classify_before_history_prints_one_short_error(tmp_path, capsys):
    fleet = tmp_path / "fleet.csv"
    assert main(["synth", "--n-vessels", "10", "--duration-s", "900", "--seed", "5",
                 "--out", str(fleet)]) == 0
    # the history starts 450 s into the fleet, so every earlier test report
    # is unclassifiable
    header, *lines = fleet.read_text().splitlines()
    times = [int(line.split(",")[1]) for line in lines]
    late = [line for line, t in zip(lines, times) if t >= min(times) + 450]
    train = tmp_path / "train.csv"
    train.write_text("".join(f"{line}\n" for line in [header, *late]))
    capsys.readouterr()
    assert main(["classify", str(train), str(fleet),
                 "--out", str(tmp_path / "labeled.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: no labeled history for {len(lines) - len(late)} test points: ")
    assert len(err[0]) < 200


@pytest.mark.parametrize("bad", ["train", "test"])
def test_classify_error_names_the_bad_input(fleet_csv, tmp_path, capsys, bad):
    short = tmp_path / "short.csv"
    short.write_text("vid,timestamp,lat,lon,sog,cog\n"
                     "A,5,37.0,-76.0,5.0,0.0\nA,6,37.0,-76.0,5.0\n")
    files = {"train": fleet_csv, "test": fleet_csv, bad: short}
    capsys.readouterr()
    assert main(["classify", str(files["train"]), str(files["test"]),
                 "--out", str(tmp_path / "labeled.csv")]) == 1
    assert capsys.readouterr().err == f"error: {short} line 3: expected 6 fields, got 5\n"


def test_cluster_tiny_track_reports_undefined_rate(tmp_path, capsys):
    # five reports of one vessel: every link lands in the worst n_abnormal
    # and none is rescued, so no link is left to score
    points, lat, lon = [], 37.0, -76.0
    for k in range(5):
        points.append(AisPoint(120 * k, lat, lon, 10.0, 90.0, "A"))
        lat, lon = reference.advance(lat, lon, 10.0, 90.0, 120)
    tiny = tmp_path / "tiny.csv"
    write_ais_csv(TrackDataset.from_points(points), str(tiny))
    outdir = tmp_path / "run"
    assert main(["cluster", str(tiny), "--out", str(outdir)]) == 0
    assert "correct_neighbor_rate = undefined\n" in capsys.readouterr().out
    for name in OUT_FILES:
        assert (outdir / name).exists(), name
    manifest = (outdir / "manifest.txt").read_text()
    assert "correct_neighbor_rate = undefined\n" in manifest
    assert "n_clusters_predicted = 5\n" in manifest
    assert main(["eval", str(outdir / "assignment.csv"), str(tiny), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("undefined,4,0,5,1,1,")


def test_cluster_links_reports_near_the_end_of_int64_time(tmp_path):
    # rebased to the earliest, the last two reports lie near 2**63 s, 598 s
    # apart, and still link into one cluster
    path = tmp_path / "late.csv"
    path.write_text("timestamp,lat,lon,sog,cog\n"
                    "-4611686018427387903,30,-70,0,0\n"
                    "4611686018427387305,37,-76,0,0\n"
                    "4611686018427387903,37,-76,0,0\n")
    assert main(["cluster", str(path), "--out", str(tmp_path / "run"), "--n-abnormal", "0"]) == 0
    with (tmp_path / "run" / "assignment.csv").open() as f:
        assert [row["cluster"] for row in csv.DictReader(f)] == ["0", "1", "1"]


def _npc_probe(path, first):
    """A report at ``first``, then five 2**62 - 5000 s on: reports 1-3 and 4-5
    are two tracks 1,000 s apart."""
    late = 2**62 - 5000
    path.write_text("timestamp,lat,lon,sog,cog\n" + "".join(
        f"{t},{lat},{lon},10,0\n" for t, lat, lon in
        [(first, 36.95, -76.2)] + [(late + dt, lat, -76.0) for dt, lat in
                                   ((0, 37.0), (30, 37.0013), (60, 37.0026),
                                    (1000, 37.0), (1030, 37.0013))]))


@pytest.mark.parametrize("first, clusters", [
    pytest.param(-4611686018427387903, None, id="last-near-2**63"),
    pytest.param(2**62 - 5000 + 1030 - 2**53 - 1, None, id="last-at-2**53+1"),
    pytest.param(2**62 - 5000 + 1030 - 2**53, "000011", id="last-at-2**53"),
    pytest.param(2**62 - 100_000, "000011", id="ordinary"),
])
def test_npc_rejects_times_whose_float_is_inexact(tmp_path, capsys, first, clusters):
    # rebased to the earliest report; past 2**53 s the float time feature
    # put reports 1 and 4, 1,000 s apart, in one cluster
    _npc_probe(tmp_path / "late.csv", first)
    out = tmp_path / "run"
    code = main(["cluster", str(tmp_path / "late.csv"), "--algo", "npc", "--k-neighbors", "1",
                 "--out", str(out)])
    if clusters is None:
        assert code == 1 and not out.exists()
        assert "2**53" in capsys.readouterr().err
    else:
        assert code == 0
        with (out / "assignment.csv").open() as f:
            assert "".join(row["cluster"] for row in csv.DictReader(f)) == clusters


def test_downsample_flow(fleet_csv, tmp_path, capsys):
    out = tmp_path / "thin.csv"
    assert main(["downsample", str(fleet_csv), "--pattern", "every-2nd",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "kept " in stdout
    full = parse_ais_csv(str(fleet_csv))
    thin = parse_ais_csv(str(out))
    assert len(thin) < len(full)


def test_downsample_writes_absolute_times(tmp_path):
    fleet = tmp_path / "iso.csv"
    fleet.write_text("timestamp,lat,lon,sog,cog\n" + "".join(
        f"2024-05-01T00:0{minute}:00Z,37.0,-76.0,0.0,0.0\n" for minute in (0, 4, 8)))
    out = tmp_path / "thin.csv"
    assert main(["downsample", str(fleet), "--pattern", "every-2nd", "--out", str(out)]) == 0
    start = 1714521600  # 2024-05-01T00:00:00Z
    assert [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]] == \
        [start, start + 480]


def test_error_exit_codes(tmp_path, capsys):
    assert main(["cluster", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["synth", "--out", str(tmp_path / "f.csv")]) == 1  # no --n-vessels
    assert "error:" in capsys.readouterr().err

    junk = tmp_path / "junk.csv"
    junk.write_text("not,a,real,header\n1,2,3,4\n")
    assert main(["eval", str(junk), str(junk)]) == 1
    assert "error:" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags, named", [
    (["--n-vessels", "3", "--noise-sigma-m", "50"], "--n-vessels, --noise-sigma-m"),
    (["--gap-max-s", "900"], "--gap-max-s"),
    (["--archetypes", "transit"], "--archetypes"),
], ids=["vessels-and-noise", "gap-max", "archetypes"])
def test_synth_scenario_rejects_fleet_flags(tmp_path, capsys, flags, named):
    # a scenario fixes its fleet, so these flags would be dropped unread
    out = tmp_path / "f.csv"
    assert main(["synth", "--scenario", "s1", "--seed", "7", *flags, "--out", str(out)]) == 1
    assert f"error: {named} cannot be combined with --scenario" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point(tmp_path):
    out = tmp_path / "fleet.csv"
    # the child imports the package from this tree, as the test process does
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "trackstitch.cli", "synth", "--n-vessels", "1",
         "--duration-s", "400", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
