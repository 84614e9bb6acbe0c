import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import reference
from trackstitch import cli, ingest
from trackstitch.cli import main
from trackstitch.ingest import parse_ais_csv, write_ais_csv
from trackstitch.model import AisPoint, CbtrConfig, TrackDataset
from trackstitch.npc import NpcConfig

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
    pytest.param(ASSIGNMENT_HEAD + "0,0,1.0,2.0,0,0\n", " line 2: expected 7 fields",
                 id="short-row"),
    pytest.param(ASSIGNMENT_HEAD + ROW + "\n1,5,1.0,2.0,0,0,0,0\n",
                 " line 4: expected 7 fields", id="long-row-after-blank"),
    pytest.param(ASSIGNMENT_HEAD + "0,x,1.0,2.0,0,0,0\n",
                 " line 2: invalid literal for int() with base 10: 'x'", id="bad-time"),
    pytest.param(ASSIGNMENT_HEAD + ROW + "1,5,1.0,2.0,0,1.0,0\n",
                 " line 3: invalid literal for int() with base 10: '1.0'", id="float-flag"),
    pytest.param(ASSIGNMENT_HEAD + ROW + "1,5,1.0,2.0,9223372036854775808,0,0\n",
                 " line 3: integer out of int64 range", id="int64-overflow"),
    pytest.param(ASSIGNMENT_HEAD + "\n\n", ": no data rows", id="blank-rows-only"),
    pytest.param(ASSIGNMENT_HEAD + ROW + "1,1_000,1.0,2.0,0,0,0\n",
                 ": unreadable assignment: could not convert string '1_000' to int64"
                 " at row 1, column 2.", id="digit-separator"),
    pytest.param(ASSIGNMENT_HEAD + ROW + "1,\u0661\u0662,1.0,2.0,0,0,0\n",
                 ": unreadable assignment: could not convert string '\u0661\u0662' to"
                 " int64 at row 1, column 2.", id="non-ascii-digits"),
]


@pytest.mark.parametrize("text, message", EVAL_REJECTED)
def test_eval_rejects_bad_assignment(fleet_csv, tmp_path, capsys, text, message):
    path = tmp_path / "assignment.csv"
    path.write_bytes(text.encode())
    assert main(["eval", str(path), str(fleet_csv)]) == 1
    assert capsys.readouterr().err == f"error: {path}{message}\n"


@pytest.mark.parametrize("variant", ["padded", "crlf", "blank-lines", "lat-lon-unread"])
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
    end = "\r\n" if variant == "crlf" else "\n"
    odd = tmp_path / "odd.csv"
    odd.write_bytes(end.join([head, *rows, ""]).encode())
    capsys.readouterr()
    reports = []
    for path in (outdir / "assignment.csv", odd):
        assert main(["eval", str(path), str(fleet_csv), "--format", "csv"]) == 0
        reports.append(capsys.readouterr().out.rsplit(",", 1)[0])  # all but runtime_s
    assert reports[0] == reports[1]


def test_cluster_rerun_is_byte_identical(fleet_csv, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["cluster", str(fleet_csv), "--out", str(a)]) == 0
    assert main(["cluster", str(fleet_csv), "--out", str(b)]) == 0
    for name in OUT_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_manifest_replays_byte_identical(fleet_csv, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["cluster", str(fleet_csv), "--out", str(a), "--window-s", "300",
                 "--n-abnormal", "20", "--threads", "2"]) == 0
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


def test_failing_writer_leaves_an_earlier_run_unchanged(fleet_csv, tmp_path, monkeypatch):
    other = tmp_path / "other.csv"
    assert main(["synth", "--n-vessels", "4", "--duration-s", "600", "--seed", "6",
                 "--out", str(other)]) == 0
    out = tmp_path / "run"
    assert main(["cluster", str(other), "--out", str(out)]) == 0
    earlier = {name: (out / name).read_bytes() for name in OUT_FILES}

    def failing(ds, assignment):
        raise ValueError("timeline failed")

    monkeypatch.setattr(cli, "export_label_timeline", failing)
    assert main(["cluster", str(fleet_csv), "--out", str(out)]) == 1
    for name in OUT_FILES:
        assert (out / name).read_bytes() == earlier[name], name
    monkeypatch.undo()
    assert main(["cluster", str(fleet_csv), "--out", str(out)]) == 0
    assert (out / "assignment.csv").read_bytes() != earlier["assignment.csv"]


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
    for flag, _, value in CONFIG_FLAGS[CbtrConfig] + CONFIG_FLAGS[NpcConfig]:
        argv += [flag, str(value)]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    manifest = (outdir / "manifest.txt").read_text().splitlines()
    for _, name, value in CONFIG_FLAGS[cls]:
        assert value != getattr(cls(), name)
        assert f"{name} = {value}" in printed
        assert f"config.{name} = {value}" in manifest


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
