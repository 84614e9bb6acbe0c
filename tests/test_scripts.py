import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import (
    GAPS_JUMPS_W300,
    GAPS_RATE_W300,
    NPC_CLASSIFY_ACC,
    NPC_RATE,
    S1_CLUSTERS,
    S1_N,
    S1_RATE,
)

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_script_help_runs(script):
    # importing the script binds every library name it uses
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _rows(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_scan_seeds_reports_the_s1_goldens():
    # seed 7 is the s1 fleet: no jumps or merges
    rows = _rows("scan_seeds.py", "--seeds", "1", "--first", "7")
    assert f"7,{S1_N},{S1_RATE:.6f},0,0,{S1_CLUSTERS}" in rows


def test_sweep_window_reports_the_gaps_goldens():
    rows = _rows("sweep_window.py", "--windows", "300")
    assert any(row.startswith(f"300,{GAPS_RATE_W300:.6f},{GAPS_JUMPS_W300},") for row in rows)


def test_s1_benchmark_script_reports_npc_golden():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_s1_benchmark.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    npc_part = proc.stdout.split("== next-point connection ==", 1)[1]
    assert f"correct_neighbor_rate = {NPC_RATE:.6f}\n" in npc_part
    assert f"classify_accuracy = {NPC_CLASSIFY_ACC:.6f}\n" in npc_part
    assert "\nclassify_runtime_s = " in npc_part
