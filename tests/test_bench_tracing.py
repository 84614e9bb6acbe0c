"""The benchmark's entry points into the library still hold.

bench/tracing.py replaces layer functions at the module attributes where
their callers look them up.  A renamed or re-routed function would leave a
layer untimed, or timed twice, without any benchmark call failing.  The
benchmark's own tests are not collected with these, so the CLI arguments
and the split that bench/harness.py relies on are checked here too.
"""

import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from trackstitch import cli, synth
from trackstitch.ingest import write_ais_csv
from trackstitch.synth import generate_fleet

from conftest import small_mixed_config
from test_acceptance import S1_NO_LINK, S1_RESCUED, S1_SEVERED_TOTAL

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import harness  # noqa: E402
import tracing  # noqa: E402


def test_layer_points_resolve():
    for module, attr, _, _ in tracing.LAYER_POINTS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_npc_cluster_groups_once(tmp_path, capsys):
    fleet = tmp_path / "fleet.csv"
    write_ais_csv(generate_fleet(small_mixed_config(3, n_vessels=2, duration_s=600)), fleet)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.main(["cluster", str(fleet), "--algo", "npc",
                         "--out", str(tmp_path / "out")]) == 0
    assert [s.name for s in tracer.spans].count("npc.grouping") == 1


def test_stage_counts_read_the_flagged_reports(tmp_path, s1):
    # the counters take len() of the flag fields, so those must hold indices
    fleet = tmp_path / "s1.csv"
    write_ais_csv(s1, fleet)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.main(["cluster", str(fleet), "--out", str(tmp_path / "out")]) == 0
    counts = {s.name: s.counts for s in tracer.spans}
    assert counts["cbtr.detect_abnormal"] == {"rescued": S1_RESCUED}
    assert counts["cbtr.assemble_clusters"] == {"severed": S1_SEVERED_TOTAL - S1_NO_LINK}


def test_parser_takes_the_benchmark_cluster_arguments():
    args = cli.build_parser().parse_args(["cluster", "f", "--out", "o", "--threads", "2"])
    assert (args.cmd, args.input, args.out, args.threads) == ("cluster", "f", "o", 2)


def test_harness_split_matches_the_library_split():
    fleet = generate_fleet(small_mixed_config(3, n_vessels=3, duration_s=600))
    for ours, lib in zip(harness.even_odd_split(fleet), synth.even_odd_split(fleet)):
        assert len(ours) > 0
        for f in fields(ours):
            a, b = getattr(ours, f.name), getattr(lib, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name
