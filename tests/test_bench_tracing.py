"""The benchmark's tracing points still name the layer functions they time.

bench/tracing.py replaces layer functions at the module attributes where
their callers look them up.  A renamed or re-routed function would leave a
layer untimed, or timed twice, without any benchmark call failing.
"""

import sys
from pathlib import Path

from trackstitch import cli
from trackstitch.ingest import write_ais_csv
from trackstitch.synth import generate_fleet

from conftest import small_mixed_config

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
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
