"""Checks of the benchmark's own arithmetic and wrapping.

    python3 -m pytest bench -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
from trackstitch.cbtr import candidate_window  # noqa: E402
from trackstitch.model import CbtrConfig  # noqa: E402
from trackstitch.synth import SynthConfig, generate_fleet  # noqa: E402


def _spans(*rows):
    return [tracing.Span(name, start, end, parent) for name, start, end, parent in rows]


def test_self_time_is_span_minus_time_its_children_cover():
    spans = _spans(
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 4.0, 0),     # overlaps a: [1, 4] is covered once
        ("a.leaf", 1.5, 2.5, 1),  # a grandchild counts against a, not root
        ("c", 9.0, 12.0, 0),    # only the part inside root counts
    )
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0, 3.0])


def test_nested_spans_get_their_parent_from_the_clock_order():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root"):
        with tracer.span("child"):
            pass
        with tracer.span("sibling"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("root", None), ("child", 0), ("sibling", 0)]
    owns = tracing.self_times(tracer.spans)
    assert sum(owns) == pytest.approx(tracer.spans[0].duration)


def test_candidates_equal_the_summed_candidate_windows():
    ds = generate_fleet(SynthConfig(n_vessels=4, duration_s=1800, seed=3))
    cfg = CbtrConfig()
    expected = sum(len(candidate_window(ds, i, cfg)) for i in range(len(ds)))
    assert harness.candidates(ds.t, cfg.window_s) == expected
    short = CbtrConfig(window_s=120)
    assert harness.candidates(ds.t, 120) == sum(
        len(candidate_window(ds, i, short)) for i in range(len(ds)))


def _originals():
    return [getattr(module, attr) for module, attr, _, _ in tracing.LAYER_POINTS]


def _tiny_runner(tmp_path, algo, classify=True):
    workload = harness.Workload(f"tiny-{algo}", algo,
                                lambda seed: SynthConfig(n_vessels=4, duration_s=1800,
                                                         noise_sigma_m=8.0, seed=seed),
                                classify=classify)
    inputs = harness.set_up(workload, 5, tmp_path)
    return harness.Runner(workload, inputs, tmp_path)


def test_untraced_calls_run_the_original_functions(tmp_path):
    originals = _originals()
    runner = _tiny_runner(tmp_path, "cbtr")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert all(now is not was for now, was in zip(_originals(), originals))
    assert _originals() == originals

    cluster, classify = runner.iterate(tracer)
    assert _originals() == originals
    traced = len(tracer.spans)
    assert traced > 2
    runner.iterate()  # untraced: nothing may reach the tracer
    assert len(tracer.spans) == traced
    assert _originals() == originals
    assert not any(call.problems for call in runner.calls)


@pytest.mark.parametrize("algo, classify", [("cbtr", False), ("npc", True)])
def test_traced_iteration_yields_every_declared_layer_metric(tmp_path, algo, classify):
    runner = _tiny_runner(tmp_path, algo, classify)
    tracer, threads2 = tracing.Tracer(), tracing.Tracer()
    cluster, classify = runner.iterate(tracer)
    runner.cluster(threads2, threads=2)
    fleet = runner.inputs.fleet
    metrics = harness.layer_metrics(tracer, threads2,
                                    harness.candidates(fleet.t, CbtrConfig().window_s),
                                    cluster, classify, cluster.seconds)
    assert set(metrics) == set(harness._declared()["per_layer"])
    assert not any(call.problems for call in runner.calls)
    assert metrics["trace.overhead_s"] == 0.0
    if algo == "npc":
        assert metrics["quality.classify_accuracy"] > 0.9
        assert metrics["npc.grouping_calls"] == 2
        assert metrics["npc.distance_cells"] == 2 * len(fleet) ** 2
        assert metrics["cbtr.candidates"] == 0
    else:
        assert classify is None and metrics["npc.classify_s"] == 0
        assert metrics["npc.grouping_calls"] == 0
        assert metrics["cbtr.no_link"] + metrics["cbtr.linked_ratio"] * len(fleet) \
            == pytest.approx(len(fleet))
    layer_sum = sum(v for k, v in metrics.items()
                    if k.endswith("_s") and k not in ("trace.overhead_s",))
    calls_sum = cluster.seconds + (classify.seconds if classify else 0.0)
    assert layer_sum == pytest.approx(calls_sum, rel=1e-9)
