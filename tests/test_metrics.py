import numpy as np
import pytest
from hypothesis import given, strategies as st

from trackstitch.metrics import (
    EvalReport,
    build_report,
    correct_neighbor_rate,
    estimate_vessel_count,
    jumps_merges,
    successor_targets,
)
from trackstitch.model import ClusterAssignment


def _assignment(labels):
    return ClusterAssignment(cluster_of=np.array(labels, dtype=np.int64),
                             endpoints=np.empty(0, dtype=np.int64),
                             abnormal=np.empty(0, dtype=np.int64))


def test_rate_counts_only_linked_points():
    assert correct_neighbor_rate([1, 2, -1], ["a", "b", "b"]) == 0.5
    assert correct_neighbor_rate([1, -1, 3, -1], ["a", "a", "b", "b"]) == 1.0


def test_rate_error_paths():
    with pytest.raises(ValueError):
        correct_neighbor_rate([1], ["a", "b"])
    with pytest.raises(ValueError):
        correct_neighbor_rate([-1, -1], ["a", "b"])
    with pytest.raises(ValueError):
        correct_neighbor_rate([1, -1], ["a", None])


def test_jumps_merges_hand_cases():
    assert jumps_merges(_assignment([0, 0, 1, 1]), ["a", "a", "b", "b"]) == (0, 0)
    assert jumps_merges(_assignment([0, 1, 1, 2]), ["a", "a", "a", "b"]) == (1, 0)
    assert jumps_merges(_assignment([0, 0, 0, 0]), ["a", "a", "b", "b"]) == (0, 1)
    assert jumps_merges(_assignment([0, 1, 1, 1, 2]), ["a", "a", "b", "b", "c"]) == (1, 1)


def test_jumps_merges_error_paths():
    with pytest.raises(ValueError):
        jumps_merges(_assignment([0, 0]), ["a"])
    with pytest.raises(ValueError):
        jumps_merges(_assignment([]), [])
    with pytest.raises(ValueError):
        jumps_merges(_assignment([0, 0]), ["a", None])


def test_estimate_vessel_count():
    assert estimate_vessel_count(19, 0, 1) == 20
    assert estimate_vessel_count(3, 1, 1) == 3
    with pytest.raises(ValueError):
        estimate_vessel_count(1, 2, 0)


@given(st.lists(st.tuples(st.sampled_from("abcde"), st.integers(0, 6)),
                min_size=1, max_size=40))
def test_estimate_recovers_true_count_for_any_partition(pairs):
    """clusters + merges - jumps lands on the vessel count no matter how
    badly the clustering scrambled things."""
    vids = [vid for vid, _ in pairs]
    seen: dict[int, int] = {}
    labels = []
    for _, raw in pairs:
        if raw not in seen:
            seen[raw] = len(seen)
        labels.append(seen[raw])
    assignment = _assignment(labels)
    jumps, merges = jumps_merges(assignment, vids)
    estimate = estimate_vessel_count(assignment.n_clusters, jumps, merges)
    assert estimate == len(set(vids))


def test_successor_targets_chains_within_cluster():
    chained = successor_targets([0, 1, 0, 1, 2, 0])
    assert chained.dtype == np.int64
    assert chained.tolist() == [2, 3, 5, -1, -1, -1]
    assert successor_targets([0, 1, 2]).tolist() == [-1, -1, -1]
    assert successor_targets([]).tolist() == []


def test_successor_targets_score_perfect_clustering():
    cluster_of = [0, 1, 0, 1]
    vids = ["a", "b", "a", "b"]
    assert correct_neighbor_rate(successor_targets(cluster_of), vids) == 1.0


def test_report_validates_identity():
    EvalReport(correct_neighbor_rate=1.0, jumps=1, merges=0,
               n_clusters_predicted=3, n_vessels_true=2,
               n_vessels_estimated=2, runtime_s=0.0)
    with pytest.raises(ValueError):
        EvalReport(correct_neighbor_rate=1.0, jumps=1, merges=0,
                   n_clusters_predicted=3, n_vessels_true=2,
                   n_vessels_estimated=3, runtime_s=0.0)
    with pytest.raises(ValueError):
        EvalReport(correct_neighbor_rate=1.5, jumps=0, merges=0,
                   n_clusters_predicted=1, n_vessels_true=1,
                   n_vessels_estimated=1, runtime_s=0.0)


def test_report_renderings():
    report = EvalReport(correct_neighbor_rate=0.9972, jumps=0, merges=1,
                        n_clusters_predicted=19, n_vessels_true=20,
                        n_vessels_estimated=20, runtime_s=1.2345)
    text = report.to_text()
    assert text.splitlines() == [
        "correct_neighbor_rate = 0.997200",
        "jumps = 0",
        "merges = 1",
        "n_clusters_predicted = 19",
        "n_vessels_true = 20",
        "n_vessels_estimated = 20",
        "runtime_s = 1.234",
    ]
    assert "runtime_s" not in report.to_text(include_runtime=False)
    assert report.to_csv_row() == "0.997200,0,1,19,20,20,1.234"
    assert len(EvalReport.CSV_HEADER.split(",")) == len(report.to_csv_row().split(","))


def test_build_report_assembles_everything():
    labels = [0, 1, 1, 1, 2]
    vids = ["a", "a", "b", "b", "c"]
    report = build_report(_assignment(labels), successor_targets(labels),
                          vids, runtime_s=2.0)
    assert report.jumps == 1
    assert report.merges == 1
    assert report.n_clusters_predicted == 3
    assert report.n_vessels_true == 3
    assert report.n_vessels_estimated == 3
    assert report.runtime_s == 2.0
    # chain links: 1->2 crosses vessels, 2->3 stays, so 1 of 2 linked misses
    assert report.correct_neighbor_rate == pytest.approx(0.5)


def test_build_report_without_links_leaves_rate_undefined():
    report = build_report(_assignment([0, 1]), [-1, -1], ["a", "a"], runtime_s=0.0)
    assert report.correct_neighbor_rate is None
    assert report.to_text().startswith("correct_neighbor_rate = undefined\n")
    assert report.to_csv_row().startswith("undefined,1,0,2,1,1,")
