"""Reconstruction quality measures against ground-truth vessel ids."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ClusterAssignment, label_codes, label_groups


def _vessel_codes(vids: Sequence[str | None]) -> tuple[np.ndarray, int]:
    """Each report's vessel as a code, and the code standing for a missing
    vid (-1 when every report has one)."""
    labels, codes = label_codes(vids)
    return codes, labels.index(None) if None in labels else -1


def _neighbor_hits(targets: Sequence[int] | np.ndarray,
                   codes: np.ndarray, missing: int) -> tuple[int, int]:
    """(linked reports whose next report shares their vid, linked reports)."""
    if len(targets) != len(codes):
        raise ValueError("targets and vids must align")
    targets = np.asarray(targets, dtype=np.int64)
    src = np.nonzero(targets >= 0)[0]
    src_codes, dst_codes = codes[src], codes[targets[src]]
    unknown = (src_codes == missing) | (dst_codes == missing)
    if unknown.any():
        k = int(np.argmax(unknown))
        point = src[k] if src_codes[k] == missing else targets[src[k]]
        raise ValueError(f"point {point} has no vid")
    return int(np.count_nonzero(src_codes == dst_codes)), len(src)


def correct_neighbor_rate(targets: Sequence[int] | np.ndarray,
                          vids: Sequence[str]) -> float:
    """Fraction of linked reports whose chosen next report shares their vid.

    ``targets`` holds one entry per point: the linked point's index, or
    -1 when the point has no outgoing link.  Unlinked points count in
    neither the numerator nor the denominator.
    """
    hits, linked = _neighbor_hits(targets, *_vessel_codes(vids))
    if linked == 0:
        raise ValueError("no linked points to score")
    return hits / linked


def _jumps_merges(assignment: ClusterAssignment, codes: np.ndarray,
                  missing: int) -> tuple[int, int]:
    if len(assignment) != len(codes):
        raise ValueError("assignment and vids must align")
    if len(codes) == 0:
        raise ValueError("empty truth")
    if missing >= 0:
        raise ValueError(f"point {int(np.argmax(codes == missing))} has no vid")
    cluster_of = assignment.cluster_of
    pairs = np.unique(codes * (int(cluster_of.max()) + 1) + cluster_of).size
    return (pairs - int(codes.max()) - 1, pairs - np.unique(cluster_of).size)


def jumps_merges(assignment: ClusterAssignment, vids: Sequence[str]) -> tuple[int, int]:
    """Count how often vessels split across clusters and clusters mix vessels.

    A vessel spread over c clusters contributes c-1 jumps; a cluster holding
    v vessels contributes v-1 merges.  Summed, each count is the number of
    distinct (vessel, cluster) pairs minus the number of vessels or clusters.
    """
    return _jumps_merges(assignment, *_vessel_codes(vids))


def estimate_vessel_count(n_clusters: int, jumps: int, merges: int) -> int:
    """Vessel count implied by the cluster count and the two error counts."""
    estimate = n_clusters + merges - jumps
    if estimate < 1:
        raise ValueError(f"inconsistent counts: {n_clusters} clusters, "
                         f"{jumps} jumps, {merges} merges")
    return estimate


@dataclass(frozen=True)
class EvalReport:
    """One run's quality summary; text and CSV renderings are stable.

    ``correct_neighbor_rate`` is None when no link is left to score.
    """

    correct_neighbor_rate: float | None
    jumps: int
    merges: int
    n_clusters_predicted: int
    n_vessels_true: int
    n_vessels_estimated: int
    runtime_s: float

    CSV_HEADER = ("correct_neighbor_rate,jumps,merges,n_clusters_predicted,"
                  "n_vessels_true,n_vessels_estimated,runtime_s")

    def __post_init__(self):
        rate = self.correct_neighbor_rate
        if rate is not None and not 0.0 <= rate <= 1.0:
            raise ValueError("correct_neighbor_rate must be in [0, 1]")
        for name in ("jumps", "merges", "n_clusters_predicted",
                     "n_vessels_true", "n_vessels_estimated"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        expected = self.n_clusters_predicted + self.merges - self.jumps
        if self.n_vessels_estimated != expected:
            raise ValueError(
                f"n_vessels_estimated {self.n_vessels_estimated} does not match "
                f"clusters + merges - jumps = {expected}")

    def _rate_text(self) -> str:
        rate = self.correct_neighbor_rate
        return "undefined" if rate is None else f"{rate:.6f}"

    def to_text(self, include_runtime: bool = True) -> str:
        lines = [
            f"correct_neighbor_rate = {self._rate_text()}",
            f"jumps = {self.jumps}",
            f"merges = {self.merges}",
            f"n_clusters_predicted = {self.n_clusters_predicted}",
            f"n_vessels_true = {self.n_vessels_true}",
            f"n_vessels_estimated = {self.n_vessels_estimated}",
        ]
        if include_runtime:
            lines.append(f"runtime_s = {self.runtime_s:.3f}")
        return "\n".join(lines)

    def to_csv_row(self) -> str:
        return (f"{self._rate_text()},{self.jumps},{self.merges},"
                f"{self.n_clusters_predicted},{self.n_vessels_true},"
                f"{self.n_vessels_estimated},{self.runtime_s:.3f}")


def successor_targets(cluster_of: Sequence[int] | np.ndarray) -> np.ndarray:
    """Chain each point to the next report in its own cluster.

    Returns one index per point, -1 for the last report of a cluster (the
    ``LinkSet.targets`` convention).  Used to score an assignment when the
    original link choices are not available, e.g. when evaluating from an
    assignment file.  Cluster labels must be non-negative.
    """
    order, starts = label_groups(np.asarray(cluster_of, dtype=np.int64))
    targets = np.full(order.size, -1, dtype=np.int64)
    targets[order[:-1]] = order[1:]
    # the last report of each cluster's run has no successor
    targets[order[np.array(starts[1:], dtype=np.int64) - 1]] = -1
    return targets


def build_report(assignment: ClusterAssignment,
                 targets: Sequence[int] | np.ndarray,
                 vids: Sequence[str], runtime_s: float) -> EvalReport:
    """Assemble the full report for one reconstruction run."""
    codes, missing = _vessel_codes(vids)
    jumps, merges = _jumps_merges(assignment, codes, missing)
    n_clusters = assignment.n_clusters
    hits, linked = _neighbor_hits(targets, codes, missing)
    return EvalReport(
        correct_neighbor_rate=hits / linked if linked else None,
        jumps=jumps,
        merges=merges,
        n_clusters_predicted=n_clusters,
        n_vessels_true=int(codes.max()) + 1,
        n_vessels_estimated=estimate_vessel_count(n_clusters, jumps, merges),
        runtime_s=runtime_s,
    )
