"""Next-point connection: classification and clustering by nearest reports.

Both operations measure nearness in feature space (time, scaled latitude,
longitude, and optionally speed and course, each with its own weight) and
then let constant-velocity extrapolation decide which nearby report really
belongs to the same vessel.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .cbtr import components_of
from .kinematics import displace, ground_distance_coords_m
from .model import ClusterAssignment, TrackDataset

# classification looks back at most this many reports per label
RECENT_PER_LABEL = 10

# reports whose neighbors are searched per numpy pass; each pass scores
# them against one contiguous time window of the dataset
_BLOCK_ROWS = 32


@dataclass(frozen=True)
class NpcConfig:
    """Neighborhood size and feature weights.

    ``lat_weight`` of None means "use the dataset's latitude scale", which
    makes one weighted latitude degree match one longitude degree of ground.
    """

    k_neighbors: int = 3
    time_weight: float = 1e-5
    lat_weight: float | None = None
    lon_weight: float = 1.0
    sog_weight: float = 0.0
    cog_weight: float = 0.0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        for name in ("time_weight", "lon_weight", "sog_weight", "cog_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.lat_weight is not None and self.lat_weight < 0:
            raise ValueError("lat_weight must be >= 0")


class UnclassifiablePointError(ValueError):
    """No label had any report at or before some test points' times."""

    def __init__(self, indices: list[int]):
        self.indices = indices
        shown = ", ".join(str(i) for i in indices[:10])
        more = ", ..." if len(indices) > 10 else ""
        super().__init__(f"no labeled history for {len(indices)} test points: {shown}{more}")


def _mean_course_deg(a: float, b: float) -> float:
    """Average of two compass courses, taken on the circle."""
    ar, br = math.radians(a), math.radians(b)
    y = (math.sin(ar) + math.sin(br)) / 2.0
    x = (math.cos(ar) + math.cos(br)) / 2.0
    if x == 0.0 and y == 0.0:
        return a  # opposite courses; any choice is as wrong as another
    return math.degrees(math.atan2(y, x)) % 360.0


def npc_classify(train: TrackDataset, test: TrackDataset) -> tuple[str, ...]:
    """Label each test report with the vessel whose track best reaches it.

    For every label, take the spatially closest of its last few reports at
    or before the test time, advance it to the test time, and score the
    label by how near the projection lands.  The nearest projection wins;
    ties go to the first label in sorted order.
    """
    if not train.has_vids():
        raise ValueError("training data must carry vids")
    labels = sorted(set(train.vids))
    by_label: dict[str, list[int]] = {label: [] for label in labels}
    for i in range(len(train)):
        by_label[train.vids[i]].append(i)
    label_times = {label: [int(train.t[i]) for i in idx]
                   for label, idx in by_label.items()}

    results: list[str | None] = []
    dead: list[int] = []
    for k in range(len(test)):
        tk = int(test.t[k])
        lat_k = float(test.lat[k])
        lon_k = float(test.lon[k])
        best_label = None
        best_d = math.inf
        for label in labels:
            idx = by_label[label]
            cut = bisect_right(label_times[label], tk)
            if cut == 0:
                continue
            recent = idx[max(0, cut - RECENT_PER_LABEL):cut]
            sel = None
            sel_d = math.inf
            for i in recent:
                d = ground_distance_coords_m(float(train.lat[i]), float(train.lon[i]),
                                             lat_k, lon_k)
                if d < sel_d:
                    sel, sel_d = i, d
            est_lat, est_lon = displace(float(train.lat[sel]), float(train.lon[sel]),
                                        float(train.sog[sel]), float(train.cog[sel]),
                                        tk - int(train.t[sel]))
            d = ground_distance_coords_m(est_lat, est_lon, lat_k, lon_k)
            if d < best_d:
                best_label, best_d = label, d
        if best_label is None:
            dead.append(k)
        results.append(best_label)
    if dead:
        raise UnclassifiablePointError(dead)
    return tuple(results)


def _window_d2(feats: list[np.ndarray], a: int, b: int, lo: int, hi: int) -> np.ndarray:
    """Squared feature distances of reports a..b-1 to reports lo..hi-1, self
    cells set to inf.  Direct differences, time term first: every other term
    is non-negative, so no cell rounds below its time term."""
    d2 = np.subtract.outer(feats[0][a:b], feats[0][lo:hi])
    d2 *= d2
    for col in feats[1:]:
        diff = np.subtract.outer(col[a:b], col[lo:hi])
        diff *= diff
        d2 += diff
    d2[np.arange(b - a), np.arange(a - lo, b - lo)] = np.inf
    return d2


def npc_grouping_targets(ds: TrackDataset, cfg: NpcConfig | None = None) -> np.ndarray:
    """For each report, the neighbor it groups with.

    Among the k feature-space nearest neighbors, pick the one whose actual
    position best matches extrapolating this report with the pair's average
    velocity over their (signed) time difference.

    The neighbors are searched in a window of the time-sorted reports around
    each block of rows.  The window is kept only when every report outside it
    is, by its time term alone, strictly farther than each row's k-th nearest
    inside; otherwise it is widened.  Ties go to the lower index.
    """
    cfg = cfg or NpcConfig()
    n = len(ds)
    k = cfg.k_neighbors
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} points")
    lat_w = ds.alpha if cfg.lat_weight is None else cfg.lat_weight
    tf = cfg.time_weight * ds.t.astype(np.float64)
    # a zero-weight term adds exactly 0.0 to every distance, so it is left out
    feats = [tf] + [w * col for w, col in ((lat_w, ds.lat), (cfg.lon_weight, ds.lon),
                                           (cfg.sog_weight, ds.sog), (cfg.cog_weight, ds.cog))
                    if w != 0]

    targets = np.empty(n, dtype=np.int64)
    radius = k  # reports scored on each side of a block, at least k
    for a in range(0, n, _BLOCK_ROWS):
        b = min(n, a + _BLOCK_ROWS)
        while True:
            lo, hi = max(0, a - radius), min(n, b + radius)
            d2 = _window_d2(feats, a, b, lo, hi)
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
            # tf is non-decreasing, so the reports at lo-1 and hi have the
            # smallest time gaps of all reports outside the window
            if ((lo == 0 or np.all((tf[a:b] - tf[lo - 1]) ** 2 > kth))
                    and (hi == n or np.all((tf[hi] - tf[a:b]) ** 2 > kth))):
                break
            radius *= 2
        # the columns within some row's k-th best hold every neighbor and
        # span the radius this block needed
        near = np.flatnonzero(np.any(d2 <= kth[:, None], axis=0))
        first, last = lo + int(near[0]), lo + int(near[-1]) + 1
        radius = max(k, a - first, last - b)
        order = np.argsort(d2[:, first - lo:last - lo], axis=1, kind="stable")[:, :k] + first
        for row, i in enumerate(range(a, b)):
            best_j = -1
            best_d = math.inf
            for j in sorted(int(x) for x in order[row]):
                dt = int(ds.t[j]) - int(ds.t[i])
                avg_sog = (float(ds.sog[i]) + float(ds.sog[j])) / 2.0
                avg_cog = _mean_course_deg(float(ds.cog[i]), float(ds.cog[j]))
                est_lat, est_lon = displace(float(ds.lat[i]), float(ds.lon[i]),
                                            avg_sog, avg_cog, dt)
                d = ground_distance_coords_m(est_lat, est_lon,
                                             float(ds.lat[j]), float(ds.lon[j]))
                if d < best_d:
                    best_j, best_d = j, d
            targets[i] = best_j
    return targets


def npc_cluster(targets: np.ndarray) -> ClusterAssignment:
    """Cluster reports by their grouping targets (from npc_grouping_targets),
    labels ordered by earliest member."""
    return ClusterAssignment(cluster_of=components_of(targets),
                             endpoints=frozenset(), abnormal=frozenset())
