"""Next-point connection: classification and clustering by nearest reports.

Both operations measure nearness in feature space (time, scaled latitude,
longitude, and optionally speed and course, each with its own weight) and
then let constant-velocity extrapolation decide which nearby report really
belongs to the same vessel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cbtr import components_of
from .kinematics import displace, ground_distance_m
from .model import ClusterAssignment, TrackDataset, label_codes, label_groups

# classification looks back at most this many reports per label
RECENT_PER_LABEL = 10

# reports whose neighbors are searched per numpy pass; each pass scores
# them against one contiguous time window of the dataset
_BLOCK_ROWS = 32

_FIT_ROWS = 1024  # reports whose neighbors are extrapolated per numpy pass


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


def npc_classify(train: TrackDataset, test: TrackDataset) -> tuple[str, ...]:
    """Label each test report with the vessel whose track best reaches it.

    For every label, take the spatially closest of its last few reports at
    or before the test time, advance it to the test time, and score the
    label by how near the projection lands.  The nearest projection wins;
    ties go to the first label in sorted order.
    """
    if not train.has_vids():
        raise ValueError("training data must carry vids")
    distinct, codes = label_codes(train.vids)
    # each label's reports, label by label, in time order within a label
    members, starts = label_groups(codes, len(distinct))
    best = np.full(len(test), -1, dtype=np.int64)
    best_d = np.full(len(test), np.inf)
    for code in sorted(range(len(distinct)), key=distinct.__getitem__):
        idx = members[starts[code]:starts[code + 1]]
        cut = np.searchsorted(train.t[idx], test.t, side="right")
        # positions cut-10..cut-1 of the label's history; any below 0 repeat
        # position 0, which is among them whenever cut > 0
        recent = idx[np.maximum(cut[:, None] + np.arange(-RECENT_PER_LABEL, 0), 0)]
        near = ground_distance_m(train.lat[recent], train.lon[recent],
                                 test.lat[:, None], test.lon[:, None])
        sel = recent[np.arange(len(test)), np.argmin(near, axis=1)]
        est_lat, est_lon = displace(train.lat[sel], train.lon[sel], train.sog[sel],
                                    train.cog[sel], test.t - train.t[sel])
        d = ground_distance_m(est_lat, est_lon, test.lat, test.lon)
        better = (cut > 0) & (d < best_d)
        best[better] = code
        best_d[better] = d[better]
    if np.any(best < 0):
        raise UnclassifiablePointError(np.flatnonzero(best < 0).tolist())
    return tuple(np.array(distinct, dtype=object)[best].tolist())


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

    nbr = np.empty((n, k), dtype=np.int64)
    radius = k  # reports scored on each side of a block, at least k
    for a in range(0, n, _BLOCK_ROWS):
        b = min(n, a + _BLOCK_ROWS)
        while True:
            lo, hi = max(0, a - radius), min(n, b + radius)
            d2 = _window_d2(feats, a, b, lo, hi)
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
            # tf is non-decreasing, so the reports at lo-1 and hi have the
            # smallest time gaps of all reports outside the window
            if ((lo == 0 or np.all((tf[a:b, None] - tf[lo - 1]) ** 2 > kth))
                    and (hi == n or np.all((tf[hi] - tf[a:b, None]) ** 2 > kth))):
                break
            radius *= 2
        # the columns within some row's k-th best hold every neighbor and
        # span the radius this block needed
        near = np.flatnonzero(np.any(d2 <= kth, axis=0))
        first, last = lo + int(near[0]), lo + int(near[-1]) + 1
        radius = max(k, a - first, last - b)
        # the k nearest in index order: the cells below the k-th distance, then
        # those equal to it in index order up to k, as a stable argsort takes
        sub = d2[:, first - lo:last - lo]
        below, tied = sub < kth, sub == kth
        tied &= np.cumsum(tied, axis=1) <= k - below.sum(axis=1, keepdims=True)
        nbr[a:b] = np.nonzero(below | tied)[1].reshape(b - a, k) + first

    # extrapolate each report with the pair's average velocity to each of its
    # neighbors, in slices of reports that bound the temporaries; the first
    # (lowest-index) best fit wins
    targets = np.empty(n, dtype=np.int64)
    for a in range(0, n, _FIT_ROWS):
        i, j = np.arange(a, min(n, a + _FIT_ROWS))[:, None], nbr[a:a + _FIT_ROWS]
        ar, br = np.radians(ds.cog[i]), np.radians(ds.cog[j])
        y = (np.sin(ar) + np.sin(br)) / 2.0
        x = (np.cos(ar) + np.cos(br)) / 2.0
        # the mean course; opposite courses keep the report's own
        avg_cog = np.where((x == 0.0) & (y == 0.0), ds.cog[i],
                           np.degrees(np.arctan2(y, x)) % 360.0)
        est_lat, est_lon = displace(ds.lat[i], ds.lon[i], (ds.sog[i] + ds.sog[j]) / 2.0,
                                    avg_cog, ds.t[j] - ds.t[i])
        d = ground_distance_m(est_lat, est_lon, ds.lat[j], ds.lon[j])
        targets[a:a + _FIT_ROWS] = j[np.arange(len(j)), np.argmin(d, axis=1)]
    return targets


def npc_cluster(targets: np.ndarray) -> ClusterAssignment:
    """Cluster reports by their grouping targets (from npc_grouping_targets),
    labels ordered by earliest member."""
    return ClusterAssignment(cluster_of=components_of(targets),
                             endpoints=frozenset(), abnormal=frozenset())
