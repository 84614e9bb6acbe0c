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
from .search import SlabIndex, first_minima, gather, run_rounds

# classification looks back at most this many reports per label
RECENT_PER_LABEL = 10

# the neighbor index over all reports: seconds per time slab, bins of
# weighted longitude
_SLAB_S = 1024
_LON_BINS = 256
# the first round's search radius in weighted units (400 s, or about 350 m,
# at the default weights); each later round doubles it
_START_RADIUS = 4e-3
# pending reports searched together, and report-neighbor cells scored per
# numpy pass, at most
_CHUNK_ROWS = 1024
_BLOCK_CELLS = 8192

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


def _time_reach(tf: np.ndarray, rows: np.ndarray, r2: float):
    """[lo, hi) of each row: positions that hold every report whose time
    term to the row is at most r2, and perhaps a few more.

    tf is non-decreasing, so on either side of a row the time term never
    falls as the position moves away from it.  A searchsorted start is
    widened until the report just outside each end is strictly farther,
    judged by the time term itself: no rounding argument is needed.
    """
    n, x = tf.size, tf[rows]
    r = np.sqrt(r2)
    lo = np.searchsorted(tf, x - r)
    hi = np.searchsorted(tf, x + r, side="right")
    for end, step, side in ((lo, -1, "left"), (hi, 0, "right")):
        while True:
            # the report just outside this end
            out = np.flatnonzero(end > 0 if step else end < n)
            j = end[out] + step
            gap = x[out] - tf[j]
            near = gap * gap <= r2
            if not near.any():
                break
            end[out[near]] = np.searchsorted(tf, tf[j[near]], side=side)
    return lo, hi


def _distances(feats: list[np.ndarray], row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Squared feature distance of each cell (row[m], col[m]).  Direct
    differences added to 0.0, time term first: every term is non-negative,
    so no cell rounds below any one of its terms."""
    d2, diff = np.zeros((2, row.size))
    for f in feats:
        np.take(f, row, out=diff)
        diff -= f[col]
        diff *= diff
        d2 += diff
    return d2


def _k_nearest(a: np.ndarray, col: np.ndarray, d2: np.ndarray, k: int):
    """The cells (a, col, d2) of each row's k lowest d2, ties to the lower
    column, or all of a row's cells if it has fewer; the first k of a
    stable argsort of the row.  The cells of a row are adjacent in ``a``,
    and keep their order."""
    left = np.ones(a.size, dtype=bool)
    for _ in range(k):
        rest = np.flatnonzero(left)
        if not rest.size:
            break
        left[rest[first_minima(a[rest], d2[rest], col[rest])]] = False
    taken = np.flatnonzero(~left)
    return a[taken], col[taken], d2[taken]


def _nearest(ds: TrackDataset, cfg: NpcConfig):
    """The k nearest reports of each report in feature space, in index
    order, and (rounds, cells scored) of the search.

    Each round gives every pending report the radius R: _START_RADIUS at
    first, twice as much in each later round.  Its cells are those of the
    index runs of each slab its time reach meets, over weighted longitudes
    within R of its own, less itself and those outside the reach: no term
    of a distance within R**2 exceeds R**2, so every such cell is among
    them.  A report is done once k of its cells lie within R**2: every
    report left out is then strictly farther, so its k nearest, ties to
    the lower index, are among the cells scored.
    """
    k = cfg.k_neighbors
    lat_w = ds.alpha if cfg.lat_weight is None else cfg.lat_weight
    # float64 holds every whole second up to 2**53 exactly
    if ds.t[0] < -2**53 or ds.t[-1] > 2**53:
        raise ValueError("npc needs every time within ±2**53 s")
    tf = cfg.time_weight * ds.t.astype(np.float64)
    # a zero-weight term adds exactly 0.0 to every distance, so it is left out
    feats = [tf] + [w * col for w, col in ((lat_w, ds.lat), (cfg.lon_weight, ds.lon),
                                           (cfg.sog_weight, ds.sog), (cfg.cog_weight, ds.cog))
                    if w != 0]
    if not all(np.isfinite(f).all() for f in feats):
        raise ValueError("a weighted feature overflows; lower the npc weights")
    lon = cfg.lon_weight * ds.lon
    index = SlabIndex(ds.t, lon, _SLAB_S, _LON_BINS)
    nbr = np.empty((len(ds), k), dtype=np.int64)

    def chunk(rows, radius):
        r2 = radius * radius
        lo, hi = _time_reach(tf, rows, r2)
        at, slab = index.slabs(ds.t[lo], ds.t[hi - 1])
        # a longitude term within r2 puts the exact longitude offset below reach
        reach = np.sqrt(r2) * (1 + 2.0**-40)
        x = lon[rows[at]]
        kept, first, stop = index.runs(slab, x - reach, x + reach)
        at = at[kept]

        def keep(run, pos):
            a, col = at[run], index.cols[pos]
            return (col >= lo[a]) & (col < hi[a]) & (col != rows[a])

        # each row's count of cells within r2, up to k, and its nearest ones
        held = np.zeros(rows.size, dtype=np.int64)
        held_col = np.empty((rows.size, k), dtype=np.int64)
        held_d2 = np.empty((rows.size, k))
        scored = 0
        for run, pos in gather(first, stop, _BLOCK_CELLS, keep):
            a, col = at[run], index.cols[pos]
            scored += col.size
            d2 = _distances(feats, rows[a], col)
            hit = np.flatnonzero(d2 <= r2)
            # a row's cells are adjacent in run order, so of the rows in this
            # batch only the first can hold cells from the batch before
            carry = a[0]
            c = held[carry]
            a = np.concatenate((np.full(c, carry), a[hit]))
            col = np.concatenate((held_col[carry, :c], col[hit]))
            d2 = np.concatenate((held_d2[carry, :c], d2[hit]))
            a, col, d2 = _k_nearest(a, col, d2, k)
            slot = np.arange(a.size) - np.searchsorted(a, a)
            held_col[a, slot], held_d2[a, slot] = col, d2
            last = np.flatnonzero(np.diff(a, append=-1))
            held[a[last]] = slot[last] + 1
        done = held == k
        nbr[rows[done]] = held_col[done]
        return rows[~done], scored

    counts = run_rounds(np.arange(len(ds)), _CHUNK_ROWS, _START_RADIUS, 2, chunk)
    nbr.sort(axis=1)
    return nbr, counts


def npc_grouping_targets(ds: TrackDataset, cfg: NpcConfig | None = None) -> np.ndarray:
    """For each report, the neighbor it groups with.

    Among the k feature-space nearest neighbors, pick the one whose actual
    position best matches extrapolating this report with the pair's average
    velocity over their (signed) time difference.

    The neighbors are found by a search in rounds of a growing radius over
    a (time slab, weighted longitude bin) index of the reports; ties go to
    the lower index, and the result is that of a full n x n comparison.
    """
    cfg = cfg or NpcConfig()
    n = len(ds)
    k = cfg.k_neighbors
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} points")
    nbr, _ = _nearest(ds, cfg)
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
                             endpoints=np.empty(0, np.int64), abnormal=np.empty(0, np.int64))
