"""Clustering-based trajectory reconstruction.

The pipeline runs in four stages: gather the time-window candidates for each
report, pick the best-matching next report (screened as moving or steady
depending on the pair's summed speed), sever the links that look like
track ends, then read the clusters off the surviving link graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kinematics import ground_distance_m, turning_cos, velocity
from .model import CbtrConfig, ClusterAssignment, LinkSet, TrackDataset
from .search import SlabIndex, first_minima, gather, run_rounds


@dataclass(frozen=True)
class AbnormalReport:
    """Outcome of the end-of-track screening: read-only int64 arrays of
    report indices, ascending except ``worst_n``.

    ``worst_n`` lists the highest normalized-error links, worst first.
    ``rescued_turns`` are the subset kept because they look like genuine
    turns.  ``abnormal`` is everything flagged: the unrescued worst links
    plus every point that never found a next report.
    """

    no_bpnp: np.ndarray
    worst_n: np.ndarray
    rescued_turns: np.ndarray
    abnormal: np.ndarray

    def __post_init__(self):
        for arr in (self.no_bpnp, self.worst_n, self.rescued_turns, self.abnormal):
            arr.setflags(write=False)


class CbtrResult(NamedTuple):
    """(assignment, links, report), with named access."""

    assignment: ClusterAssignment
    links: LinkSet
    report: AbnormalReport


# pending reports searched together, and report-candidate cells scored per
# numpy pass, at most
_CHUNK_ROWS = 2048
_BLOCK_CELLS = 16384
# the candidate index over all reports: seconds per time slab, longitude bins
_SLAB_S = 128
_LON_BINS = 512
# a row's bound on its error in the first round; each round raises it 4x
_START_BOUND = 2.5e-7


class _Workspace:
    """The per-report arrays that one build_links call reads: the dataset's
    columns, each report's velocity and whether it is slow, and the moving
    time term of every whole dt a window can hold."""

    __slots__ = ("cfg", "t", "lat", "lon", "sog", "vn", "ve", "alpha", "slow", "tt")

    def __init__(self, ds: TrackDataset, cfg: CbtrConfig):
        self.cfg = cfg
        self.t = ds.t
        self.lat, self.lon, self.sog = ds.lat, ds.lon, ds.sog
        self.vn, self.ve = velocity(self.lat, self.sog, ds.cog)
        self.alpha = ds.alpha
        # sog >= 0, so a report faster than moving_speed_sum pairs as moving
        self.slow = self.sog <= cfg.moving_speed_sum
        # the kernel's moving time term of dt = 1, 2, ... up to the widest
        # gap a window can hold, computed with the kernel's own operations
        span = min(cfg.window_s, int(ds.t[-1] - ds.t[0]))
        self.tt = np.square(cfg.time_weight_moving * np.arange(1.0, span + 1))


def _window_bounds(t: np.ndarray, at, window_s: int):
    """[lo, hi) of the reports 1..window_s seconds after time(s) ``at``,
    which are times in ``t``.  The window's end is clipped to the last time,
    so it stays an int64 however late ``at`` is."""
    return (np.searchsorted(t, at, side="right"),
            np.searchsorted(t, at + np.minimum(window_s, t[-1] - at), side="right"))


def candidate_window(ds: TrackDataset, i: int, cfg: CbtrConfig | None = None) -> np.ndarray:
    """Indices of reports between 1 and window_s seconds after point i."""
    cfg = cfg or CbtrConfig()
    if not 0 <= i < len(ds):
        raise IndexError(f"point index {i} out of range")
    lo, hi = _window_bounds(ds.t, ds.t[i], cfg.window_s)
    return np.arange(lo, hi, dtype=np.int64)


def _score_block(ws: _Workspace, rows: np.ndarray, cols: np.ndarray):
    """Best next report of each row among its cells (rows[k], cols[k]).

    Every cell lies inside its row's window, no cell repeats, and the cells
    of a row are adjacent.  Each cell goes through the same operations in
    the same order whichever block holds it, so results do not depend on
    how cells are split into blocks.  Returns the rows with a cell that
    passes its gates, with the best one's column, error and mode (1 moving,
    2 steady); ties go to the lowest column.
    """
    cfg = ws.cfg
    alpha = ws.alpha
    lat_i, lon_i = ws.lat[rows], ws.lon[rows]
    lat_j, lon_j = ws.lat[cols], ws.lon[cols]
    # the time gap is an exact integer before it becomes a float
    dt = (ws.t[cols] - ws.t[rows]).astype(np.float64)
    moving = ws.sog[rows] + ws.sog[cols] > cfg.moving_speed_sum

    # direction of the pair in scaled space-time
    dlat = lat_j - lat_i
    dlon = lon_j - lon_i
    vtau = cfg.angle_time_weight * dt
    vv = vtau * vtau
    vlat = alpha * dlat
    vnorm = np.sqrt(vv + vlat * vlat + dlon * dlon)

    # slow pairs: raw displacement, gated by closeness to the time axis
    ts = cfg.time_weight_steady * dt
    steady = np.where(vtau / vnorm >= cfg.cos_steady_min,
                      ts * ts + dlat * dlat * (alpha * alpha) + dlon * dlon, np.inf)

    # fast pairs: heading agreement of i's dead-reckoned step with the pair
    plat = ws.vn[rows] * dt + lat_i
    plon = ws.ve[rows] * dt + lon_i
    ulat = (plat - lat_i) * alpha
    ulon = plon - lon_i
    dot = vv + ulat * vlat + ulon * dlon
    unorm = np.sqrt(vv + ulat * ulat + ulon * ulon) * vnorm
    moving_ok = dot / unorm > cfg.cos_moving_min
    # a batch's live arrays set build_links' memory peak
    del dlat, dlon, vtau, vv, vlat, vnorm, ts, ulat, ulon, dot, unorm

    # two-sided dead-reckoning error: i forward to j's time, j back to i's
    fl = (plat - lat_j) * alpha
    fo = plon - lon_j
    tt = np.square(cfg.time_weight_moving * dt)
    forward = tt + fl * fl + fo * fo
    bl = (lat_j - ws.vn[cols] * dt - lat_i) * alpha
    bo = lon_j - ws.ve[cols] * dt - lon_i
    backward = tt + bl * bl + bo * bo

    score = np.where(moving, np.where(moving_ok, (forward + backward) * 0.5, np.inf), steady)
    hit = np.flatnonzero(score < np.inf)
    if not hit.size:
        return rows[:0], cols[:0], score[:0], np.zeros(0, dtype=np.int8)
    best = hit[first_minima(rows[hit], score[hit], cols[hit])]
    return rows[best], cols[best], score[best], np.where(moving[best], 1, 2).astype(np.int8)


def _tube(index: SlabIndex, ws: _Workspace, rows: np.ndarray, bound: float):
    """The runs of ``index.cols`` that hold every cell of ``rows`` that may
    score below ``bound``, as (position in rows, first, stop, south, north),
    row by row.  A run's cells whose latitude lies outside [south, north]
    cannot score below the bound either; the runs may hold cells outside a
    row's window as well.

    A moving cell scores at least its time term, fo**2 / 2 and fl**2 / 2, a
    steady one at least dlon**2 and its latitude term.  So a moving cell
    below the bound lies up to ``reach`` seconds on, within ``radius`` of
    the row's dead-reckoned longitude and ``rise`` of its dead-reckoned
    latitude, and a steady one as near the row's own position.
    """
    # dt <= reach exactly where the kernel's time term is below bound
    reach = int(np.searchsorted(ws.tt, bound))
    radius = np.sqrt(2.0 * bound) * (1 + 2.0**-40)
    rise = radius / abs(ws.alpha)
    t = ws.t[rows]
    # every time searched is t + min(dt, room), no later than the last
    # report, so no sum overflows int64; a slow row may pair as steady
    # anywhere in its window
    room = ws.t[-1] - t
    at, slab = index.slabs(t + np.minimum(1, room),
                           t + np.minimum(np.where(ws.slow[rows], ws.cfg.window_s, reach), room))
    # the moving cells of each slab lie within its span of dt, clipped to
    # 1..reach; the kernel's dead reckoning is monotone in dt, so the
    # span's ends bound it
    begin = index.begins(slab) - t[at]
    row = rows[at]
    ta = np.maximum(begin, 1)
    tb = np.minimum(begin + (index.slab_s - 1), reach)
    # past reach a slow row's slab holds only its steady cells
    slow = np.flatnonzero(ws.slow[row])
    moving = ta[slow] <= tb[slow]
    ends = []
    for v, x, r in ((ws.ve, ws.lon, radius), (ws.vn, ws.lat, rise)):
        v, x = v[row], x[row]
        lo = v * ta + x
        hi = v * tb + x
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        x = x[slow]
        lo[slow] = np.where(moving, np.minimum(lo[slow], x), x)
        hi[slow] = np.where(moving, np.maximum(hi[slow], x), x)
        lo -= r
        hi += r
        ends += [lo, hi]
    west, east, south, north = ends
    kept, first, stop = index.runs(slab, west, east)
    return at[kept], first, stop, south[kept], north[kept]


def _link_rows(ws: _Workspace, index: SlabIndex):
    """Link every report over ``index``, an index of all reports: return
    each one's target (-1: none), error (inf: none) and mode (0: none), and
    (how many rounds ran, how many cells were scored).

    Each round gives every pending row the same bound: _START_BOUND at
    first, 4x in each later round.  It scores each row's cells in the
    _tube that holds every cell that may score below it, _CHUNK_ROWS rows
    at a time, less those outside their run's latitudes or their row's
    window.  A row is done once its best is below the bound, since every
    cell that could beat it or tie with it has been scored, or once the
    cells scored have covered its whole window: a dropped cell is not
    counted.  A new best replaces the old one when its error is lower, or
    equal at a lower column, so each row gets the same link as one scan of
    its whole window.
    """
    n = ws.t.size
    targets = np.full(n, -1, dtype=np.int64)
    errors = np.full(n, np.inf)
    modes = np.zeros(n, dtype=np.int8)
    # the reports' latitudes and times in the index's order: a run's are adjacent
    lat, t = ws.lat[index.cols], ws.t[index.cols]
    window_s = ws.cfg.window_s

    def chunk(part, bound):
        at, first, stop, south, north = _tube(index, ws, part, bound)
        t_at = ws.t[part[at]]

        def keep(run, pos):
            y, dt = lat[pos], t[pos]
            dt -= t_at[run]
            return (y >= south[run]) & (y <= north[run]) & (dt > 0) & (dt <= window_s)

        seen = np.zeros(part.size, dtype=np.int64)
        for run, pos in gather(first, stop, _BLOCK_CELLS, keep):
            a = at[run]
            seen += np.bincount(a, minlength=part.size)
            found, col, err, mode = _score_block(ws, part[a], index.cols[pos])
            held = errors[found]
            better = (err < held) | ((err == held) & (col < targets[found]))
            found = found[better]
            targets[found], errors[found], modes[found] = col[better], err[better], mode[better]
        undecided = np.flatnonzero(errors[part] >= bound)
        lo, hi = _window_bounds(ws.t, ws.t[part[undecided]], window_s)
        return part[undecided[seen[undecided] < hi - lo]], int(seen.sum())

    counts = run_rounds(np.arange(n), _CHUNK_ROWS, _START_BOUND, 4, chunk)
    return targets, errors, modes, counts


def build_links(ds: TrackDataset, cfg: CbtrConfig | None = None) -> LinkSet:
    """Run link selection for every report over one index of all reports."""
    cfg = cfg or CbtrConfig()
    if len(ds) == 0:
        raise ValueError("empty dataset")
    targets, errors, modes, _ = _link_rows(_Workspace(ds, cfg),
                                           SlabIndex(ds.t, ds.lon, _SLAB_S, _LON_BINS))
    errors[targets < 0] = np.nan
    return LinkSet(targets=targets, errors=errors, modes=modes)


def detect_abnormal(ds: TrackDataset, links: LinkSet,
                    cfg: CbtrConfig | None = None) -> AbnormalReport:
    """Flag likely track ends.

    Links are ranked by error over the squared time gap; the worst
    n_abnormal are severed unless they look like a turn (next report close
    by and the bend across the following link shallow enough).  Points with
    no link at all are always included.
    """
    cfg = cfg or CbtrConfig()
    targets = links.targets
    no_bpnp = np.flatnonzero(targets < 0)
    linked = np.flatnonzero(targets >= 0)
    dt = (ds.t[targets[linked]] - ds.t[linked]).astype(np.float64)
    normalized = links.errors[linked] / (dt * dt)
    worst = linked[np.argsort(-normalized, kind="stable")[:cfg.n_abnormal]]
    z2 = targets[worst]
    z3 = targets[z2]
    # a turn needs a continuation to judge the bend by
    judged = (z3 >= 0) & (ground_distance_m(ds.lat[worst], ds.lon[worst], ds.lat[z2], ds.lon[z2])
                          < cfg.turn_rescue_dist_m)
    turns = worst[judged]
    bend = turning_cos(ds, turns, z2[judged], z3[judged], cfg.angle_time_weight)
    rescued = np.sort(turns[bend >= cfg.turn_rescue_cos_min])
    abnormal = np.union1d(np.setdiff1d(worst, rescued), no_bpnp)
    return AbnormalReport(no_bpnp=no_bpnp, worst_n=worst, rescued_turns=rescued,
                          abnormal=abnormal)


def surviving_targets(links: LinkSet, report: AbnormalReport) -> np.ndarray:
    """Link targets with severed points cleared to -1."""
    targets = links.targets.copy()
    targets[report.abnormal] = -1
    return targets


def assemble_clusters(links: LinkSet, report: AbnormalReport) -> ClusterAssignment:
    """Connected components of the surviving links, labeled by components_of."""
    # every report without a link is flagged; the other flagged ones are severed
    return ClusterAssignment(cluster_of=components_of(surviving_targets(links, report)),
                             endpoints=report.abnormal,
                             abnormal=np.setdiff1d(report.abnormal, report.no_bpnp))


def components_of(targets: np.ndarray) -> np.ndarray:
    """Component label per report of the links i -> targets[i] (-1: no link).

    Labels run 0..k-1 in the order of each component's earliest report, so
    they do not depend on the order the links are followed in.

    A report without a link points at itself, so every report has exactly
    one successor and each component holds exactly one cycle (a lone sink
    is a cycle of one).  Pointer doubling follows 2**k links at once while
    keeping the smallest index passed.  After ceil(log2 n) doublings every
    report has reached its component's cycle, and the running minimum from
    any point on that cycle has gone all the way round it, so it is the
    smallest index on the cycle: one name per component.  This holds for
    cbtr's forward links and npc's cyclic ones alike.
    """
    n = len(targets)
    index = np.arange(n)
    nxt = np.where(targets >= 0, targets, index)
    low = index.copy()
    for _ in range(max(n - 1, 0).bit_length()):
        np.minimum(low, low[nxt], out=low)
        nxt = nxt[nxt]
    root = low[nxt]
    # label each component where its earliest report sits
    earliest = np.full(n, n)
    np.minimum.at(earliest, root, index)
    first = earliest[root] == index
    return (np.cumsum(first) - 1)[earliest[root]]


def run_cbtr(ds: TrackDataset, cfg: CbtrConfig | None = None) -> CbtrResult:
    """Full reconstruction: links, end-of-track screening, clusters."""
    cfg = cfg or CbtrConfig()
    links = build_links(ds, cfg)
    report = detect_abnormal(ds, links, cfg)
    assignment = assemble_clusters(links, report)
    return CbtrResult(assignment, links, report)
