"""Clustering-based trajectory reconstruction.

The pipeline runs in four stages: gather the time-window candidates for each
report, pick the best-matching next report (screened as moving or steady
depending on the pair's summed speed), sever the links that look like
track ends, then read the clusters off the surviving link graph.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kinematics
from .model import (
    KNOT_MPS,
    M_PER_DEG_LON_EQ,
    CbtrConfig,
    ClusterAssignment,
    LinkSet,
    PairMode,
    TrackDataset,
)
from .kinematics import DEG_LAT_PER_KNOT_S


@dataclass(frozen=True)
class AbnormalReport:
    """Outcome of the end-of-track screening.

    ``worst_n`` lists the highest normalized-error links, worst first.
    ``rescued_turns`` are the subset kept because they look like genuine
    turns.  ``abnormal`` is everything flagged: the unrescued worst links
    plus every point that never found a next report.
    """

    no_bpnp: frozenset[int]
    worst_n: tuple[int, ...]
    rescued_turns: frozenset[int]
    abnormal: frozenset[int]


class CbtrResult(tuple):
    """(assignment, links, report), with named access."""

    __slots__ = ()

    def __new__(cls, assignment: ClusterAssignment, links: LinkSet, report: AbnormalReport):
        return super().__new__(cls, (assignment, links, report))

    @property
    def assignment(self) -> ClusterAssignment:
        return self[0]

    @property
    def links(self) -> LinkSet:
        return self[1]

    @property
    def report(self) -> AbnormalReport:
        return self[2]


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


# cells scored per numpy pass; a block takes as many consecutive reports as
# fit this budget over the union of their windows
_BLOCK_CELLS = 16384


class _Workspace:
    """Per-report arrays of reports start..stop-1, shared by every block."""

    __slots__ = ("cfg", "tf", "lat", "lon", "sog", "vn", "ve", "alpha")

    def __init__(self, ds: TrackDataset, cfg: CbtrConfig, start: int = 0,
                 stop: int | None = None):
        span = slice(start, stop)
        self.cfg = cfg
        self.tf = ds.t[span].astype(np.float64)
        self.lat = ds.lat[span]
        self.lon = ds.lon[span]
        self.sog = ds.sog[span]
        course = np.radians(ds.cog[span])
        # per-point velocity in degrees per second, matching displace()
        self.vn = self.sog * np.cos(course) * DEG_LAT_PER_KNOT_S
        lon_rate = KNOT_MPS / (M_PER_DEG_LON_EQ * np.cos(np.radians(self.lat)))
        self.ve = self.sog * np.sin(course) * lon_rate
        self.alpha = ds.alpha


def _window_bounds(t: np.ndarray, at, window_s: int):
    """[lo, hi) of the reports 1..window_s seconds after time(s) ``at``."""
    return (np.searchsorted(t, at + 1, side="left"),
            np.searchsorted(t, at + window_s, side="right"))


def candidate_window(ds: TrackDataset, i: int, cfg: CbtrConfig | None = None) -> np.ndarray:
    """Indices of reports between 1 and window_s seconds after point i."""
    cfg = cfg or CbtrConfig()
    if not 0 <= i < len(ds):
        raise IndexError(f"point index {i} out of range")
    lo, hi = _window_bounds(ds.t, ds.t[i], cfg.window_s)
    return np.arange(lo, hi, dtype=np.int64)


class _Scratch:
    """Block buffers that one worker reuses for every block it scores.

    Scoring a block then allocates nothing block-sized, so the pages of its
    temporaries are faulted in once per worker instead of once per block,
    and each worker holds one block's worth of memory.
    """

    def __init__(self, cells: int):
        self._grow(cells)

    def _grow(self, cells: int) -> None:
        self.cells = cells
        self.floats = np.empty((11, cells))
        self.flags = np.empty((3, cells), dtype=bool)

    def views(self, rows: int, cols: int):
        cells = rows * cols
        if cells > self.cells:  # one row wider than the budget
            self._grow(cells)
        return (list(self.floats[:, :cells].reshape(-1, rows, cols)),
                list(self.flags[:, :cells].reshape(-1, rows, cols)))


def _score_block(ws: _Workspace, scratch: _Scratch, s: int, e: int, lo: int, hi: int):
    """Best next report for each of rows s..e-1, searched in columns lo..hi-1.

    Every row is scored against the whole column range at once; cells
    outside a row's own window are masked.  Times are sorted whole seconds,
    so a cell is inside exactly when 1 <= dt <= window_s.  Every cell goes
    through the same operations in the same order whichever block holds it,
    so results do not depend on block size.  Returns the linked rows with
    their target column, error and mode (1 moving, 2 steady).
    """
    cfg = ws.cfg
    alpha = ws.alpha
    lat_i, lon_i = ws.lat[s:e, None], ws.lon[s:e, None]
    lat_j, lon_j = ws.lat[lo:hi], ws.lon[lo:hi]
    # each result goes into a buffer whose previous content is no longer read
    f, (inside, moving, keep) = scratch.views(e - s, hi - lo)

    dt = np.subtract(ws.tf[lo:hi], ws.tf[s:e, None], out=f[0])
    np.greater_equal(dt, 1, out=inside)
    inside &= np.less_equal(dt, cfg.window_s, out=keep)
    speed_sum = np.add(ws.sog[s:e, None], ws.sog[lo:hi], out=f[1])
    np.greater(speed_sum, cfg.moving_speed_sum, out=moving)

    # direction of the pair in scaled space-time
    dlat = np.subtract(lat_j, lat_i, out=f[1])
    dlon = np.subtract(lon_j, lon_i, out=f[2])
    vtau = np.multiply(cfg.angle_time_weight, dt, out=f[3])
    vv = np.multiply(vtau, vtau, out=f[4])
    vlat = np.multiply(alpha, dlat, out=f[5])
    vnorm = np.multiply(vlat, vlat, out=f[6])
    np.add(vv, vnorm, out=vnorm)
    vnorm += np.multiply(dlon, dlon, out=f[7])
    np.sqrt(vnorm, out=vnorm)

    # slow pairs: raw displacement, gated by closeness to the time axis;
    # only the cells screened as steady are evaluated
    np.logical_not(moving, out=keep)
    keep &= inside
    steady = np.flatnonzero(keep)
    if steady.size:
        ts = cfg.time_weight_steady * dt.ravel()[steady]
        sdlat = dlat.ravel()[steady]
        sdlon = dlon.ravel()[steady]
        d0 = ts * ts + (alpha * alpha) * (sdlat * sdlat) + sdlon * sdlon
        cos_steady = vtau.ravel()[steady] / vnorm.ravel()[steady]
        steady_score = np.where(cos_steady >= cfg.cos_steady_min, d0, np.inf)

    # fast pairs: heading agreement of i's dead-reckoned step with the pair
    plat = np.multiply(ws.vn[s:e, None], dt, out=f[1])
    plat += lat_i
    plon = np.multiply(ws.ve[s:e, None], dt, out=f[3])
    plon += lon_i
    ulat = np.subtract(plat, lat_i, out=f[7])
    ulat *= alpha
    ulon = np.subtract(plon, lon_i, out=f[8])
    unorm = np.multiply(ulat, ulat, out=f[9])
    np.add(vv, unorm, out=unorm)
    unorm += np.multiply(ulon, ulon, out=f[10])
    np.sqrt(unorm, out=unorm)
    dot = np.multiply(ulat, vlat, out=f[10])
    np.add(vv, dot, out=dot)
    dot += np.multiply(ulon, dlon, out=f[7])
    unorm *= vnorm
    # masked cells at i's own time and place are 0/0; they never score
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_moving = np.divide(dot, unorm, out=dot)
    np.greater(cos_moving, cfg.cos_moving_min, out=keep)
    keep &= moving
    keep &= inside

    # two-sided dead-reckoning error: i forward to j's time, j back to i's
    tt = np.multiply(cfg.time_weight_moving, dt, out=f[2])
    tt *= tt
    fl = np.subtract(plat, lat_j, out=f[1])
    fl *= alpha
    fo = np.subtract(plon, lon_j, out=f[3])
    forward = np.multiply(fl, fl, out=f[4])
    np.add(tt, forward, out=forward)
    forward += np.multiply(fo, fo, out=f[5])
    bl = np.multiply(ws.vn[lo:hi], dt, out=f[1])
    np.subtract(lat_j, bl, out=bl)
    bl -= lat_i
    bl *= alpha
    bo = np.multiply(ws.ve[lo:hi], dt, out=f[3])
    np.subtract(lon_j, bo, out=bo)
    bo -= lon_i
    backward = np.multiply(bl, bl, out=f[5])
    np.add(tt, backward, out=backward)
    backward += np.multiply(bo, bo, out=f[6])
    score = np.add(forward, backward, out=forward)
    score *= 0.5

    np.logical_not(keep, out=keep)
    np.putmask(score, keep, np.inf)
    if steady.size:
        score.ravel()[steady] = steady_score
    col = np.argmin(score, axis=1)
    best = score[np.arange(e - s), col]
    linked = np.flatnonzero(best < np.inf)
    col = col[linked]
    mode = np.where(moving[linked, col], 1, 2).astype(np.int8)
    return s + linked, lo + col, best[linked], mode


def select_bpnp(ds: TrackDataset, i: int, cfg: CbtrConfig | None = None
                ) -> tuple[int, float, PairMode] | None:
    """Best predicted next point for report i, or None if nothing survives.

    Candidates inside the window are screened per pair: fast pairs by
    two-sided extrapolation error and heading agreement, slow pairs by raw
    displacement and closeness to the time axis.  The survivor with the
    lowest error wins; ties go to the earlier report.
    """
    cfg = cfg or CbtrConfig()
    if not 0 <= i < len(ds):
        raise IndexError(f"point index {i} out of range")
    lo, hi = _window_bounds(ds.t, ds.t[i], cfg.window_s)
    if hi <= lo:
        return None
    # only report i and its window are scored, so only they are prepared
    ws = _Workspace(ds, cfg, i, hi)
    _, cols, errors, modes = _score_block(ws, _Scratch(hi - lo), 0, 1, lo - i, hi - i)
    if not cols.size:
        return None
    mode = PairMode.MOVING if modes[0] == 1 else PairMode.STEADY
    return i + int(cols[0]), float(errors[0]), mode


def _block_stop(lo: np.ndarray, hi: np.ndarray, s: int, stop: int) -> int:
    """End of the block starting at row s: the rows whose union window fits
    _BLOCK_CELLS cells, and at least one row."""
    rows = min(stop - s, max(1, _BLOCK_CELLS // max(int(hi[s] - lo[s]), 1)))
    width = int(hi[s + rows - 1] - lo[s])
    if rows * width > _BLOCK_CELLS:
        # windows only move forward, so fewer rows never widen the union
        rows = max(1, _BLOCK_CELLS // width)
    return s + rows


def _fill_links(ws: _Workspace, lo: np.ndarray, hi: np.ndarray,
                targets: np.ndarray, errors: np.ndarray, modes: np.ndarray,
                start: int, stop: int) -> None:
    scratch = _Scratch(_BLOCK_CELLS)
    s = start
    while s < stop:
        e = _block_stop(lo, hi, s, stop)
        if hi[e - 1] > lo[s]:
            rows, cols, err, mode = _score_block(ws, scratch, s, e,
                                                 int(lo[s]), int(hi[e - 1]))
            targets[rows], errors[rows], modes[rows] = cols, err, mode
        s = e


def build_links(ds: TrackDataset, cfg: CbtrConfig | None = None,
                threads: int = 1) -> LinkSet:
    """Run link selection for every report, a block of reports per pass.

    Worker count only splits the index range; the result is identical for
    any value.
    """
    cfg = cfg or CbtrConfig()
    if len(ds) == 0:
        raise ValueError("empty dataset")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    ws = _Workspace(ds, cfg)
    lo, hi = _window_bounds(ds.t, ds.t, cfg.window_s)
    n = len(ds)
    targets = np.full(n, -1, dtype=np.int64)
    errors = np.full(n, np.nan, dtype=np.float64)
    modes = np.zeros(n, dtype=np.int8)
    if threads == 1 or n < 2 * threads:
        _fill_links(ws, lo, hi, targets, errors, modes, 0, n)
    else:
        bounds = np.linspace(0, n, threads + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_fill_links, ws, lo, hi, targets, errors, modes,
                                   int(bounds[w]), int(bounds[w + 1]))
                       for w in range(threads)]
            for f in futures:
                f.result()
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
    no_bpnp = frozenset(int(i) for i in np.nonzero(targets < 0)[0])
    linked = links.linked_indices()
    if linked.size and cfg.n_abnormal > 0:
        dt = ds.t[targets[linked]].astype(np.float64) - ds.t[linked]
        normalized = links.errors[linked] / (dt * dt)
        order = np.argsort(-normalized, kind="stable")
        worst = tuple(int(x) for x in linked[order[:cfg.n_abnormal]])
    else:
        worst = ()
    rescued = set()
    for z in worst:
        z2 = int(targets[z])
        z3 = int(targets[z2])
        if z3 < 0:
            continue  # no continuation to judge the bend by
        p, p2, p3 = ds.point(z), ds.point(z2), ds.point(z3)
        if kinematics.ground_distance_m(p, p2) >= cfg.turn_rescue_dist_m:
            continue
        bend = kinematics.turning_cos(p, p2, p3, ds.alpha, cfg.angle_time_weight)
        if bend >= cfg.turn_rescue_cos_min:
            rescued.add(z)
    abnormal = frozenset(set(worst) - rescued) | no_bpnp
    return AbnormalReport(no_bpnp=no_bpnp, worst_n=worst,
                          rescued_turns=frozenset(rescued), abnormal=abnormal)


def surviving_targets(links: LinkSet, report: AbnormalReport) -> np.ndarray:
    """Link targets with severed points cleared to -1."""
    targets = links.targets.copy()
    for i in report.abnormal:
        targets[i] = -1
    return targets


def assemble_clusters(ds: TrackDataset, links: LinkSet,
                      report: AbnormalReport) -> ClusterAssignment:
    """Connected components of the surviving links, labeled 0..k-1.

    Component ids follow each component's earliest report, so labeling does
    not depend on traversal order.
    """
    n = len(ds)
    targets = surviving_targets(links, report)
    uf = UnionFind(n)
    for i in range(n):
        j = int(targets[i])
        if j >= 0:
            uf.union(i, j)
    cluster_of = components_by_first_point(uf, n)
    severed = frozenset(i for i in report.abnormal if int(links.targets[i]) >= 0)
    return ClusterAssignment(cluster_of=cluster_of,
                             endpoints=severed | report.no_bpnp,
                             abnormal=severed)


def components_by_first_point(uf: UnionFind, n: int) -> np.ndarray:
    """Component label per element, numbered by smallest member index."""
    cluster_of = np.empty(n, dtype=np.int64)
    next_id = 0
    root_to_id: dict[int, int] = {}
    for i in range(n):
        root = uf.find(i)
        cid = root_to_id.get(root)
        if cid is None:
            cid = next_id
            root_to_id[root] = cid
            next_id += 1
        cluster_of[i] = cid
    return cluster_of


def run_cbtr(ds: TrackDataset, cfg: CbtrConfig | None = None,
             threads: int = 1) -> CbtrResult:
    """Full reconstruction: links, end-of-track screening, clusters."""
    cfg = cfg or CbtrConfig()
    links = build_links(ds, cfg, threads=threads)
    report = detect_abnormal(ds, links, cfg)
    assignment = assemble_clusters(ds, links, report)
    return CbtrResult(assignment, links, report)
