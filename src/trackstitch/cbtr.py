"""Clustering-based trajectory reconstruction.

The pipeline runs in four stages: gather the time-window candidates for each
report, pick the best-matching next report (screened as moving or steady
depending on the pair's summed speed), sever the links that look like
track ends, then read the clusters off the surviving link graph.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .kinematics import ground_distance_m, turning_cos, velocity
from .model import CbtrConfig, ClusterAssignment, LinkSet, TrackDataset


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


class CbtrResult(NamedTuple):
    """(assignment, links, report), with named access."""

    assignment: ClusterAssignment
    links: LinkSet
    report: AbnormalReport


# report-candidate cells screened per numpy pass at most; a pass takes as
# many reports as fit this budget over the columns each has left to score
_BLOCK_CELLS = 32768


class _Workspace:
    """Per-report arrays shared by every pass."""

    __slots__ = ("cfg", "tf", "lat", "lon", "sog", "vn", "ve", "alpha", "slow", "tt")

    def __init__(self, ds: TrackDataset, cfg: CbtrConfig):
        self.cfg = cfg
        self.tf = ds.t.astype(np.float64)
        self.lat, self.lon, self.sog = ds.lat, ds.lon, ds.sog
        self.vn, self.ve = velocity(self.lat, self.sog, ds.cog)
        self.alpha = ds.alpha
        # sog >= 0, so a report faster than moving_speed_sum pairs as moving
        self.slow = self.sog <= cfg.moving_speed_sum
        # the kernel's moving time term of dt = 1, 2, ... up to the widest
        # gap a window can hold, computed with the kernel's own operations
        span = min(cfg.window_s, int(self.tf[-1] - self.tf[0]))
        self.tt = np.multiply(cfg.time_weight_moving, np.arange(1.0, span + 1))
        self.tt *= self.tt


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
    """Cell buffers that one worker reuses for every pass.

    Scoring a pass then allocates nothing pass-sized, so the pages of its
    temporaries are faulted in once per worker instead of once per pass,
    and each worker holds one pass's worth of memory.
    """

    def __init__(self):
        self.floats = np.empty((12, _BLOCK_CELLS))
        self.flags = np.empty((3, _BLOCK_CELLS), dtype=bool)

    def views(self, rows: int, cols: int):
        cells = rows * cols
        return (list(self.floats[:, :cells].reshape(-1, rows, cols)),
                list(self.flags[:, :cells].reshape(-1, rows, cols)))


class _Columns:
    """The candidates one sweep scans, every report or the slow ones.

    ``index`` holds their report indices.  ``report`` and the values the
    screen reads are copies padded with ``pad`` copies of their last value,
    so that every band starting before the last column and at most ``pad``
    columns wide is a window of contiguous memory, whatever the layout of
    the dataset's arrays.
    """

    __slots__ = ("index", "report", "tf", "lat", "lon", "sog")

    def __init__(self, ws: _Workspace, index: np.ndarray, pad: int):
        self.index = index
        for name in self.__slots__[1:]:
            values = index if name == "report" else getattr(ws, name)[index]
            setattr(self, name, np.concatenate((values, np.repeat(values[-1:], pad))))

    @staticmethod
    def band(values: np.ndarray, first: np.ndarray, width: int) -> np.ndarray:
        """values[first + k] for k < width, one row per entry of ``first``."""
        return np.lib.stride_tricks.as_strided(
            values, (values.size - width + 1, width), (values.itemsize,) * 2,
            writeable=False)[first]

    def indices(self, first: np.ndarray, width: int) -> np.ndarray:
        """The report index of each value of band()."""
        return self.band(self.report, first, width)


def _sweep_columns(ws: _Workspace, lo: np.ndarray, hi: np.ndarray) -> tuple[_Columns, _Columns]:
    """The columns of _fill_links' two sweeps: every report, the slow ones.

    A band spans at most one row's window lo:hi and at most _BLOCK_CELLS
    columns, so that many columns of padding suffice.
    """
    pad = min(_BLOCK_CELLS, int(np.max(hi - lo)))
    return (_Columns(ws, np.arange(len(ws.tf)), pad),
            _Columns(ws, np.flatnonzero(ws.slow), pad))


def _reckon(ws: _Workspace, f: list, rows: np.ndarray, tf_j, lat_j, lon_j):
    """The first operations on each cell, shared by the screen and the score.

    For report i of each of ``rows`` and candidate j, with j's values given
    one row per row: the time step dt, i dead-reckoned to j's time (plat,
    plon) and j's scaled offset from there (fl, fo), into f[0:5].
    """
    lat_i, lon_i = ws.lat[rows, None], ws.lon[rows, None]
    dt = np.subtract(tf_j, ws.tf[rows, None], out=f[0])
    plat = np.multiply(ws.vn[rows, None], dt, out=f[1])
    plat += lat_i
    plon = np.multiply(ws.ve[rows, None], dt, out=f[2])
    plon += lon_i
    fl = np.subtract(plat, lat_j, out=f[3])
    fl *= ws.alpha
    fo = np.subtract(plon, lon_j, out=f[4])
    return lat_i, lon_i, dt, plat, plon, fl, fo


def _steady_terms(alpha: float, dlat: np.ndarray, dlon: np.ndarray):
    """The two displacement terms of a steady pair's score."""
    return (alpha * alpha) * (dlat * dlat), dlon * dlon


def _screen(ws: _Workspace, scratch: _Scratch, rows: np.ndarray, cols: _Columns,
            first: np.ndarray, width: int, best: np.ndarray, mixed: bool):
    """The cells of ``rows`` over their columns first:first + width of
    ``cols`` that may beat ``best``, each row's error so far, as flat lists
    of rows and of report indices.

    A cell is dropped when it lies beyond its row's window, or when a lower
    bound of its score is at least best: it cannot beat best, and a later
    pass wins only with a strictly lower error.  A moving score is the mean
    of a forward error (tt + fl**2) + fo**2 and a backward one that is not
    negative; a steady score is (ts**2 + lat2) + lon2 (_steady_terms).
    Float addition of a term that is not negative never rounds a sum down,
    so a score is at least (fl**2 + fo**2) / 2, or lat2 + lon2.  Without
    ``mixed`` every row is faster than moving_speed_sum, so every cell pairs
    as moving.
    """
    cfg = ws.cfg
    f, (keep, steady, _) = scratch.views(len(rows), width)
    lat_j, lon_j = cols.band(cols.lat, first, width), cols.band(cols.lon, first, width)
    _, _, dt, _, _, fl, fo = _reckon(ws, f, rows, cols.band(cols.tf, first, width), lat_j, lon_j)
    floor = np.multiply(fl, fl, out=f[5])
    floor += np.multiply(fo, fo, out=f[6])
    floor *= 0.5
    if mixed:
        speed_sum = np.add(ws.sog[rows, None], cols.band(cols.sog, first, width), out=f[6])
        cells = np.flatnonzero(np.less_equal(speed_sum, cfg.moving_speed_sum, out=steady))
        if cells.size:
            r = cells // width
            lat2, lon2 = _steady_terms(ws.alpha, lat_j.ravel()[cells] - ws.lat[rows[r]],
                                       lon_j.ravel()[cells] - ws.lon[rows[r]])
            floor.ravel()[cells] = lat2 + lon2
    np.less(floor, best[:, None], out=keep)
    # a padding cell may lie beyond its row's window
    keep &= np.less_equal(dt, cfg.window_s, out=steady)
    r, c = np.divmod(np.flatnonzero(keep), width)
    return rows[r], cols.report[first[r] + c]


def _score_block(ws: _Workspace, scratch: _Scratch, rows: np.ndarray, cols: np.ndarray):
    """Best next report for each of ``rows``, searched in its row of ``cols``.

    ``cols`` holds one ascending row of column indices per row; all cells
    are scored at once, and cells outside a row's own window are masked.
    Times are sorted whole seconds, so a cell is inside exactly when
    1 <= dt <= window_s.  Every cell goes through the same operations in the
    same order whichever pass holds it, so results do not depend on how rows
    and columns are split into passes.  Returns the linked rows with their
    target column, error and mode (1 moving, 2 steady); ties go to the
    earliest column.
    """
    cfg = ws.cfg
    alpha = ws.alpha
    # each result goes into a buffer whose previous content is no longer read
    f, (inside, moving, keep) = scratch.views(len(rows), cols.shape[1])
    lat_j, lon_j = ws.lat[cols], ws.lon[cols]
    lat_i, lon_i, dt, plat, plon, fl, fo = _reckon(ws, f, rows, ws.tf[cols], lat_j, lon_j)
    np.greater_equal(dt, 1, out=inside)
    inside &= np.less_equal(dt, cfg.window_s, out=keep)
    speed_sum = np.add(ws.sog[rows, None], ws.sog[cols], out=f[5])
    np.greater(speed_sum, cfg.moving_speed_sum, out=moving)

    # direction of the pair in scaled space-time
    dlat = np.subtract(lat_j, lat_i, out=f[5])
    dlon = np.subtract(lon_j, lon_i, out=f[6])
    vtau = np.multiply(cfg.angle_time_weight, dt, out=f[7])
    vv = np.multiply(vtau, vtau, out=f[8])
    vlat = np.multiply(alpha, dlat, out=f[9])
    vnorm = np.multiply(vlat, vlat, out=f[10])
    np.add(vv, vnorm, out=vnorm)
    vnorm += np.multiply(dlon, dlon, out=f[11])
    np.sqrt(vnorm, out=vnorm)

    # slow pairs: raw displacement, gated by closeness to the time axis;
    # only the cells screened as steady are evaluated
    np.logical_not(moving, out=keep)
    keep &= inside
    steady = np.flatnonzero(keep)
    if steady.size:
        ts = cfg.time_weight_steady * dt.ravel()[steady]
        lat2, lon2 = _steady_terms(alpha, dlat.ravel()[steady], dlon.ravel()[steady])
        d0 = ts * ts + lat2 + lon2
        cos_steady = vtau.ravel()[steady] / vnorm.ravel()[steady]
        steady_score = np.where(cos_steady >= cfg.cos_steady_min, d0, np.inf)

    # fast pairs: heading agreement of i's dead-reckoned step with the pair
    ulat = np.subtract(plat, lat_i, out=f[1])
    ulat *= alpha
    ulon = np.subtract(plon, lon_i, out=f[2])
    dot = np.multiply(ulat, vlat, out=f[11])
    np.add(vv, dot, out=dot)
    dot += np.multiply(ulon, dlon, out=f[5])
    unorm = np.multiply(ulat, ulat, out=f[9])
    np.add(vv, unorm, out=unorm)
    unorm += np.multiply(ulon, ulon, out=f[5])
    np.sqrt(unorm, out=unorm)
    unorm *= vnorm
    # masked cells at i's own time and place are 0/0; they never score
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_moving = np.divide(dot, unorm, out=dot)
    np.greater(cos_moving, cfg.cos_moving_min, out=keep)
    keep &= moving
    keep &= inside

    # two-sided dead-reckoning error: i forward to j's time, j back to i's
    tt = np.multiply(cfg.time_weight_moving, dt, out=f[1])
    tt *= tt
    forward = np.multiply(fl, fl, out=f[2])
    np.add(tt, forward, out=forward)
    forward += np.multiply(fo, fo, out=f[5])
    bl = np.multiply(ws.vn[cols], dt, out=f[3])
    np.subtract(lat_j, bl, out=bl)
    bl -= lat_i
    bl *= alpha
    bo = np.multiply(ws.ve[cols], dt, out=f[4])
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
    best = score[np.arange(len(rows)), col]
    linked = np.flatnonzero(best < np.inf)
    col = col[linked]
    mode = np.where(moving[linked, col], 1, 2).astype(np.int8)
    return rows[linked], cols[linked, col], best[linked], mode


def _first_minima(i: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Position of each row's lowest score, its earliest on a tie; the
    cells of a row are adjacent in ``i``."""
    head = np.empty(i.size, dtype=bool)
    head[:1] = True
    np.not_equal(i[1:], i[:-1], out=head[1:])
    row = np.cumsum(head) - 1
    low = np.flatnonzero(score == np.minimum.reduceat(score, np.flatnonzero(head))[row])
    return low[np.flatnonzero(np.diff(row[low], prepend=-1))]


def _first_skipped(ws: _Workspace, rows: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Per row, the first column from which no moving cell can take the link.

    A moving score is the mean of two terms that each start from the kernel's
    tt = (time_weight_moving * dt)**2 and add only non-negative squares, so
    it is never below tt.  Float rounding is monotone, and tt grows with dt,
    so every moving cell from the first dt with tt >= best on scores at least
    best; lying after the cell that holds best, it loses a tie as well.
    ws.tt holds the kernel's own tt of each dt, so that dt is a lookup; past
    the table's end no column is that far away.
    """
    d = np.searchsorted(ws.tt, best) + 1
    return np.searchsorted(ws.tf, ws.tf[rows] + d)


def _score_bands(score, rows: np.ndarray, first: np.ndarray, last: np.ndarray,
                 kind: np.ndarray) -> None:
    """Score each of ``rows`` over its columns first:last, each at most
    _BLOCK_CELLS wide, rows of one ``kind`` and similar width together: as
    many per pass as fit _BLOCK_CELLS.  A pass pads its rows to its widest
    with the columns that follow; a padding cell lies after every cell its
    row has had scored, so it may be scored early."""
    width = last - first
    order = np.lexsort((width, kind))
    rows, first, width, kind = rows[order], first[order], width[order], kind[order]
    i = 0
    while i < len(rows):
        # the rows that would fit at width[i] bound the widest of a pass
        stop = int(np.searchsorted(kind, kind[i], side="right"))
        widest = width[min(i + _BLOCK_CELLS // int(width[i]), stop) - 1]
        j = min(i + max(1, _BLOCK_CELLS // int(widest)), stop)
        score(rows[i:j], first[i:j], int(width[j - 1]), int(kind[i]))
        i = j


def _fill_links(ws: _Workspace, columns: tuple[_Columns, _Columns],
                lo: np.ndarray, hi: np.ndarray,
                targets: np.ndarray, errors: np.ndarray, modes: np.ndarray,
                start: int, stop: int) -> tuple[int, int]:
    """Link rows start..stop-1 over the _sweep_columns ``columns``; return
    how many cells were screened and how many were scored in full.

    Each row is scored over its window from the start, in rounds of doubling
    width, until it reaches _first_skipped of the best it has found.  Then
    each row that can pair as steady goes on over the columns that can, to
    the end of its window.  Each pass of a row covers the columns after
    those of its earlier passes (cells scored twice never win), and a later
    pass wins only with a strictly lower error, so each row gets the same
    link as one scan of its whole window.

    The cells of a row that has a link already go through _screen first,
    and only those it keeps are scored in full, as a list of one-cell rows.
    A row without a link has all its cells scored in full.
    """
    scratch = _Scratch()
    slow = ws.slow
    screened = scored = 0

    def score(cols, rows, first, width, kind):
        nonlocal screened, scored
        if kind & 2:
            i, j = _screen(ws, scratch, rows, cols, first, width, errors[rows], bool(kind & 1))
            screened += rows.size * width
            if not i.size:
                return
            found, col, err, mode = _score_block(ws, scratch, i, j[:, None])
            better = np.flatnonzero(err < errors[found])
            better = better[_first_minima(found[better], err[better])]
            found, col, err, mode = found[better], col[better], err[better], mode[better]
            scored += i.size
        else:
            found, col, err, mode = _score_block(ws, scratch, rows, cols.indices(first, width))
            scored += rows.size * width
        targets[found], errors[found], modes[found] = col, err, mode

    def sweep(rows, first, last_of, cols, width):
        """Score rows over cols from ``first`` up to last_of(positions of the
        rows still going), in rounds of doubling width; return where each
        row stopped."""
        reach = first.copy()
        going = np.arange(len(rows))
        while going.size:
            last = last_of(going)
            more = last > reach[going]
            going, last = going[more], last[more]
            end = np.minimum(last, reach[going] + width)
            at = rows[going]
            # kind: 1 can pair as steady, 2 has a link
            kind = slow[at] + 2 * (errors[at] < np.inf)
            _score_bands(partial(score, cols), at, reach[going], end, kind)
            reach[going] = end
            width = min(2 * width, _BLOCK_CELLS)
        return reach

    every, steady = columns
    # _BLOCK_CELLS rows at a time, so the per-row bookkeeping stays bounded
    for s in range(start, stop, _BLOCK_CELLS):
        rows = np.arange(s, min(stop, s + _BLOCK_CELLS))
        reach = sweep(rows, lo[rows], lambda at: _first_skipped(ws, rows[at], errors[rows[at]]),
                      every, 1)
        pick = slow[rows]
        last = np.searchsorted(steady.index, hi[rows][pick])
        sweep(rows[pick], np.searchsorted(steady.index, reach[pick]), lambda at: last[at],
              steady, _BLOCK_CELLS)
    return screened, scored


def build_links(ds: TrackDataset, cfg: CbtrConfig | None = None,
                threads: int = 1) -> LinkSet:
    """Run link selection for every report, many reports per numpy pass.

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
    errors = np.full(n, np.inf, dtype=np.float64)
    modes = np.zeros(n, dtype=np.int8)
    # read-only, so every worker shares them
    columns = _sweep_columns(ws, lo, hi)
    if threads == 1 or n < 2 * threads:
        _fill_links(ws, columns, lo, hi, targets, errors, modes, 0, n)
    else:
        bounds = np.linspace(0, n, threads + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_fill_links, ws, columns, lo, hi, targets, errors, modes,
                                   int(bounds[w]), int(bounds[w + 1]))
                       for w in range(threads)]
            for f in futures:
                f.result()
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
    no_bpnp = frozenset(np.nonzero(targets < 0)[0].tolist())
    linked = np.flatnonzero(targets >= 0)
    dt = ds.t[targets[linked]].astype(np.float64) - ds.t[linked]
    normalized = links.errors[linked] / (dt * dt)
    worst = linked[np.argsort(-normalized, kind="stable")[:cfg.n_abnormal]]
    z2 = targets[worst]
    z3 = targets[z2]
    # a turn needs a continuation to judge the bend by
    judged = (z3 >= 0) & (ground_distance_m(ds.lat[worst], ds.lon[worst], ds.lat[z2], ds.lon[z2])
                          < cfg.turn_rescue_dist_m)
    turns = worst[judged]
    bend = turning_cos(ds, turns, z2[judged], z3[judged], cfg.angle_time_weight)
    rescued = frozenset(turns[bend >= cfg.turn_rescue_cos_min].tolist())
    worst = tuple(worst.tolist())
    abnormal = (frozenset(worst) - rescued) | no_bpnp
    return AbnormalReport(no_bpnp=no_bpnp, worst_n=worst, rescued_turns=rescued,
                          abnormal=abnormal)


def surviving_targets(links: LinkSet, report: AbnormalReport) -> np.ndarray:
    """Link targets with severed points cleared to -1."""
    targets = links.targets.copy()
    targets[np.fromiter(report.abnormal, dtype=np.int64)] = -1
    return targets


def assemble_clusters(links: LinkSet, report: AbnormalReport) -> ClusterAssignment:
    """Connected components of the surviving links, labeled by components_of."""
    # every report without a link is flagged; the other flagged ones are severed
    return ClusterAssignment(cluster_of=components_of(surviving_targets(links, report)),
                             endpoints=report.abnormal,
                             abnormal=report.abnormal - report.no_bpnp)


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


def run_cbtr(ds: TrackDataset, cfg: CbtrConfig | None = None,
             threads: int = 1) -> CbtrResult:
    """Full reconstruction: links, end-of-track screening, clusters."""
    cfg = cfg or CbtrConfig()
    links = build_links(ds, cfg, threads=threads)
    report = detect_abnormal(ds, links, cfg)
    assignment = assemble_clusters(links, report)
    return CbtrResult(assignment, links, report)
