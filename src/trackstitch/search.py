"""What link selection and the npc neighbor search share.

Both build one (time slab, longitude bin) index over all the time-sorted
reports and search it in rounds of a growing bound (``run_rounds``).  Per
slab of time, a row's cells are the reports whose longitude falls in an
interval; ``gather`` drops those that the search's own test rejects and
batches the rest for scoring.  Each search decides its slabs, intervals
and test, what it keeps of the scores and when a row is done.
"""

from __future__ import annotations

import numpy as np


# the start table holds at most this many entries per report; a fleet whose
# reports are spread over many slabs gets fewer longitude bins instead
_TABLE_PER_REPORT = 4


class SlabIndex:
    """Columns 0..len(t)-1, sorted by (time slab, longitude bin) and
    ascending within each, so that the columns of one slab over a run of
    bins are one contiguous run of ``cols``.

    ``t`` are the columns' times, non-decreasing, cut into slabs of
    ``slab_s`` seconds; ``lon`` their longitudes, cut into equal bins over
    their span.  Only the slabs that hold a column are indexed, numbered
    0, 1, ... in time order.  ``start[s * bins + b]`` is the position in
    ``cols`` of slab s's first column in bin b or later, so bins b..c of
    slab s are ``cols[start[s * bins + b]:start[s * bins + c + 1]]``.  The
    table has one entry per (indexed slab, bin) and one more.  ``bins`` is
    the count asked for, or fewer where that would make the table longer
    than _TABLE_PER_REPORT entries per column, so its size never depends on
    the time span.
    """

    def __init__(self, t: np.ndarray, lon: np.ndarray, slab_s: int, bins: int):
        self.slab_s, self.t0 = slab_s, t[0]
        key = (t - self.t0) // slab_s
        head = np.empty(key.size, dtype=bool)
        head[0] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        # the time slabs that hold a column, ascending since t is sorted
        self.occupied = key[head]
        self.bins = min(bins, _TABLE_PER_REPORT * key.size // self.occupied.size)
        self.lon0 = lon.min()
        # a span of 0 puts every column in bin 0
        self.scale = self.bins / max(lon.max() - self.lon0, 1e-200)
        # key: (indexed slab, bin) cell of each column
        np.cumsum(head, out=key)
        key -= 1
        key *= self.bins
        key += self.bin(lon)
        self.cols = np.argsort(key, kind="stable")
        # the first position of each non-empty cell
        key = key[self.cols]
        np.not_equal(key[1:], key[:-1], out=head[1:])
        head = np.flatnonzero(head)
        self.start = np.full(self.occupied.size * self.bins + 1, key.size,
                             dtype=np.int32 if key.size < 2**31 else np.int64)
        self.start[key[head]] = head
        # an empty cell starts where the next non-empty one does
        np.minimum.accumulate(self.start[::-1], out=self.start[::-1])

    def bin(self, lon: np.ndarray) -> np.ndarray:
        """Longitude bin of each value: a non-decreasing function of it."""
        return np.clip((lon - self.lon0) * self.scale, 0, self.bins - 1).astype(np.int64)

    def slabs(self, t_from: np.ndarray, t_to: np.ndarray):
        """Every indexed slab that the times t_from[k]..t_to[k] meet, as
        (k, slab), k ascending and slabs ascending within each k; none where
        t_to[k] < t_from[k]."""
        first = np.searchsorted(self.occupied, (t_from - self.t0) // self.slab_s)
        stop = np.searchsorted(self.occupied, (t_to - self.t0) // self.slab_s, side="right")
        count = np.where(t_to >= t_from, stop - first, 0)
        at = np.repeat(np.arange(count.size), count)
        slab = np.arange(at.size) + np.repeat(first - np.cumsum(count) + count, count)
        return at, slab

    def begins(self, slab: np.ndarray) -> np.ndarray:
        """The first second of each indexed slab."""
        return self.occupied[slab] * self.slab_s + self.t0

    def runs(self, slab: np.ndarray, west: np.ndarray, east: np.ndarray):
        """The runs of ``cols`` in slab[m] whose bins meet [west[m], east[m]],
        as (m, first, stop) for each non-empty one.

        Where west and east are the rounded ends of an exact interval
        [W, E], a run holds every column of the slab whose longitude lies
        in [W, E].  Rounding is monotone, so a double in [W, E] lies in
        [fl(W), fl(E)] as well, and bin() is non-decreasing, so its bin
        lies between the ends' bins: no end needs widening."""
        cell = slab * self.bins
        first = self.start[cell + self.bin(west)]
        cell += self.bin(east)
        cell += 1
        stop = self.start[cell]
        kept = np.flatnonzero(stop > first)
        return kept, first[kept], stop[kept]


def run_rounds(rows: np.ndarray, chunk_rows: int, bound: float, grow: float, chunk):
    """Search ``rows`` in rounds until none is pending: each round hands
    every pending row to ``chunk(part, bound)``, ``chunk_rows`` rows at a
    time, then multiplies the bound by ``grow``.  ``chunk`` returns the
    rows of ``part`` still pending and how many cells it scored.  Returns
    (rounds, cells scored)."""
    count = scored = 0
    while rows.size:
        parts = [chunk(rows[c:c + chunk_rows], bound) for c in range(0, rows.size, chunk_rows)]
        rows = np.concatenate([left for left, _ in parts])
        scored += sum(cells for _, cells in parts)
        count += 1
        bound *= grow
    return count, scored


def gather(first: np.ndarray, stop: np.ndarray, size: int, keep):
    """The cells of the runs first[k]:stop[k] that ``keep(run, pos)``
    passes, as (run numbers, positions), in run order, in batches of at
    most ``size`` cells; each batch is overwritten by the next.

    ``keep`` gets the runs' cells a block of ``size`` at a time and returns
    a mask over them.  A batch is yielded once the next block's kept cells
    would not fit in it, and the last at the end; no batch is empty."""
    # laid end to end, run k takes the places starts[k]:ends[k]
    ends = np.cumsum(stop - first)
    starts = ends - (stop - first)
    shift = first - starts
    total = int(ends[-1]) if ends.size else 0
    runs, places = np.empty((2, size), dtype=np.int64)
    held = 0
    for p in range(0, total, size):
        q = min(p + size, total)
        k0 = int(np.searchsorted(ends, p, side="right"))
        k1 = int(np.searchsorted(ends, q, side="left")) + 1
        cut = np.minimum(ends[k0:k1], q) - np.maximum(starts[k0:k1], p)
        run = np.repeat(np.arange(k0, k1), cut)
        pos = np.arange(p, q) + shift[run]
        kept = np.flatnonzero(keep(run, pos))
        run, pos = run[kept], pos[kept]
        if held + run.size > size:
            yield runs[:held], places[:held]
            held = 0
        runs[held:held + run.size] = run
        places[held:held + run.size] = pos
        held += run.size
    if held:
        yield runs[:held], places[:held]


def first_minima(i: np.ndarray, score: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Position of each row's lowest score, at its lowest column on a tie;
    the cells of a row are adjacent in ``i``, and no column repeats within
    a row."""
    head = np.empty(i.size, dtype=bool)
    head[:1] = True
    np.not_equal(i[1:], i[:-1], out=head[1:])
    row = np.cumsum(head) - 1
    low = np.flatnonzero(score == np.minimum.reduceat(score, np.flatnonzero(head))[row])
    first = np.minimum.reduceat(col[low], np.flatnonzero(np.diff(row[low], prepend=-1)))
    return low[col[low] == first[row[low]]]
