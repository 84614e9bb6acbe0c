"""What link selection and the npc neighbor search share.

Both build one (time slab, longitude bin) index over all the time-sorted
reports and search it in rounds.  Each round takes every pending row, a
fixed number of rows at a time: per slab of time, it gathers the reports
whose longitude falls in an interval, scores them in blocks of cells, and
keeps each row's lowest score.  Each search decides its slabs and
intervals itself.
"""

from __future__ import annotations

import numpy as np


class SlabIndex:
    """Columns 0..len(t)-1, sorted by (time slab, longitude bin) and
    ascending within each, so that the columns of one slab over a run of
    bins are one contiguous run of ``cols``.

    ``t`` are the columns' times, non-decreasing, cut into slabs of
    ``slab_s`` seconds; ``lon`` their longitudes, cut into ``bins`` equal
    bins over their span.
    """

    def __init__(self, t: np.ndarray, lon: np.ndarray, slab_s: int, bins: int):
        self.slab_s, self.bins = slab_s, bins
        self.t0 = t[0]
        self.count = (t[-1] - self.t0) // slab_s + 1
        self.lon0 = lon.min()
        # a span of 0 puts every column in bin 0
        self.scale = bins / max(lon.max() - self.lon0, 1e-200)
        key = (t - self.t0) // slab_s * bins + self.bin(lon)
        order = np.argsort(key, kind="stable")
        self.key, self.cols = key[order], order

    def bin(self, lon: np.ndarray) -> np.ndarray:
        """Longitude bin of each value: a non-decreasing function of it."""
        return np.clip((lon - self.lon0) * self.scale, 0, self.bins - 1).astype(np.int64)

    def slabs(self, t_from: np.ndarray, t_to: np.ndarray):
        """Every slab that the times t_from[k]..t_to[k] meet, as (k, slab),
        k ascending and slabs ascending within each k; none where
        t_to[k] < t_from[k]."""
        first = np.maximum((t_from - self.t0) // self.slab_s, 0)
        last = np.minimum((t_to - self.t0) // self.slab_s, self.count - 1)
        count = np.where(t_to >= t_from, np.maximum(last - first + 1, 0), 0)
        at = np.repeat(np.arange(count.size), count)
        slab = np.arange(at.size) + np.repeat(first - np.cumsum(count) + count, count)
        return at, slab

    def runs(self, at: np.ndarray, slab: np.ndarray, west: np.ndarray, east: np.ndarray):
        """The runs of ``cols`` in slab[m] whose bins meet [west[m], east[m]],
        as (at[m], first, stop) for each non-empty one.  Each end is moved
        one ulp outward before it is binned, so a run holds every column of
        the slab whose exact longitude lies in the exact interval whose
        rounded ends are west and east."""
        key = slab * self.bins
        first = np.searchsorted(self.key, key + self.bin(np.nextafter(west, -np.inf)))
        stop = np.searchsorted(self.key, key + self.bin(np.nextafter(east, np.inf)),
                               side="right")
        kept = np.flatnonzero(stop > first)
        return at[kept], first[kept], stop[kept]


def blocks(first: np.ndarray, stop: np.ndarray, size: int):
    """Split the runs first[k]:stop[k] into blocks of at most ``size``
    positions; yield each block's run numbers and positions, in order."""
    # laid end to end, run k takes the places starts[k]:ends[k]
    ends = np.cumsum(stop - first)
    starts = ends - (stop - first)
    shift = first - starts
    total = int(ends[-1]) if ends.size else 0
    for p in range(0, total, size):
        q = min(p + size, total)
        k0 = int(np.searchsorted(ends, p, side="right"))
        k1 = int(np.searchsorted(ends, q, side="left")) + 1
        cut = np.minimum(ends[k0:k1], q) - np.maximum(starts[k0:k1], p)
        run = np.repeat(np.arange(k0, k1), cut)
        yield run, np.arange(p, q) + shift[run]


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
