"""Shared domain types.

Conventions used throughout the package:

* ``t`` is whole seconds from the dataset epoch (the earliest report is 0).
* ``lat``/``lon`` are decimal degrees, WGS84-style.
* ``sog`` is speed over ground in knots.
* ``cog`` is course over ground in degrees clockwise from true north,
  in [0, 360).
* ``alpha`` rescales latitude differences so that, near the fleet's mean
  latitude, one scaled latitude degree covers about the same ground as one
  longitude degree.  All screening math works in these scaled degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

KNOT_MPS = 0.514444
M_PER_DEG_LAT = 111120.0
M_PER_DEG_LON_EQ = 111320.0


# the range checks of a report's values, in the order they run: the value
# read, whether it passes (for a float or an array of them) and the message
# of a failure.  NaN fails every check.
_VALUE_CHECKS = (
    ("lat", lambda v: (v >= -90.0) & (v <= 90.0), "lat out of range: {}"),
    ("lon", lambda v: (v >= -180.0) & (v <= 180.0), "lon out of range: {}"),
    ("sog", lambda v: v >= 0.0, "sog must be >= 0, got {}"),
    ("sog", lambda v: v != math.inf, "sog must be finite, got {}"),
    ("cog", lambda v: (v >= 0.0) & (v < 360.0), "cog must be in [0, 360), got {}"),
)


@dataclass(frozen=True, slots=True)
class AisPoint:
    """One timestamped position report.

    ``vid`` is an optional ground-truth vessel identifier.  It is carried for
    evaluation only; the reconstruction algorithms never read it.
    """

    t: int
    lat: float
    lon: float
    sog: float
    cog: float
    vid: str | None = None

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        for name, passes, message in _VALUE_CHECKS:
            value = getattr(self, name)
            if not passes(value):
                raise ValueError(message.format(float(value)))


def latitude_scale(lats: Sequence[float]) -> float:
    """Scale factor for latitude differences at the fleet's mean latitude.

    Uses an exact sum so the result does not depend on point order.  A
    float array, or a memoryview of one, is summed as it is iterated, with
    no list of its values.
    """
    if len(lats) == 0:
        raise ValueError("cannot compute latitude scale of an empty dataset")
    mean_lat = math.fsum(lats) / len(lats)
    cos_lat = math.cos(math.radians(mean_lat))
    # cos of a float 90.0 is ~6e-17, not 0, so guard with a real threshold
    if cos_lat <= 1e-9:
        raise ValueError(f"mean latitude {mean_lat} too close to a pole")
    return 69.0 / (69.172 * cos_lat)


def label_codes(labels: Sequence) -> tuple[list, np.ndarray]:
    """The distinct labels in order of first appearance, and each entry's
    position among them."""
    distinct = list(dict.fromkeys(labels))
    position = {label: k for k, label in enumerate(distinct)}
    return distinct, np.fromiter(map(position.__getitem__, labels), dtype=np.int64,
                                 count=len(labels))


def first_bad_report(lat: np.ndarray, lon: np.ndarray, sog: np.ndarray,
                     cog: np.ndarray) -> tuple[int, str] | None:
    """Index and message of the first report holding a value out of range.

    Reports are taken in array order; within one, the checks run in the
    order of _VALUE_CHECKS.  Link selection relies on a finite, non-negative
    sog and finite positions and courses.
    """
    columns = {"lat": lat, "lon": lon, "sog": sog, "cog": cog}
    failed = [~passes(columns[name]) for name, passes, _ in _VALUE_CHECKS]
    bad = np.logical_or.reduce(failed)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    name, _, message = next(check for check, mask in zip(_VALUE_CHECKS, failed) if mask[i])
    return i, message.format(float(columns[name][i]))


def label_groups(labels: np.ndarray, n_groups: int = 0) -> tuple[np.ndarray, list[int]]:
    """Indices sorted by label, ties in index order, and where each label's
    run starts in them: max(n_groups, labels.max() + 1) + 1 bounds."""
    return (np.argsort(labels, kind="stable"),
            [0, *np.cumsum(np.bincount(labels, minlength=n_groups)).tolist()])


def _check_lengths(t, **columns) -> None:
    """ValueError unless each column given holds one entry per report time."""
    for name, values in columns.items():
        if values is not None and len(values) != len(t):
            raise ValueError(f"{len(values)} {name} values for {len(t)} report times")


@dataclass(frozen=True)
class TrackDataset:
    """A time-sorted point set stored as parallel column arrays.

    Immutable after construction; the arrays are marked read-only.  Build
    one with ``from_columns``, which sorts the reports; the constructor
    rejects times out of order.  ``epoch`` is the unix time of t=0 in
    integer seconds, written as a string.
    """

    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    sog: np.ndarray
    cog: np.ndarray
    vids: tuple[str, ...] | None
    alpha: float
    epoch: str = ""

    def __post_init__(self):
        _check_lengths(self.t, lat=self.lat, lon=self.lon, sog=self.sog, cog=self.cog,
                       vids=self.vids)
        late = np.flatnonzero(self.t[1:] < self.t[:-1])
        if late.size:
            i = int(late[0]) + 1
            raise ValueError(f"report {i}: t={self.t[i]} is before the previous "
                             f"report's t={self.t[i - 1]}; times must be sorted")
        # link selection and npc take differences of any two times
        if self.t.size and int(self.t[-1]) - int(self.t[0]) >= 2**63:
            raise ValueError(f"times span {int(self.t[-1]) - int(self.t[0])} s; "
                             "the difference of any two must fit an int64")
        bad = first_bad_report(self.lat, self.lon, self.sog, self.cog)
        if bad is not None:
            raise ValueError(f"report {bad[0]}: {bad[1]}")
        for arr in (self.t, self.lat, self.lon, self.sog, self.cog):
            arr.setflags(write=False)

    @classmethod
    def from_columns(cls, t, lat, lon, sog, cog, vids=None, epoch: str = "") -> "TrackDataset":
        """The reports sorted stably by time, ties in input order, with alpha
        from their latitudes.  ``vids`` holds one id per report, or is None."""
        t = np.asarray(t, dtype=np.int64)
        _check_lengths(t, lat=lat, lon=lon, sog=sog, cog=cog, vids=vids)
        order = np.argsort(t, kind="stable")
        lat, lon, sog, cog = (np.asarray(values, dtype=np.float64)[order]
                              for values in (lat, lon, sog, cog))
        if vids is not None:
            vids = tuple(np.asarray(vids, dtype=object)[order].tolist())
        # a memoryview yields plain floats, which fsum reads faster than
        # numpy scalars or a list of the values
        return cls(t=t[order], lat=lat, lon=lon, sog=sog, cog=cog, vids=vids,
                   alpha=latitude_scale(memoryview(lat)), epoch=epoch)

    @classmethod
    def from_points(cls, points: Sequence[AisPoint], epoch: str = "") -> "TrackDataset":
        vids = [p.vid for p in points]
        if None in vids:
            if vids.count(None) != len(vids):
                raise ValueError("either every point carries a vid or none does")
            vids = None
        return cls.from_columns([p.t for p in points], [p.lat for p in points],
                                [p.lon for p in points], [p.sog for p in points],
                                [p.cog for p in points], vids=vids, epoch=epoch)

    def __len__(self) -> int:
        return int(self.t.shape[0])

    def point(self, i: int) -> AisPoint:
        vid = self.vids[i] if self.vids is not None else None
        return AisPoint(int(self.t[i]), float(self.lat[i]), float(self.lon[i]),
                        float(self.sog[i]), float(self.cog[i]), vid)

    def has_vids(self) -> bool:
        return self.vids is not None


@dataclass(frozen=True)
class CbtrConfig:
    """Tuning knobs for the link-and-cluster reconstruction.

    The defaults are the values the pipeline was validated with; every field
    can be overridden per run.
    """

    window_s: int = 1000
    moving_speed_sum: float = 3.0     # knots; pairs summing above this are screened as moving
    time_weight_moving: float = 2e-6  # per-second weight of the time gap in the moving error
    time_weight_steady: float = 2e-9
    angle_time_weight: float = 1e-5   # per-second weight when building direction vectors
    cos_moving_min: float = 0.1       # moving candidates at or below this cosine are dropped
    cos_steady_min: float = 0.95      # steady candidates below this cosine are dropped
    n_abnormal: int = 50              # how many worst links get the end-of-track treatment
    turn_rescue_dist_m: float = 350.0
    turn_rescue_cos_min: float = 0.6

    def __post_init__(self):
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.moving_speed_sum < 0:
            raise ValueError("moving_speed_sum must be >= 0")
        for name in ("time_weight_moving", "time_weight_steady", "angle_time_weight"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("cos_moving_min", "cos_steady_min", "turn_rescue_cos_min"):
            value = getattr(self, name)
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a cosine in [-1, 1]")
        if self.n_abnormal < 0:
            raise ValueError("n_abnormal must be >= 0")
        if self.turn_rescue_dist_m < 0:
            raise ValueError("turn_rescue_dist_m must be >= 0")


@dataclass(frozen=True)
class LinkSet:
    """Per-point choice of next report, from the same screening pass.

    ``targets[i]`` is the index of the chosen next point, or -1 when no
    candidate survived.  ``errors`` holds the score of the chosen link (NaN
    when absent) and ``modes`` whether it was screened as moving (1) or
    steady (2); 0 means no link.
    """

    targets: np.ndarray
    errors: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        for arr in (self.targets, self.errors, self.modes):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.targets.shape[0])


@dataclass(frozen=True)
class ClusterAssignment:
    """Cluster label per point plus the points flagged as chain ends.

    ``abnormal`` holds the points whose outgoing link was severed;
    ``endpoints`` additionally includes points that never had a link.  Both
    are ascending int64 arrays of report indices; all three are read-only.
    """

    cluster_of: np.ndarray
    endpoints: np.ndarray
    abnormal: np.ndarray

    def __post_init__(self):
        for arr in (self.cluster_of, self.endpoints, self.abnormal):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.cluster_of.shape[0])

    @property
    def n_clusters(self) -> int:
        return int(self.cluster_of.max()) + 1 if len(self) else 0
