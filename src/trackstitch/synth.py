"""Deterministic fleet simulator emitting labeled AIS-style point sets.

Vessels follow piecewise constant-velocity legs; sampled sog/cog are the
true leg values, and positions are realized with the predictor's own dead
reckoning (kinematics.displace), so the reports are self-consistent before
noise.  Reporting cadence depends on behavior: maneuvering vessels report
often, steady ones slowly, cruising ones mostly at the long end of the
configured range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .kinematics import DEG_LAT_PER_KNOT_S, displace
from .model import (
    KNOT_MPS,
    M_PER_DEG_LAT,
    M_PER_DEG_LON_EQ,
    TrackDataset,
    label_codes,
    label_groups,
)

ARCHETYPES = ("transit", "turning", "steady-docked", "steady-drifting")

EVERY_5TH = "every-5th"
EVERY_2ND = "every-2nd"
PATTERNS = (EVERY_5TH, EVERY_2ND)

# steady vessels are spawned at least this far apart
ANCHOR_SEPARATION_M = 700.0

S1_SEED = 7


@dataclass(frozen=True)
class SynthConfig:
    """Fleet recipe; same config and seed always yield the same dataset."""

    n_vessels: int
    duration_s: int = 14400
    bbox: tuple[float, float, float, float] = (36.906, 37.050, -76.330, -75.980)
    archetypes: tuple[str, ...] | None = None
    sample_interval_s: tuple[int, int] = (2, 180)
    noise_sigma_m: float = 0.0
    drift_radius_m: float = 11.0
    gaps_per_vessel: int = 0
    gap_duration_s: tuple[int, int] = (1200, 2400)
    seed: int = 0

    def __post_init__(self):
        if self.n_vessels < 1:
            raise ValueError("n_vessels must be >= 1")
        lat_min, lat_max, lon_min, lon_max = self.bbox
        if not (lat_min < lat_max and lon_min < lon_max):
            raise ValueError(f"degenerate bbox {self.bbox}")
        lo, hi = self.sample_interval_s
        if not 1 <= lo <= hi:
            raise ValueError(f"bad sampling interval range {self.sample_interval_s}")
        if self.duration_s < hi + 16:
            raise ValueError("duration_s too short for the sampling interval range")
        if self.archetypes is not None:
            if len(self.archetypes) != self.n_vessels:
                raise ValueError("archetypes must list one entry per vessel")
            for a in self.archetypes:
                if a not in ARCHETYPES:
                    raise ValueError(f"unknown archetype {a!r}")
        if self.noise_sigma_m < 0:
            raise ValueError("noise_sigma_m must be >= 0")
        if self.drift_radius_m <= 0:
            raise ValueError("drift_radius_m must be positive")
        if self.gaps_per_vessel < 0:
            raise ValueError("gaps_per_vessel must be >= 0")
        glo, ghi = self.gap_duration_s
        if not 1 <= glo <= ghi:
            raise ValueError(f"bad gap duration range {self.gap_duration_s}")


class _Leg(NamedTuple):
    t0: int
    lat: float
    lon: float
    sog: float
    cog: float


def _velocity_between(lat1: float, lon1: float, lat2: float, lon2: float,
                      dur: float) -> tuple[float, float]:
    """Speed and course that carry (lat1, lon1) onto (lat2, lon2) in dur seconds."""
    north = (lat2 - lat1) / (DEG_LAT_PER_KNOT_S * dur)
    lon_rate = KNOT_MPS / (M_PER_DEG_LON_EQ * math.cos(math.radians(lat1)))
    east = (lon2 - lon1) / (lon_rate * dur)
    sog = math.hypot(east, north)
    cog = math.degrees(math.atan2(east, north)) % 360.0 if sog > 0 else 0.0
    return sog, cog


def _inner_box(bbox: tuple[float, float, float, float], frac: float
               ) -> tuple[float, float, float, float]:
    lat_min, lat_max, lon_min, lon_max = bbox
    lat_pad = (lat_max - lat_min) * frac
    lon_pad = (lon_max - lon_min) * frac
    return lat_min + lat_pad, lat_max - lat_pad, lon_min + lon_pad, lon_max - lon_pad


def _moving_legs(rng: np.random.Generator, cfg: SynthConfig, sharp: bool) -> list[_Leg]:
    """Piecewise constant-velocity path that circulates inside the region.

    Vessels work around a loop sized to fit well inside the bbox, steering
    back onto it with a small tangent correction at every waypoint, so no
    path ever has to slam into a wall and reverse.  The sharp variant takes
    big zigzag turns around its loop; the cruising variant curves gently.
    """
    lat_min, lat_max, lon_min, lon_max = cfg.bbox
    if sharp:
        radius_m = rng.uniform(700.0, 2000.0)
        sog = rng.uniform(4.0, 7.0)
        sog_lo, sog_hi = 3.8, 7.2
    else:
        sog = rng.uniform(4.0, 8.6)
        sog_lo, sog_hi = sog - 0.5, sog + 0.5
        # radius follows speed so the centripetal pull stays mild and a
        # straight-line predictor tracks the arc closely between reports
        accel = rng.uniform(3.0e-3, 8.0e-3)
        radius_m = min(max((sog * KNOT_MPS) ** 2 / accel, 900.0), 3200.0)
    # shrink the loop if the bbox cannot hold it with clearance to spare
    mid_cos = math.cos(math.radians((lat_min + lat_max) / 2.0))
    span_m = min((lat_max - lat_min) * M_PER_DEG_LAT,
                 (lon_max - lon_min) * M_PER_DEG_LON_EQ * mid_cos)
    radius_m = min(radius_m, max(span_m / 2.0 - 1000.0, 0.2 * span_m))
    margin_m = radius_m + 900.0
    clat_lo = lat_min + margin_m / M_PER_DEG_LAT
    clat_hi = lat_max - margin_m / M_PER_DEG_LAT
    if clat_lo > clat_hi:
        clat_lo = clat_hi = (lat_min + lat_max) / 2.0
    center_lat = rng.uniform(clat_lo, clat_hi)
    lon_m = M_PER_DEG_LON_EQ * math.cos(math.radians(center_lat))
    clon_lo = lon_min + margin_m / lon_m
    clon_hi = lon_max - margin_m / lon_m
    if clon_lo > clon_hi:
        clon_lo = clon_hi = (lon_min + lon_max) / 2.0
    center_lon = rng.uniform(clon_lo, clon_hi)
    sign = 1.0 if rng.random() < 0.5 else -1.0

    theta = rng.uniform(0.0, 2.0 * math.pi)
    lat = center_lat + radius_m * math.cos(theta) / M_PER_DEG_LAT
    lon = center_lon + radius_m * math.sin(theta) / lon_m
    # tangent heading for the chosen direction of travel
    cog = (math.degrees(theta) + sign * 90.0) % 360.0

    legs = [_Leg(0, lat, lon, sog, cog)]
    t = 0
    while t < cfg.duration_s:
        speed_mps = legs[-1].sog * KNOT_MPS
        if sharp:
            turn = rng.uniform(35.0, 50.0)
            dur = int(radius_m * math.radians(turn) / speed_mps)
            dur = max(90, min(900, dur))
            jitter = 2.5
        else:
            dur = int(rng.integers(40, 81))
            jitter = 1.5
        t += dur
        prev = legs[-1]
        lat, lon = displace(prev.lat, prev.lon, prev.sog, prev.cog, t - prev.t0)
        # re-anchor the heading to the loop: tangent at the current bearing
        # from the center, nudged inward or outward to hold the radius
        north_m = (lat - center_lat) * M_PER_DEG_LAT
        east_m = (lon - center_lon) * lon_m
        r = math.hypot(north_m, east_m)
        phi = math.degrees(math.atan2(east_m, north_m))
        correction = min(max(140.0 * (r - radius_m) / radius_m, -14.0), 14.0)
        cog = (phi + sign * (90.0 + correction) + rng.normal(0.0, jitter)) % 360.0
        sog = min(max(prev.sog + rng.normal(0.0, 0.25), sog_lo), sog_hi)
        legs.append(_Leg(t, lat, lon, sog, cog))
    return legs


def _drift_legs(rng: np.random.Generator, cfg: SynthConfig,
                anchor: tuple[float, float]) -> list[_Leg]:
    alat, alon = anchor

    def in_disk() -> tuple[float, float]:
        r = cfg.drift_radius_m * 0.95 * math.sqrt(rng.random())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        dlat = r * math.cos(theta) / M_PER_DEG_LAT
        dlon = r * math.sin(theta) / (M_PER_DEG_LON_EQ * math.cos(math.radians(alat)))
        return alat + dlat, alon + dlon

    lat, lon = in_disk()
    legs = []
    t = 0
    while t < cfg.duration_s:
        dur = int(rng.integers(180, 421))
        target = in_disk()
        sog, cog = _velocity_between(lat, lon, target[0], target[1], dur)
        legs.append(_Leg(t, lat, lon, sog, cog))
        lat, lon = displace(lat, lon, sog, cog, dur)
        t += dur
    return legs


def _place_anchors(rng: np.random.Generator, cfg: SynthConfig,
                   count: int) -> list[tuple[float, float]]:
    lat_min, lat_max, lon_min, lon_max = _inner_box(cfg.bbox, 0.15)
    anchors: list[tuple[float, float]] = []
    for _ in range(count):
        for _attempt in range(2000):
            lat = rng.uniform(lat_min, lat_max)
            lon = rng.uniform(lon_min, lon_max)
            dy = [(lat - a) * M_PER_DEG_LAT for a, _ in anchors]
            dx = [(lon - o) * M_PER_DEG_LON_EQ * math.cos(math.radians(lat))
                  for _, o in anchors]
            if all(math.hypot(x, y) >= ANCHOR_SEPARATION_M for x, y in zip(dx, dy)):
                anchors.append((lat, lon))
                break
        else:
            raise ValueError("bbox too small to separate the steady vessels")
    return anchors


def _draw_interval(rng: np.random.Generator, archetype: str,
                   bounds: tuple[int, int]) -> int:
    lo, hi = bounds
    if archetype == "transit":
        a, b = max(lo, 30), min(hi, 65)
    elif archetype == "turning":
        a, b = max(lo, 20), min(hi, 85)
    else:
        a, b = max(lo, 60), hi
    if a > b:
        a, b = lo, hi
    value = int(rng.integers(a, b + 1))
    return max(lo, min(hi, value))


def _default_mix(n: int) -> tuple[str, ...]:
    cycle = ("transit", "transit", "turning", "transit", "steady-drifting",
             "transit", "steady-docked")
    return tuple(cycle[i % len(cycle)] for i in range(n))


def generate_fleet(cfg: SynthConfig) -> TrackDataset:
    """Simulate the fleet and sample it into a labeled dataset."""
    rng = np.random.default_rng(cfg.seed)
    archetypes = cfg.archetypes or _default_mix(cfg.n_vessels)
    n_steady = sum(a.startswith("steady") for a in archetypes)
    anchors = iter(_place_anchors(rng, cfg, n_steady))

    columns = []
    for archetype in archetypes:
        if archetype == "transit":
            legs = _moving_legs(rng, cfg, sharp=False)
        elif archetype == "turning":
            legs = _moving_legs(rng, cfg, sharp=True)
        elif archetype == "steady-docked":
            alat, alon = next(anchors)
            legs = [_Leg(0, alat, alon, 0.0, float(rng.uniform(0.0, 360.0)))]
        else:
            legs = _drift_legs(rng, cfg, next(anchors))

        times = []
        t = int(rng.integers(0, 16))
        while t <= cfg.duration_s:
            times.append(t)
            t += _draw_interval(rng, archetype, cfg.sample_interval_s)

        if cfg.gaps_per_vessel:
            glo, ghi = cfg.gap_duration_s
            windows = []
            for _ in range(cfg.gaps_per_vessel):
                start = int(rng.integers(int(cfg.duration_s * 0.15),
                                         int(cfg.duration_s * 0.85)))
                windows.append((start, start + int(rng.integers(glo, ghi + 1))))
            times = [s for s in times
                     if not any(a <= s < b for a, b in windows)]

        # each sample on the leg it falls in, realized in one pass
        t0, lat0, lon0, sog, cog = map(np.array, zip(*legs))
        t = np.array(times, dtype=np.int64)
        leg = np.searchsorted(t0, t, side="right") - 1
        lat, lon = displace(lat0[leg], lon0[leg], sog[leg], cog[leg], t - t0[leg])
        if cfg.noise_sigma_m > 0.0:
            # a lat and a lon draw per sample, in sample order
            noise = rng.normal(0.0, cfg.noise_sigma_m, size=(len(t), 2))
            lat = lat + noise[:, 0] / M_PER_DEG_LAT
            lon = lon + noise[:, 1] / (M_PER_DEG_LON_EQ * np.cos(np.radians(lat)))
        columns.append((t, lat, lon, sog[leg], cog[leg]))

    names = np.array([f"V{v:02d}" for v in range(len(columns))], dtype=object)
    vessel = np.repeat(np.arange(len(columns)), [len(col[0]) for col in columns])
    return TrackDataset.from_columns(*map(np.concatenate, zip(*columns)),
                                     vids=names[vessel], epoch="0")


def _vessel_codes(ds: TrackDataset) -> np.ndarray:
    """Each report's vessel in order of first appearance; one vessel without vids."""
    return label_codes(ds.vids)[1] if ds.has_vids() else np.zeros(len(ds), dtype=np.int64)


def _vessel_rank(codes: np.ndarray) -> np.ndarray:
    """Each report's rank within its vessel: its place in the stable sort by
    vessel, less the place of the vessel's first report there."""
    order, bounds = label_groups(codes)
    rank = np.empty(len(codes), dtype=np.int64)
    rank[order] = np.arange(len(codes)) - np.array(bounds)[codes[order]]
    return rank


def _subset(ds: TrackDataset, rows: np.ndarray) -> TrackDataset:
    vids = np.array(ds.vids, dtype=object)[rows] if ds.has_vids() else None
    return TrackDataset.from_columns(ds.t[rows], ds.lat[rows], ds.lon[rows], ds.sog[rows],
                                     ds.cog[rows], vids=vids, epoch=ds.epoch)


def downsample(ds: TrackDataset, pattern: str) -> TrackDataset:
    """Thin a dataset by dropping every 5th or every 2nd report.

    Dropping runs per vessel when vids are present (per dataset otherwise),
    counting in time order, and never removes a vessel's first report.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"pattern must be one of {PATTERNS}, got {pattern!r}")
    step = 5 if pattern == EVERY_5TH else 2
    keep = (_vessel_rank(_vessel_codes(ds)) + 1) % step != 0
    return _subset(ds, np.flatnonzero(keep))


def even_odd_split(ds: TrackDataset) -> tuple[TrackDataset, TrackDataset]:
    """Each vessel's reports alternate between history (even rank) and test
    (odd rank).  Within a timestamp, reports run by vessel in order of first
    appearance, then in dataset order."""
    codes = _vessel_codes(ds)
    # reports by vessel, then by index; the stable sort by time keeps that
    # order within a timestamp
    by_vessel, _ = label_groups(codes)
    odd = (_vessel_rank(codes) % 2 == 1)[by_vessel]
    return _subset(ds, by_vessel[~odd]), _subset(ds, by_vessel[odd])


def scenario_s1(seed: int = S1_SEED) -> SynthConfig:
    """The 20-vessel benchmark fleet: 14 cruising, 3 maneuvering, 3 steady."""
    archetypes = (("transit",) * 14 + ("turning",) * 3
                  + ("steady-drifting", "steady-docked", "steady-drifting"))
    return SynthConfig(n_vessels=20, archetypes=archetypes,
                       noise_sigma_m=10.0, seed=seed)


def scenario_s1_gaps(seed: int = S1_SEED) -> SynthConfig:
    """The benchmark fleet with two mid-track reporting outages per vessel."""
    return replace(scenario_s1(seed), gaps_per_vessel=2,
                   gap_duration_s=(350, 900))
