"""Constant-velocity prediction, space-time directions and ground distance.

Courses are degrees clockwise from true north, so the northward component of
motion goes with cos(cog) and the eastward component with sin(cog).  Degrees
of longitude shrink with latitude; the conversion uses the latitude of the
point being advanced.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import KNOT_MPS, M_PER_DEG_LAT, M_PER_DEG_LON_EQ, AisPoint

# degrees of latitude covered per knot-second
DEG_LAT_PER_KNOT_S = KNOT_MPS / M_PER_DEG_LAT


class SpaceTimeVector(NamedTuple):
    """Displacement with the time gap folded in as a third coordinate."""

    tau: float
    dlat: float
    dlon: float


def displace(lat: float, lon: float, sog: float, cog: float, dt: float) -> tuple[float, float]:
    """Advance a position by dt seconds of constant speed and course."""
    course = math.radians(cog)
    new_lat = lat + sog * math.cos(course) * DEG_LAT_PER_KNOT_S * dt
    lon_rate = KNOT_MPS / (M_PER_DEG_LON_EQ * math.cos(math.radians(lat)))
    new_lon = lon + sog * math.sin(course) * lon_rate * dt
    return new_lat, new_lon


def space_time_vector(dt: float, dlat: float, dlon: float, alpha: float,
                      time_weight: float) -> SpaceTimeVector:
    return SpaceTimeVector(time_weight * dt, alpha * dlat, dlon)


def cosine(u: SpaceTimeVector, v: SpaceTimeVector) -> float:
    nu = math.sqrt(u.tau * u.tau + u.dlat * u.dlat + u.dlon * u.dlon)
    nv = math.sqrt(v.tau * v.tau + v.dlat * v.dlat + v.dlon * v.dlon)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine of a zero-length vector is undefined")
    dot = u.tau * v.tau + u.dlat * v.dlat + u.dlon * v.dlon
    return dot / (nu * nv)


def turning_cos(a: AisPoint, b: AisPoint, c: AisPoint, alpha: float,
                time_weight: float) -> float:
    """Cosine of the bend across two consecutive links a -> b -> c."""
    u = space_time_vector(b.t - a.t, b.lat - a.lat, b.lon - a.lon, alpha, time_weight)
    v = space_time_vector(c.t - b.t, c.lat - b.lat, c.lon - b.lon, alpha, time_weight)
    return cosine(u, v)


def ground_distance_coords_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Flat-earth distance in meters, good at the scales screened here."""
    mean_lat = math.radians((lat1 + lat2) / 2.0)
    dy = (lat2 - lat1) * M_PER_DEG_LAT
    dx = (lon2 - lon1) * M_PER_DEG_LON_EQ * math.cos(mean_lat)
    return math.hypot(dx, dy)


def ground_distance_m(a: AisPoint, b: AisPoint) -> float:
    return ground_distance_coords_m(a.lat, a.lon, b.lat, b.lon)
