"""Constant-velocity dead reckoning, ground distance and the bend cosine.

The one implementation of each formula in the package.  Every function
takes floats or numpy arrays (broadcast together) and works elementwise.

Courses are degrees clockwise from true north, so the northward component of
motion goes with cos(cog) and the eastward component with sin(cog).  Degrees
of longitude shrink with latitude; the conversion uses the latitude of the
point being advanced.
"""

from __future__ import annotations

import numpy as np

from .model import KNOT_MPS, M_PER_DEG_LAT, M_PER_DEG_LON_EQ, TrackDataset

# degrees of latitude covered per knot-second
DEG_LAT_PER_KNOT_S = KNOT_MPS / M_PER_DEG_LAT


def velocity(lat, sog, cog):
    """North and east rates, in degrees per second, of constant speed sog
    and course cog at latitude lat."""
    course = np.radians(cog)
    lon_rate = KNOT_MPS / (M_PER_DEG_LON_EQ * np.cos(np.radians(lat)))
    return sog * np.cos(course) * DEG_LAT_PER_KNOT_S, sog * np.sin(course) * lon_rate


def displace(lat, lon, sog, cog, dt):
    """Advance a position by dt seconds of constant speed and course."""
    vn, ve = velocity(lat, sog, cog)
    return lat + vn * dt, lon + ve * dt


def ground_distance_m(lat1, lon1, lat2, lon2):
    """Flat-earth distance in meters, good at the scales screened here."""
    mean_lat = np.radians((lat1 + lat2) / 2.0)
    dy = (lat2 - lat1) * M_PER_DEG_LAT
    dx = (lon2 - lon1) * M_PER_DEG_LON_EQ * np.cos(mean_lat)
    return np.hypot(dx, dy)


def turning_cos(ds: TrackDataset, a, b, c, time_weight: float):
    """Cosine of the bend across the links a -> b -> c, index arrays into ds.

    Each link is a space-time direction (time_weight * dt, alpha * dlat,
    dlon), so a link with a positive time step is never a zero vector.
    """
    def step(p, q):
        return (time_weight * (ds.t[q] - ds.t[p]), ds.alpha * (ds.lat[q] - ds.lat[p]),
                ds.lon[q] - ds.lon[p])

    (ut, ul, uo), (vt, vl, vo) = step(a, b), step(b, c)
    nu = np.sqrt(ut * ut + ul * ul + uo * uo)
    nv = np.sqrt(vt * vt + vl * vl + vo * vo)
    return (ut * vt + ul * vl + uo * vo) / (nu * nv)
