"""Plain-python rebuild of the linking pipeline, used as a test oracle.

Everything here is written scalar-first straight from the screening
definitions, shares no code with the library, and favors clarity over
speed.  A disagreement with the library therefore points at a real bug
rather than a copied one.
"""

import math
from bisect import bisect_left, bisect_right

KNOT = 0.514444
LAT_M = 111120.0
LON_M = 111320.0


def pts_of(ds):
    """Snapshot a dataset as plain (t, lat, lon, sog, cog) tuples."""
    return [(int(ds.t[i]), float(ds.lat[i]), float(ds.lon[i]),
             float(ds.sog[i]), float(ds.cog[i])) for i in range(len(ds))]


def advance(lat, lon, sog, cog, dt):
    heading = math.radians(cog)
    north = sog * math.cos(heading) * (KNOT / LAT_M) * dt
    east = sog * math.sin(heading) * (KNOT / (LON_M * math.cos(math.radians(lat)))) * dt
    return lat + north, lon + east


def classify_all(train, vids, test, recent=10):
    """Per test report, the label whose nearest of its last ``recent`` reports
    at or before the test time, advanced to that time, lands closest; ties go
    to the first label in sorted order.  None where no label has history."""
    labels = sorted(set(vids))
    history = {label: [p for p, v in zip(train, vids) if v == label] for label in labels}
    times = {label: [p[0] for p in history[label]] for label in labels}
    out = []
    for t, lat, lon, _, _ in test:
        best, best_d = None, math.inf
        for label in labels:
            cut = bisect_right(times[label], t)
            if cut == 0:
                continue
            past = history[label][max(0, cut - recent):cut]
            near = min(past, key=lambda p: ground_m(p[1], p[2], lat, lon))
            est_lat, est_lon = advance(near[1], near[2], near[3], near[4], t - near[0])
            d = ground_m(est_lat, est_lon, lat, lon)
            if d < best_d:
                best, best_d = label, d
        out.append(best)
    return out


def cos3(u, v):
    nu = math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    nv = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) / (nu * nv)


def ground_m(lat1, lon1, lat2, lon2):
    mean = math.radians((lat1 + lat2) / 2.0)
    dy = (lat2 - lat1) * LAT_M
    dx = (lon2 - lon1) * LON_M * math.cos(mean)
    return math.hypot(dx, dy)


def pair_score(a, b, alpha, cfg):
    """(error, mode) for linking a to the later report b, or None if screened out."""
    ta, lata, lona, soga, coga = a
    tb, latb, lonb, sogb, cogb = b
    dt = tb - ta
    if soga + sogb > cfg.moving_speed_sum:
        plat, plon = advance(lata, lona, soga, coga, dt)
        tm = cfg.time_weight_moving * dt
        fl = alpha * (plat - latb)
        fo = plon - lonb
        fwd = tm * tm + fl * fl + fo * fo
        qlat, qlon = advance(latb, lonb, sogb, cogb, -dt)
        bl = alpha * (qlat - lata)
        bo = qlon - lona
        bwd = tm * tm + bl * bl + bo * bo
        u = (cfg.angle_time_weight * dt, alpha * (plat - lata), plon - lona)
        v = (cfg.angle_time_weight * dt, alpha * (latb - lata), lonb - lona)
        if cos3(u, v) <= cfg.cos_moving_min:
            return None
        return 0.5 * (fwd + bwd), "moving"
    dlat = latb - lata
    dlon = lonb - lona
    ts = cfg.time_weight_steady * dt
    value = ts * ts + (alpha * alpha) * (dlat * dlat) + dlon * dlon
    v = (cfg.angle_time_weight * dt, alpha * dlat, dlon)
    if cos3((1.0, 0.0, 0.0), v) < cfg.cos_steady_min:
        return None
    return value, "steady"


def best_next(pts, i, alpha, cfg):
    """Full scan over every report; (j, error, mode) or None."""
    ti = pts[i][0]
    best = None
    for j, cand in enumerate(pts):
        if not ti + 1 <= cand[0] <= ti + cfg.window_s:
            continue
        scored = pair_score(pts[i], cand, alpha, cfg)
        if scored is None:
            continue
        if best is None or scored[0] < best[1]:
            best = (j, scored[0], scored[1])
    return best


def link_all(pts, alpha, cfg):
    """best_next for every report, windowed by bisection for tolerable speed."""
    times = [p[0] for p in pts]
    out = []
    for i, p in enumerate(pts):
        lo = bisect_left(times, p[0] + 1)
        hi = bisect_right(times, p[0] + cfg.window_s)
        best = None
        for j in range(lo, hi):
            scored = pair_score(p, pts[j], alpha, cfg)
            if scored is None:
                continue
            if best is None or scored[0] < best[1]:
                best = (j, scored[0], scored[1])
        out.append(best)
    return out


def worst_ranked(pts, links, cfg):
    """Linked reports ordered worst-first by error over the squared time gap."""
    scored = []
    for i, link in enumerate(links):
        if link is None:
            continue
        dt = pts[link[0]][0] - pts[i][0]
        scored.append((-(link[1] / (dt * dt)), i))
    scored.sort(key=lambda pair: pair[0])  # stable: index order breaks ties
    return [i for _, i in scored[:cfg.n_abnormal]]


def rescue_set(pts, links, worst, alpha, cfg):
    saved = set()
    for z in worst:
        z2 = links[z][0]
        if links[z2] is None:
            continue
        z3 = links[z2][0]
        a, b, c = pts[z], pts[z2], pts[z3]
        if ground_m(a[1], a[2], b[1], b[2]) >= cfg.turn_rescue_dist_m:
            continue
        u = (cfg.angle_time_weight * (b[0] - a[0]), alpha * (b[1] - a[1]), b[2] - a[2])
        v = (cfg.angle_time_weight * (c[0] - b[0]), alpha * (c[1] - b[1]), c[2] - b[2])
        if cos3(u, v) >= cfg.turn_rescue_cos_min:
            saved.add(z)
    return saved


def abnormal_set(pts, links, alpha, cfg):
    worst = worst_ranked(pts, links, cfg)
    saved = rescue_set(pts, links, worst, alpha, cfg)
    severed = set(worst) - saved
    severed.update(i for i, link in enumerate(links) if link is None)
    return severed


def partition(pts, links, abnormal):
    """Component label per report from the surviving links, smallest member first."""
    n = len(pts)
    adjacency = [[] for _ in range(n)]
    for i, link in enumerate(links):
        if link is None or i in abnormal:
            continue
        adjacency[i].append(link[0])
        adjacency[link[0]].append(i)
    labels = [-1] * n
    next_label = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = next_label
        while stack:
            node = stack.pop()
            for other in adjacency[node]:
                if labels[other] == -1:
                    labels[other] = next_label
                    stack.append(other)
        next_label += 1
    return labels


def run_pipeline(pts, alpha, cfg):
    """Links, abnormal set, and partition, all re-derived from scratch."""
    links = link_all(pts, alpha, cfg)
    abnormal = abnormal_set(pts, links, alpha, cfg)
    return links, abnormal, partition(pts, links, abnormal)
