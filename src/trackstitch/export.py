"""Render cluster assignments as GeoJSON tracks and an SVG label timeline."""

from __future__ import annotations

import numpy as np

from .model import ClusterAssignment, TrackDataset


def export_geojson(ds: TrackDataset, assignment: ClusterAssignment) -> dict:
    """One LineString feature per cluster, points in time order.

    A single-report cluster repeats its coordinate so the geometry stays a
    valid LineString.  Feature properties carry the cluster id, its size,
    and which of its points are flagged as track ends.
    """
    if len(ds) != len(assignment):
        raise ValueError("dataset and assignment must align")
    features = []
    for cid in range(assignment.n_clusters):
        idx = np.nonzero(assignment.cluster_of == cid)[0]
        coords = [[float(ds.lon[i]), float(ds.lat[i])] for i in idx]
        if len(coords) == 1:
            coords = [coords[0], list(coords[0])]
        features.append({
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": coords},
            "properties": {
                "cluster_id": cid,
                "point_count": int(idx.size),
                "endpoints": [int(i) for i in idx if int(i) in assignment.endpoints],
            },
        })
    return {"type": "FeatureCollection", "features": features}


_SVG_STYLE = (
    "  <style>text { font: 10px sans-serif; fill: #444; }</style>\n"
)

# label characters that XML text content cannot hold as they are
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def export_label_timeline(ds: TrackDataset, assignment: ClusterAssignment) -> str:
    """Time extents of true vessels (blue) over predicted clusters (red).

    Each label gets a horizontal segment spanning its first to last report.
    A perfect reconstruction therefore shows one red segment under each
    blue one; splits show as several red segments sharing a blue row's
    time span.  Output bytes are stable for identical inputs.
    """
    if len(ds) != len(assignment):
        raise ValueError("dataset and assignment must align")

    truth_rows: list[tuple[str, int, int]] = []
    if ds.has_vids():
        seen: dict[str, int] = {}
        spans: list[list[int]] = []
        order: list[str] = []
        for i, label in enumerate(ds.vids):
            if label not in seen:
                seen[label] = len(spans)
                spans.append([int(ds.t[i]), int(ds.t[i])])
                order.append(label)
            else:
                span = spans[seen[label]]
                span[0] = min(span[0], int(ds.t[i]))
                span[1] = max(span[1], int(ds.t[i]))
        truth_rows = [(label, spans[seen[label]][0], spans[seen[label]][1])
                      for label in order]

    cluster_rows: list[tuple[str, int, int]] = []
    for cid in range(assignment.n_clusters):
        idx = np.nonzero(assignment.cluster_of == cid)[0]
        ts = ds.t[idx]
        cluster_rows.append((f"c{cid}", int(ts.min()), int(ts.max())))

    left, right = 90.0, 790.0
    row_h = 14
    gap = 24
    t_max = max(int(ds.t.max()), 1) if len(ds) else 1

    def x(t: int) -> float:
        return left + (right - left) * (t / t_max)

    height = 30 + row_h * len(truth_rows) + gap + row_h * len(cluster_rows) + 10
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="800" height="{height}" '
        f'viewBox="0 0 800 {height}">',
        _SVG_STYLE.rstrip("\n"),
        f'  <rect width="800" height="{height}" fill="#ffffff"/>',
        '  <text x="8" y="16">vessels (blue) and clusters (red) over time</text>',
    ]
    y = 30
    for label, t0, t1 in truth_rows:
        cy = y + row_h / 2
        lines.append(f'  <text x="8" y="{cy + 3:.2f}">{label.translate(_XML_ESCAPES)}</text>')
        lines.append(f'  <line x1="{x(t0):.2f}" y1="{cy:.2f}" x2="{x(t1):.2f}" '
                     f'y2="{cy:.2f}" stroke="#1f77b4" stroke-width="4"/>')
        y += row_h
    y += gap
    for label, t0, t1 in cluster_rows:
        cy = y + row_h / 2
        lines.append(f'  <text x="8" y="{cy + 3:.2f}">{label.translate(_XML_ESCAPES)}</text>')
        lines.append(f'  <line x1="{x(t0):.2f}" y1="{cy:.2f}" x2="{x(t1):.2f}" '
                     f'y2="{cy:.2f}" stroke="#d62728" stroke-width="4"/>')
        y += row_h
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
