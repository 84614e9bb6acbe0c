"""Render cluster assignments as GeoJSON tracks and an SVG label timeline.

Both writers work by column: reports are grouped by ``label_groups``, a
stable sort of their cluster (or vessel) label, so each group's members
stay in time order.
"""

from __future__ import annotations

import json

import numpy as np
import orjson

from .ingest import fixed_notation
from .model import ClusterAssignment, TrackDataset, label_codes, label_groups


# a string that nothing else in a document holds; orjson writes it "\u0000"
_PLACEHOLDER = "\0"
_PLACEHOLDER_JSON = orjson.dumps(_PLACEHOLDER)


def export_geojson(ds: TrackDataset, assignment: ClusterAssignment) -> bytes:
    """One LineString feature per cluster, points in time order, as GeoJSON
    UTF-8 bytes.

    A single-report cluster repeats its coordinate so the geometry stays a
    valid LineString.  Feature properties carry the cluster id, its size,
    and which of its points are flagged as track ends.  The bytes are
    exactly what ``json.dumps(..., indent=2)`` writes for the same document,
    without a trailing newline.  orjson writes them, except for a feature
    with a coordinate that ``repr`` writes in exponent form (or NaN or an
    infinity), which only ``json.dumps`` writes the same way: such a
    feature is dumped by itself and set into orjson's text.
    """
    if len(ds) != len(assignment):
        raise ValueError("dataset and assignment must align")
    order, bounds = label_groups(assignment.cluster_of, assignment.n_clusters)
    points = np.column_stack((ds.lon[order], ds.lat[order]))
    end_order, end_bounds = label_groups(assignment.cluster_of[assignment.endpoints],
                                         assignment.n_clusters)
    ends = assignment.endpoints[end_order]
    features = []
    for cid in range(assignment.n_clusters):
        a, b = bounds[cid], bounds[cid + 1]
        features.append({
            "type": "Feature",
            "geometry": {"type": "LineString",
                         "coordinates": points[[a, a]] if b - a == 1 else points[a:b]},
            "properties": {"cluster_id": cid, "point_count": b - a,
                           "endpoints": ends[end_bounds[cid]:end_bounds[cid + 1]]},
        })
    # a feature that only json.dumps writes right goes into the dump as a
    # placeholder, replaced by its own json.dumps text, indented two levels
    odd = sorted(set(assignment.cluster_of[order[~fixed_notation(points).all(axis=1)]].tolist()))
    texts = [json.dumps(features[cid], indent=2, default=np.ndarray.tolist)
             .replace("\n", "\n    ").encode() for cid in odd]
    for cid in odd:
        features[cid] = _PLACEHOLDER
    dump = orjson.dumps({"type": "FeatureCollection", "features": features},
                        option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY)
    if not odd:
        return dump
    # the k-th placeholder splits parts k and k + 1, and stands for texts[k]
    parts = dump.split(_PLACEHOLDER_JSON)
    return b"".join([part for pair in zip(parts, texts) for part in pair] + parts[-1:])


def _extents(t: np.ndarray, labels: np.ndarray, n_groups: int) -> tuple[list[int], list[int]]:
    """First and last report time of each label: a dataset's times are
    sorted, and each label's run keeps its reports in index order."""
    order, bounds = label_groups(labels, n_groups)
    if len(set(bounds)) != len(bounds):
        raise ValueError("every label needs at least one report")
    edges = np.array(bounds, dtype=np.int64)
    return t[order[edges[:-1]]].tolist(), t[order[edges[1:] - 1]].tolist()


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
        labels, codes = label_codes(ds.vids)
        truth_rows = list(zip(labels, *_extents(ds.t, codes, len(labels))))
    n_clusters = assignment.n_clusters
    cluster_rows = list(zip((f"c{cid}" for cid in range(n_clusters)),
                            *_extents(ds.t, assignment.cluster_of, n_clusters)))

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
    for rows, stroke in ((truth_rows, "#1f77b4"), (cluster_rows, "#d62728")):
        for label, t0, t1 in rows:
            cy = y + row_h / 2
            lines.append(f'  <text x="8" y="{cy + 3:.2f}">{label.translate(_XML_ESCAPES)}</text>')
            lines.append(f'  <line x1="{x(t0):.2f}" y1="{cy:.2f}" x2="{x(t1):.2f}" '
                         f'y2="{cy:.2f}" stroke="{stroke}" stroke-width="4"/>')
            y += row_h
        y += gap
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
