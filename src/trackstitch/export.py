"""Render cluster assignments as GeoJSON tracks and an SVG label timeline.

Both writers work by column: reports are grouped by ``label_groups``, a
stable sort of their cluster (or vessel) label, so each group's members
stay in time order.
"""

from __future__ import annotations

import numpy as np

from .ingest import number_text
from .model import ClusterAssignment, TrackDataset, index_mask, label_codes, label_groups


def coordinate_text(ds: TrackDataset) -> tuple[list[str], list[str]]:
    """Every lat and lon as float.__repr__ writes it, the form json and the
    assignment CSV share."""
    return number_text(ds.lat), number_text(ds.lon)


# json.dumps(..., indent=2) layout of the fixed FeatureCollection schema
_POINT = "          [\n            {},\n            {}\n          ]"
_ENDPOINT = "          {}"
_FEATURE = ('    {{\n      "type": "Feature",\n      "geometry": {{\n'
            '        "type": "LineString",\n        "coordinates": {}\n      }},\n'
            '      "properties": {{\n        "cluster_id": {},\n        "point_count": {},\n'
            '        "endpoints": {}\n      }}\n    }}')


def _json_list(items: list[str], indent: str) -> str:
    """A json list whose items are already rendered one level below indent."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def export_geojson(ds: TrackDataset, assignment: ClusterAssignment,
                   coords: tuple[list[str], list[str]] | None = None) -> str:
    """One LineString feature per cluster, points in time order, as GeoJSON text.

    A single-report cluster repeats its coordinate so the geometry stays a
    valid LineString.  Feature properties carry the cluster id, its size,
    and which of its points are flagged as track ends.  The text is exactly
    what ``json.dumps(..., indent=2)`` writes for the same document, without
    a trailing newline.  ``coords`` is ``coordinate_text(ds)``, for a caller
    that already has it.
    """
    if len(ds) != len(assignment):
        raise ValueError("dataset and assignment must align")
    lat_text, lon_text = coords or coordinate_text(ds)
    order, bounds = label_groups(assignment.cluster_of, assignment.n_clusters)
    members = order.tolist()
    lons, lats = list(map(lon_text.__getitem__, members)), list(map(lat_text.__getitem__, members))
    ends = order[index_mask(len(ds), assignment.endpoints)[order]]
    _, end_bounds = label_groups(assignment.cluster_of[ends], assignment.n_clusters)
    end_text = list(map(_ENDPOINT.format, ends.tolist()))
    features = []
    for cid in range(assignment.n_clusters):
        a, b = bounds[cid], bounds[cid + 1]
        # one feature's points at a time, so no point's text outlives its feature
        track = list(map(_POINT.format, lons[a:b], lats[a:b]))
        features += [",\n", _FEATURE.format(
            _json_list(track * 2 if b - a == 1 else track, " " * 8), cid, b - a,
            _json_list(end_text[end_bounds[cid]:end_bounds[cid + 1]], " " * 8))]
    # the document in one join, so its text is never held twice
    body = ["[\n", *features[1:], "\n  ]"] if features else ["[]"]
    return "".join(['{\n  "type": "FeatureCollection",\n  "features": ', *body, "\n}"])


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
