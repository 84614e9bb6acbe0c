import json
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trackstitch import export
from trackstitch.export import export_geojson, export_label_timeline
from trackstitch.model import AisPoint, ClusterAssignment, TrackDataset


def _toy():
    pts = [
        AisPoint(0, 37.0, -76.0, 5.0, 90.0, vid="a"),
        AisPoint(60, 37.0, -75.99, 5.0, 90.0, vid="a"),
        AisPoint(30, 37.02, -76.01, 0.0, 0.0, vid="b"),
    ]
    ds = TrackDataset.from_points(pts)
    # sorted by t: a(0), b(30), a(60); clusters pair the two a reports
    assignment = ClusterAssignment(cluster_of=np.array([0, 1, 0]),
                                   endpoints=np.array([2], dtype=np.int64),
                                   abnormal=np.empty(0, dtype=np.int64))
    return ds, assignment


def test_geojson_structure():
    ds, assignment = _toy()
    text = export_geojson(ds, assignment)
    doc = json.loads(text)
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 2
    track = doc["features"][0]
    assert track["geometry"]["type"] == "LineString"
    # coordinates are [lon, lat] pairs in time order
    assert track["geometry"]["coordinates"] == [[-76.0, 37.0], [-75.99, 37.0]]
    assert track["properties"] == {"cluster_id": 0, "point_count": 2,
                                   "endpoints": [2]}
    assert text == json.dumps(doc, indent=2).encode()


def test_geojson_singleton_repeats_coordinate():
    ds, assignment = _toy()
    single = json.loads(export_geojson(ds, assignment))["features"][1]
    assert single["geometry"]["coordinates"] == [[-76.01, 37.02], [-76.01, 37.02]]
    assert single["properties"]["point_count"] == 1


def test_geojson_alignment_check():
    ds, assignment = _toy()
    short = ClusterAssignment(cluster_of=np.array([0, 0]),
                              endpoints=np.empty(0, dtype=np.int64),
                              abnormal=np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError):
        export_geojson(ds, short)


def test_timeline_svg_shape():
    ds, assignment = _toy()
    svg = export_label_timeline(ds, assignment)
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    # one blue row per vessel, one red row per cluster
    assert svg.count('stroke="#1f77b4"') == 2
    assert svg.count('stroke="#d62728"') == 2
    assert ">a<" in svg and ">b<" in svg
    assert ">c0<" in svg and ">c1<" in svg


def test_timeline_svg_is_byte_stable():
    ds, assignment = _toy()
    assert export_label_timeline(ds, assignment) == export_label_timeline(ds, assignment)


def test_timeline_without_truth_shows_clusters_only():
    pts = [AisPoint(t, 37.0, -76.0, 1.0, 0.0) for t in (0, 30)]
    ds = TrackDataset.from_points(pts)
    assignment = ClusterAssignment(cluster_of=np.array([0, 0]),
                                   endpoints=np.empty(0, dtype=np.int64),
                                   abnormal=np.empty(0, dtype=np.int64))
    svg = export_label_timeline(ds, assignment)
    assert svg.count('stroke="#d62728"') == 1
    assert svg.count('stroke="#1f77b4"') == 0


def test_timeline_escapes_markup_in_labels():
    pts = [AisPoint(0, 37.0, -76.0, 5.0, 90.0, vid="A&<B>"),
           AisPoint(60, 37.0, -75.99, 5.0, 90.0, vid="A&<B>")]
    ds = TrackDataset.from_points(pts)
    assignment = ClusterAssignment(cluster_of=np.array([0, 0]),
                                   endpoints=np.empty(0, dtype=np.int64),
                                   abnormal=np.empty(0, dtype=np.int64))
    doc = minidom.parseString(export_label_timeline(ds, assignment))
    texts = [node.firstChild.data for node in doc.getElementsByTagName("text")]
    assert "A&<B>" in texts
    assert "c0" in texts


def _geojson_document(ds, assignment):
    """The document export_geojson renders, built report by report."""
    features = []
    for cid in range(assignment.n_clusters):
        members = [i for i in range(len(ds)) if assignment.cluster_of[i] == cid]
        coords = [[float(ds.lon[i]), float(ds.lat[i])] for i in members]
        features.append({
            "type": "Feature",
            "geometry": {"type": "LineString",
                         "coordinates": coords * 2 if len(coords) == 1 else coords},
            "properties": {"cluster_id": cid, "point_count": len(members),
                           "endpoints": [i for i in members if i in assignment.endpoints]},
        })
    return {"type": "FeatureCollection", "features": features}


def _fleet(lat, lon, cluster_of, endpoints):
    """One report a second at the given coordinates, and their assignment."""
    n = len(lat)
    ds = TrackDataset(t=np.arange(n), lat=np.array(lat, dtype=float),
                      lon=np.array(lon, dtype=float), sog=np.zeros(n), cog=np.zeros(n),
                      vids=None, alpha=1.0)
    return ds, ClusterAssignment(cluster_of=np.array(cluster_of, dtype=np.int64),
                                 endpoints=np.array(sorted(endpoints), dtype=np.int64),
                                 abnormal=np.empty(0, dtype=np.int64))


# cluster 1 has no reports and cluster 2 has one
_CLUSTER_OF = [0, 2, 0, 3, 3]
_ENDPOINTS = {2, 4}


def test_geojson_in_fixed_notation_is_dumped_by_orjson(monkeypatch):
    ds, assignment = _fleet([37.0, -0.0, 1e-4, 36.125, 0.0], [-76.0, 0.0, -75.99, 180.0, -0.0],
                            _CLUSTER_OF, _ENDPOINTS)
    expected = json.dumps(_geojson_document(ds, assignment), indent=2).encode()
    # every coordinate is one orjson writes as repr does, so json is not needed
    monkeypatch.setattr(export, "json", None)
    assert export_geojson(ds, assignment) == expected


def _dumped_by_json(monkeypatch):
    """The cluster ids of the features that export.json.dumps is called on."""
    dumped = []
    dumps = export.json.dumps

    def counted(obj, **kwargs):
        dumped.append(obj["properties"]["cluster_id"])
        return dumps(obj, **kwargs)

    monkeypatch.setattr(export.json, "dumps", counted)
    return dumped


def test_geojson_in_exponent_notation_is_dumped_by_json(monkeypatch):
    below = float(np.nextafter(1e-4, 0))
    ds, assignment = _fleet([3e-05, -0.0, 0.0, 1e-4, below], [-0.0, 1e-4, below, 3e-05, 0.0],
                            _CLUSTER_OF, _ENDPOINTS)
    expected = json.dumps(_geojson_document(ds, assignment), indent=2).encode()
    # orjson would write 3e-05 as 0.00003; clusters 1 and 2 hold no such value
    dumped = _dumped_by_json(monkeypatch)
    text = export_geojson(ds, assignment)
    assert text == expected
    assert b"            3e-05" in text and b"9.999999999999999e-05" in text
    assert dumped == [0, 3]


def test_geojson_dumps_only_the_odd_feature_by_json(monkeypatch):
    # six clusters of five reports; one latitude of cluster 4 is 3e-05
    lat = 37.0 + np.arange(30) * 1e-3
    lat[22] = 3e-05
    ds, assignment = _fleet(lat, -76.0 + np.arange(30) * 1e-3, np.arange(30) // 5, {4, 22, 29})
    expected = json.dumps(_geojson_document(ds, assignment), indent=2).encode()
    dumped = _dumped_by_json(monkeypatch)
    assert export_geojson(ds, assignment) == expected
    assert dumped == [4]


def _near_zero_or(low, high):
    return st.floats(low, high) | st.floats(-2e-4, 2e-4)


coordinate = st.tuples(_near_zero_or(-90, 90), _near_zero_or(-180, 180))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coordinate, st.integers(0, 5), st.booleans()), max_size=12))
def test_geojson_is_json_dumps_text(reports):
    # cluster ids may skip values, so empty features are covered too; near-zero
    # coordinates reach the exponent-form path
    ds, assignment = _fleet([c[0] for c, _, _ in reports], [c[1] for c, _, _ in reports],
                            [cid for _, cid, _ in reports],
                            [i for i, (_, _, end) in enumerate(reports) if end])
    expected = json.dumps(_geojson_document(ds, assignment), indent=2).encode()
    assert export_geojson(ds, assignment) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10_000), st.sampled_from("abc"), st.integers(0, 3)),
                min_size=1, max_size=15))
def test_timeline_rows_span_each_label(reports):
    # a dataset holds its reports in time order; labels interleave in it
    reports = sorted(reports, key=lambda report: report[0])
    n = len(reports)
    cluster_ids = sorted({cid for _, _, cid in reports})
    ds = TrackDataset(t=np.array([t for t, _, _ in reports], dtype=np.int64),
                      lat=np.zeros(n), lon=np.zeros(n), sog=np.zeros(n), cog=np.zeros(n),
                      vids=tuple(vid for _, vid, _ in reports), alpha=1.0)
    assignment = ClusterAssignment(
        cluster_of=np.array([cluster_ids.index(cid) for _, _, cid in reports], dtype=np.int64),
        endpoints=np.empty(0, dtype=np.int64),
        abnormal=np.empty(0, dtype=np.int64))
    svg = export_label_timeline(ds, assignment).splitlines()
    t_max = max(max(t for t, _, _ in reports), 1)
    spans = {}
    for t, vid, cid in reports:
        for label in (vid, f"c{cluster_ids.index(cid)}"):
            lo, hi = spans.get(label, (t, t))
            spans[label] = (min(lo, t), max(hi, t))
    order = list(dict.fromkeys(vid for _, vid, _ in reports))
    order += [f"c{k}" for k in range(len(cluster_ids))]
    rows = [line for line in svg if line.startswith("  <line ")]
    labels = [line for line in svg
              if line.startswith('  <text x="8" y="') and "over time" not in line]
    assert [line.split(">")[1].split("<")[0] for line in labels] == order
    for label, row in zip(order, rows):
        lo, hi = spans[label]
        assert f'x1="{90 + 700 * (lo / t_max):.2f}"' in row
        assert f'x2="{90 + 700 * (hi / t_max):.2f}"' in row
