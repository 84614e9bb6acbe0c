import json
from xml.dom import minidom

import numpy as np
import pytest

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
                                   endpoints=frozenset({2}),
                                   abnormal=frozenset())
    return ds, assignment


def test_geojson_structure():
    ds, assignment = _toy()
    doc = export_geojson(ds, assignment)
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 2
    track = doc["features"][0]
    assert track["geometry"]["type"] == "LineString"
    # coordinates are [lon, lat] pairs in time order
    assert track["geometry"]["coordinates"] == [[-76.0, 37.0], [-75.99, 37.0]]
    assert track["properties"] == {"cluster_id": 0, "point_count": 2,
                                   "endpoints": [2]}
    json.dumps(doc)  # must be serializable as-is


def test_geojson_singleton_repeats_coordinate():
    ds, assignment = _toy()
    single = export_geojson(ds, assignment)["features"][1]
    assert single["geometry"]["coordinates"] == [[-76.01, 37.02], [-76.01, 37.02]]
    assert single["properties"]["point_count"] == 1


def test_geojson_alignment_check():
    ds, assignment = _toy()
    short = ClusterAssignment(cluster_of=np.array([0, 0]),
                              endpoints=frozenset(), abnormal=frozenset())
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
                                   endpoints=frozenset(), abnormal=frozenset())
    svg = export_label_timeline(ds, assignment)
    assert svg.count('stroke="#d62728"') == 1
    assert svg.count('stroke="#1f77b4"') == 0


def test_timeline_escapes_markup_in_labels():
    pts = [AisPoint(0, 37.0, -76.0, 5.0, 90.0, vid="A&<B>"),
           AisPoint(60, 37.0, -75.99, 5.0, 90.0, vid="A&<B>")]
    ds = TrackDataset.from_points(pts)
    assignment = ClusterAssignment(cluster_of=np.array([0, 0]),
                                   endpoints=frozenset(), abnormal=frozenset())
    doc = minidom.parseString(export_label_timeline(ds, assignment))
    texts = [node.firstChild.data for node in doc.getElementsByTagName("text")]
    assert "A&<B>" in texts
    assert "c0" in texts
