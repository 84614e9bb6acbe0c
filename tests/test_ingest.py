import io

import numpy as np
import pytest

from trackstitch.ingest import IngestError, parse_ais_csv, write_ais_csv
from trackstitch.model import AisPoint, TrackDataset

LABELED = """vid,timestamp,lat,lon,sog,cog
V1,100,37.0,-76.2,5.0,10.0
V2,130,37.01,-76.21,4.0,200.0
V1,160,37.002,-76.19,5.1,12.0
"""

UNLABELED = """timestamp,lat,lon,sog,cog
100,37.0,-76.2,5.0,10.0
130,37.01,-76.21,4.0,200.0
"""


def test_parse_labeled():
    ds = parse_ais_csv(io.StringIO(LABELED))
    assert len(ds) == 3
    assert ds.has_vids()
    assert ds.vids == ("V1", "V2", "V1")
    # times rebased to the earliest report
    assert list(ds.t) == [0, 30, 60]
    assert ds.epoch == "100"


def test_parse_unlabeled():
    ds = parse_ais_csv(io.StringIO(UNLABELED))
    assert not ds.has_vids()
    assert list(ds.t) == [0, 30]


def test_parse_iso_timestamps():
    text = ("timestamp,lat,lon,sog,cog\n"
            "2024-05-01T00:00:00,37.0,-76.2,5.0,10.0\n"
            "2024-05-01T00:01:00+00:00,37.01,-76.21,4.0,200.0\n")
    ds = parse_ais_csv(io.StringIO(text))
    assert list(ds.t) == [0, 60]
    assert ds.epoch == "1714521600"


def test_parse_header_errors():
    with pytest.raises(IngestError):
        parse_ais_csv(io.StringIO("lat,lon\n1,2\n"))
    with pytest.raises(IngestError):
        parse_ais_csv(io.StringIO(""))
    with pytest.raises(IngestError):
        parse_ais_csv(io.StringIO(UNLABELED), has_labels=True)
    with pytest.raises(IngestError):
        parse_ais_csv(io.StringIO(LABELED), has_labels=False)


def test_parse_row_errors():
    with pytest.raises(IngestError, match="line 2"):
        parse_ais_csv(io.StringIO("timestamp,lat,lon,sog,cog\n5,1,2,3\n"))
    with pytest.raises(IngestError, match="line 2"):
        parse_ais_csv(io.StringIO("timestamp,lat,lon,sog,cog\nxx,1,2,3,4\n"))
    with pytest.raises(IngestError, match="line 2"):
        parse_ais_csv(io.StringIO("timestamp,lat,lon,sog,cog\n5,95.0,2,3,4\n"))
    with pytest.raises(IngestError):
        parse_ais_csv(io.StringIO("timestamp,lat,lon,sog,cog\n"))


def test_round_trip_exact(tmp_path):
    points = [AisPoint(0, 37.000000123, -76.23456789, 5.123456, 359.999999, "V1"),
              AisPoint(977, 37.5, -76.0, 0.0, 0.0, "V2")]
    ds = TrackDataset.from_points(points)
    path = tmp_path / "fleet.csv"
    write_ais_csv(ds, path)
    again = parse_ais_csv(path)
    for name in ("t", "lat", "lon", "sog", "cog"):
        assert np.array_equal(getattr(ds, name), getattr(again, name))
    assert again.vids == ds.vids
