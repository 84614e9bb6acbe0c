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


HEAD5 = "timestamp,lat,lon,sog,cog\n"
HEAD6 = "vid,timestamp,lat,lon,sog,cog\n"

# input text -> the exact IngestError message
REJECTED = [
    pytest.param(HEAD5 + "5,1,2,3\n", "line 2: expected 5 fields, got 4", id="short-row"),
    pytest.param(HEAD6 + "A,5,1,2,3,4,5\n", "line 2: expected 6 fields, got 7", id="long-row"),
    pytest.param(HEAD5 + "xx,1,2,3,4\n", "line 2: bad timestamp 'xx'", id="bad-timestamp"),
    pytest.param(HEAD5 + "5.5,1,2,3,4\n", "line 2: bad timestamp '5.5'", id="fractional-timestamp"),
    pytest.param(HEAD5 + "1_000,1,2,3,4\n", "line 2: bad timestamp '1_000'",
                 id="underscore-timestamp"),
    pytest.param(HEAD5 + "5,1,2,3,4\n\u0661\u0662,1,2,3,4\n",
                 "line 3: bad timestamp '\u0661\u0662'", id="non-ascii-timestamp"),
    pytest.param(HEAD5 + "5,abc,2,3,4\n",
                 "line 2: could not convert string to float: 'abc'", id="bad-float"),
    pytest.param(HEAD5 + "5,1,2,3,\n",
                 "line 2: could not convert string to float: ''", id="blank-float"),
    pytest.param(HEAD5 + "5,95.0,2,3,4\n", "line 2: lat out of range: 95.0", id="lat-high"),
    pytest.param(HEAD5 + "5,-90.5,2,3,4\n", "line 2: lat out of range: -90.5", id="lat-low"),
    pytest.param(HEAD5 + "5,nan,2,3,4\n", "line 2: lat out of range: nan", id="lat-nan"),
    pytest.param(HEAD5 + "5,inf,2,3,4\n", "line 2: lat out of range: inf", id="lat-inf"),
    pytest.param(HEAD5 + "5,1,180.5,3,4\n", "line 2: lon out of range: 180.5", id="lon-high"),
    pytest.param(HEAD5 + "5,1,NaN,3,4\n", "line 2: lon out of range: nan", id="lon-nan"),
    pytest.param(HEAD5 + "5,1,2,-1,4\n", "line 2: sog must be >= 0, got -1.0", id="sog-negative"),
    pytest.param(HEAD5 + "5,1,2,nan,4\n", "line 2: sog must be >= 0, got nan", id="sog-nan"),
    pytest.param(HEAD5 + "5,1,2,3,360\n", "line 2: cog must be in [0, 360), got 360.0",
                 id="cog-360"),
    pytest.param(HEAD5 + "5,1,2,3,-0.5\n", "line 2: cog must be in [0, 360), got -0.5",
                 id="cog-negative"),
    pytest.param(HEAD5 + "5,1,2,3,nan\n", "line 2: cog must be in [0, 360), got nan",
                 id="cog-nan"),
    pytest.param(HEAD5 + "5,95,200,-1,400\n", "line 2: lat out of range: 95.0",
                 id="lat-checked-first"),
    pytest.param(HEAD6 + ",5,1,2,3,4\n", "line 2: empty vid", id="empty-vid"),
    # every format error is found before any range error
    pytest.param(HEAD5 + "5,95,2,3,4\n6,1,2,3\n", "line 3: expected 5 fields, got 4",
                 id="later-field-count-beats-range"),
    pytest.param(HEAD5 + "5,95,2,3,4\nxx,1,2,3,4\n", "line 3: bad timestamp 'xx'",
                 id="later-timestamp-beats-range"),
    pytest.param(HEAD5 + "5,1,2,-1,4\n6,1,2,3,x\n",
                 "line 3: could not convert string to float: 'x'", id="later-float-beats-range"),
    pytest.param(HEAD5 + "5,1,2,3,4\n6,1,2,-1,4\n7,95,2,3,4\n",
                 "line 3: sog must be >= 0, got -1.0", id="first-range-error-wins"),
    # blank lines are skipped but counted; a whitespace-only line is a row
    pytest.param(HEAD5 + "5,1,2,3,4\n\n\n7,1,2,3\n", "line 5: expected 5 fields, got 4",
                 id="blank-lines-counted"),
    pytest.param(HEAD5 + "5,1,2,3,4\n   \n7,1,2,3,4\n", "line 3: expected 5 fields, got 1",
                 id="whitespace-line"),
    pytest.param(HEAD5, "no data rows", id="header-only"),
    pytest.param(HEAD5 + "\n\n", "no data rows", id="blank-rows-only"),
]


@pytest.mark.parametrize("text, message", REJECTED)
def test_rejected_input_names_its_line(text, message):
    with pytest.raises(IngestError) as exc:
        parse_ais_csv(io.StringIO(text))
    assert str(exc.value) == message


# input text -> (t, lat, lon, sog, cog, vids, epoch)
ACCEPTED = [
    pytest.param(HEAD5 + "5,1,2,3,4\n",
                 ([0], [1.0], [2.0], [3.0], [4.0], None, "5"), id="one-row"),
    pytest.param(HEAD5.replace("\n", "\r\n") + "5,1,2,3,4\r\n7,1.5,2,3,4\r\n",
                 ([0, 2], [1.0, 1.5], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0], None, "5"), id="crlf"),
    pytest.param(HEAD5 + " 5 , 1.5 , 2 ,3 , 4 \n",
                 ([0], [1.5], [2.0], [3.0], [4.0], None, "5"), id="padded-fields"),
    pytest.param(HEAD6 + " A ,5,1,2,3,4\n",
                 ([0], [1.0], [2.0], [3.0], [4.0], (" A ",), "5"), id="padded-vid-kept"),
    pytest.param(HEAD6 + '"a,""b""",5,1,2,3,4\n',
                 ([0], [1.0], [2.0], [3.0], [4.0], ('a,"b"',), "5"), id="quoted-vid"),
    pytest.param(HEAD5 + "1714521600,1,2,3,4\n2024-05-01T00:01:00,1,2,3,4\n",
                 ([0, 60], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0], None,
                  "1714521600"), id="iso-and-integer-times"),
    pytest.param(HEAD5 + " 2024-05-01T00:01:00 ,1,2,3,4\n",
                 ([0], [1.0], [2.0], [3.0], [4.0], None, "1714521660"), id="padded-iso-time"),
    pytest.param(HEAD5 + "5,1,2,3,4\n\n3,-1,-2,0,359.5\n",
                 ([0, 2], [-1.0, 1.0], [-2.0, 2.0], [0.0, 3.0], [359.5, 4.0], None, "3"),
                 id="blank-line-and-time-sort"),
    pytest.param(HEAD5 + "-5,90,-180,0,0\n-4,-90,180,0,359.999\n",
                 ([0, 1], [90.0, -90.0], [-180.0, 180.0], [0.0, 0.0], [0.0, 359.999], None,
                  "-5"), id="range-edges"),
    pytest.param(HEAD5 + "5,0.1000000000000000055511151231257827,2.4e-324,1e5,.5\n",
                 ([0], [0.1], [0.0], [1e5], [0.5], None, "5"), id="float-syntax"),
]


@pytest.mark.parametrize("text, parsed", ACCEPTED)
def test_accepted_input_parses_exactly(text, parsed):
    ds = parse_ais_csv(io.StringIO(text))
    got = (ds.t.tolist(), ds.lat.tolist(), ds.lon.tolist(), ds.sog.tolist(),
           ds.cog.tolist(), ds.vids, ds.epoch)
    assert got == parsed


@pytest.mark.parametrize("from_path", [True, False], ids=["path", "stream"])
def test_byte_order_mark_is_skipped(tmp_path, from_path):
    text = "\ufeff" + LABELED
    if from_path:
        source = tmp_path / "bom.csv"
        source.write_text(text, encoding="utf-8")
    else:
        source = io.StringIO(text)
    ds = parse_ais_csv(source, has_labels=True)
    assert ds.vids == ("V1", "V2", "V1")


@pytest.mark.parametrize("raw", ["1e400", "inf", "Infinity"])
def test_infinite_sog_is_rejected(raw):
    with pytest.raises(IngestError) as exc:
        parse_ais_csv(io.StringIO(HEAD5 + f"5,1,2,3,4\n6,1,2,{raw},4\n"))
    assert str(exc.value) == "line 3: sog must be finite, got inf"


def test_range_error_line_counts_blank_lines():
    with pytest.raises(IngestError) as exc:
        parse_ais_csv(io.StringIO(HEAD5 + "5,1,2,3,4\n\n7,95,2,3,4\n"))
    assert str(exc.value) == "line 4: lat out of range: 95.0"


@pytest.mark.parametrize("raw", ["1_0", "\u0661"])
def test_number_outside_plain_decimal_syntax_is_rejected(raw):
    with pytest.raises(IngestError) as exc:
        parse_ais_csv(io.StringIO(HEAD5 + f"5,{raw},2,3,4\n"))
    assert str(exc.value) == f"line 2: could not convert string to float: {raw!r}"


@pytest.mark.parametrize("raw", [str(2 ** 62), str(-2 ** 62), "99999999999999999999999"])
def test_timestamp_past_the_int64_range_is_rejected(raw):
    with pytest.raises(IngestError) as exc:
        parse_ais_csv(io.StringIO(HEAD5 + f"5,1,2,3,4\n{raw},1,2,3,4\n"))
    assert str(exc.value) == f"line 3: bad timestamp {raw!r}"


def test_classic_mac_line_ends_parse_like_a_path(tmp_path):
    text = HEAD5.replace("\n", "\r") + "5,1,2,3,4\r7,1.5,2,3,4\r"
    path = tmp_path / "cr.csv"
    path.write_bytes(text.encode())
    for source in (path, io.StringIO(text)):
        assert parse_ais_csv(source).lat.tolist() == [1.0, 1.5]


def test_invalid_utf8_names_its_offset_in_the_whole_file(tmp_path):
    rows = "".join(f"{t},37.0,-76.0,5.0,10.0\n" for t in range(5000)).encode()
    data = HEAD5.encode() + rows + b"5001,\xff,-76.0,5.0,10.0\n"
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as exc:
        parse_ais_csv(path)
    assert f"position {data.index(bytes([0xff]))}:" in str(exc.value)
