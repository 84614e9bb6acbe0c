import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trackstitch import ingest
from trackstitch.ingest import IngestError, number_text, parse_ais_csv, write_ais_csv
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


def test_parsed_vids_share_one_object_per_vessel():
    ds = parse_ais_csv(io.StringIO(LABELED + "V2,190,37.0,-76.2,5.0,10.0\n"))
    assert ds.vids == ("V1", "V2", "V1", "V2")
    assert len(set(map(id, ds.vids))) == 2


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
    # the int64 column takes only ASCII digits after an optional sign
    pytest.param(HEAD5 + "5.0,1,2,3,4\n", "line 2: bad timestamp '5.0'",
                 id="whole-float-timestamp"),
    pytest.param(HEAD5 + "1_0,1,2,3,4\n", "line 2: bad timestamp '1_0'",
                 id="short-underscore-timestamp"),
    pytest.param(HEAD5 + "\u0661,1,2,3,4\n", "line 2: bad timestamp '\u0661'",
                 id="arabic-indic-digit-timestamp"),
    pytest.param(HEAD5 + "0x10,1,2,3,4\n", "line 2: bad timestamp '0x10'", id="hex-timestamp"),
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
    # integer times as int() reads them
    pytest.param(HEAD5 + "+5,1,2,3,4\n",
                 ([0], [1.0], [2.0], [3.0], [4.0], None, "5"), id="plus-signed-time"),
    pytest.param(HEAD5 + "007,1,2,3,4\n",
                 ([0], [1.0], [2.0], [3.0], [4.0], None, "7"), id="zero-padded-time"),
    pytest.param(HEAD5 + "-0,1,2,3,4\n",
                 ([0], [1.0], [2.0], [3.0], [4.0], None, "0"), id="negative-zero-time"),
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


def _repr_texts(values: np.ndarray) -> list[str]:
    return list(map(repr if values.dtype.kind == "f" else str, values.tolist()))


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True)))
def test_number_text_equals_repr_on_any_float(values):
    x = np.array(values, dtype=np.float64)
    assert number_text(x) == _repr_texts(x)


def test_number_text_equals_repr_on_random_bit_patterns():
    rng = np.random.default_rng(2018)
    bits = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    assert number_text(x) == _repr_texts(x)
    # the same mantissas and signs with binary exponents 2**-14 .. 2**53, the
    # magnitudes repr writes without an exponent
    exponents = rng.integers(1023 - 14, 1023 + 54, size=bits.size).astype(np.uint64)
    x = ((bits & ~np.uint64(0x7FF << 52)) | (exponents << np.uint64(52))).view(np.float64)
    assert number_text(x) == _repr_texts(x)


def test_number_text_equals_repr_at_the_edges():
    edges = [0.0, -0.0, 1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e16,
             np.nextafter(1e16, 0), 5e-324, np.finfo(np.float64).tiny,
             np.finfo(np.float64).max, np.nan, np.inf, -np.inf, 0.1, 1.0, 100.0]
    x = np.array(edges + [-e for e in edges], dtype=np.float64)
    assert number_text(x) == _repr_texts(x)
    assert number_text(np.array([6.049812043329439e-05, 1e16])) == ["6.049812043329439e-05",
                                                                     "1e+16"]


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_number_text_equals_str_on_integers(dtype):
    info = np.iinfo(dtype)
    values = {info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max}
    x = np.array(sorted(v for v in values if info.min <= v <= info.max), dtype=dtype)
    assert number_text(x) == _repr_texts(x)


def test_number_text_takes_empty_read_only_and_strided_arrays():
    assert number_text(np.zeros(0)) == []
    assert number_text(np.zeros(0, dtype=np.int64)) == []
    x = np.linspace(-1e-3, 1e-3, 41)
    x.setflags(write=False)
    assert number_text(x) == _repr_texts(x)
    assert number_text(x[::3]) == _repr_texts(x[::3])
    assert number_text(x[::-1]) == _repr_texts(x[::-1])
    times = np.arange(20, dtype=np.int64)[1::4]
    assert number_text(times) == ["1", "5", "9", "13", "17"]


def test_write_block_boundaries_are_invisible(monkeypatch):
    ds = TrackDataset.from_columns(np.arange(7), np.linspace(-1e-5, 1e-5, 7), np.arange(7.0),
                                   np.ones(7), np.zeros(7), vids=list("abcabca"), epoch="5")
    whole = io.StringIO()
    write_ais_csv(ds, whole)
    for rows in (1, 3, 7):
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", rows)
        blocked = io.StringIO()
        write_ais_csv(ds, blocked)
        assert blocked.getvalue() == whole.getvalue()
    assert whole.getvalue().splitlines()[1] == "a,5,-1e-05,0.0,1.0,0.0"
