"""CSV ingestion and emission.

The accepted schema is a header row followed by data rows, with columns in
this order: an optional leading ``vid``, then ``timestamp``, ``lat``,
``lon``, ``sog``, ``cog``.  Timestamps are either integer seconds or
ISO-8601 datetimes (naive values are taken as UTC).  On parse, times are
shifted so the earliest report sits at t=0, and the dataset's ``epoch`` holds
that report's unix time in integer seconds.

Parsing runs by column: one ``np.loadtxt`` pass splits the rows and converts
the four float columns and integer timestamps, and numpy masks check their
ranges.  Only when that pass fails are the timestamps read again as text
(ISO-8601 times), and only when that fails too does a per-line scan run, to
name the first line that breaks the format.

Writing runs by column too: ``number_text`` renders a whole column of
numbers in one call, exactly as ``repr`` (for floats) or ``str`` (for
integers) would.
"""

from __future__ import annotations

import csv
import io
import warnings
from contextlib import contextmanager, nullcontext
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Iterator, TextIO, Union

import numpy as np
import orjson

from .model import TrackDataset, first_bad_report

REQUIRED_COLUMNS = ("timestamp", "lat", "lon", "sog", "cog")

# integer seconds must lie strictly inside +-2**62, so that the difference of
# any two fits in an int64
_SECONDS_LIMIT = 2 ** 62

Source = Union[str, Path, TextIO]


class IngestError(ValueError):
    """Malformed header or row; the message names the offending line."""


@contextmanager
def _open_text(source: Source) -> Iterator[TextIO]:
    """A seekable text handle on the source, past any UTF-8 byte-order mark;
    a decoding error names its byte's offset in the whole file."""
    if not isinstance(source, (str, Path)):
        # newline=None translates line ends as reading a path does
        yield io.StringIO(source.read().removeprefix("\ufeff"), newline=None)
        return
    with open(source, encoding="utf-8-sig") as handle:
        try:
            yield handle
        except UnicodeDecodeError:
            Path(source).read_text(encoding="utf-8-sig")
            raise


def _plain(raw: str) -> bool:
    """Whether text between any surrounding whitespace is ASCII without ``_``
    digit separators, the syntax numpy's text reader takes for numbers."""
    return "_" not in raw and raw.strip().isascii()


def _parse_timestamp(raw: str) -> int:
    """Unix time in integer seconds; ValueError names the stripped text."""
    raw = raw.strip()
    if not _plain(raw):
        raise ValueError(f"bad timestamp {raw!r}")
    try:
        seconds = int(raw)
    except ValueError:
        try:
            stamp = datetime.fromisoformat(raw)
        except ValueError:
            raise ValueError(f"bad timestamp {raw!r}") from None
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        seconds = int(stamp.timestamp())
    if not -_SECONDS_LIMIT < seconds < _SECONDS_LIMIT:
        raise ValueError(f"bad timestamp {raw!r}")
    return seconds


def _parse_number(raw: str) -> float:
    """float(), restricted to the syntax numpy's text reader takes: ASCII
    between any surrounding whitespace, and no ``_`` digit separators."""
    value = float(raw)
    if not _plain(raw):
        raise ValueError(f"could not convert string to float: {raw!r}")
    return value


def _parse_int(raw: str) -> int:
    """int() of an int64, restricted to numpy's syntax as _parse_number is."""
    value = int(raw)
    if not _plain(raw):
        raise ValueError(f"invalid literal for int() with base 10: {raw!r}")
    if not -2**63 <= value < 2**63:
        raise ValueError("integer out of int64 range")
    return value


def _parse_vid(raw: str) -> str:
    """The vid as it is; ValueError if it is empty."""
    if not raw:
        raise ValueError("empty vid")
    return raw


def _data_lines(handle: TextIO):
    """(line number, fields) of each non-blank record after the header."""
    handle.seek(0)
    rows = enumerate(csv.reader(handle), start=1)
    next(rows)
    return ((line, row) for line, row in rows if row)


def _first_format_error(handle: TextIO, checks: list, fallback: Exception) -> IngestError:
    """The first line breaking the row format, checked as the rows are read:
    field count, then each field by its check, in order (None: any text)."""
    for line, row in _data_lines(handle):
        if len(row) != len(checks):
            return IngestError(f"line {line}: expected {len(checks)} fields, got {len(row)}")
        try:
            for check, raw in zip(checks, row):
                if check is not None:
                    check(raw)
        except ValueError as exc:
            return IngestError(f"line {line}: {exc}")
    return IngestError(f"unreadable CSV: {fallback}")


def _load(handle: TextIO, dtype: np.dtype) -> np.ndarray:
    """The data rows from the handle's position on as a structured array of
    ``dtype``, one field per column."""
    with warnings.catch_warnings():
        # loadtxt warns about blank lines and about input without rows
        warnings.simplefilter("ignore", UserWarning)
        # numpy before 2.0 reads "5.0" into an int64 column, with this warning
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(handle, dtype=dtype, delimiter=",", quotechar='"',
                          comments=None, ndmin=1)


def parse_ais_csv(source: Source, has_labels: bool | None = None) -> TrackDataset:
    """Parse a CSV of position reports into a TrackDataset.

    ``has_labels`` forces the presence (True) or absence (False) of the vid
    column; None accepts either, keyed off the header.  A UTF-8 byte-order
    mark before the header is skipped.
    """
    with _open_text(source) as handle:
        return _parse(handle, has_labels)


def _parse(handle: TextIO, has_labels: bool | None) -> TrackDataset:
    first = handle.readline()
    if not first:
        raise IngestError("empty input")
    header = [h.strip() for h in next(csv.reader([first]))]
    labeled = header[:1] == ["vid"]
    if header[int(labeled):] != list(REQUIRED_COLUMNS):
        raise IngestError(
            f"line 1: expected columns vid?,{','.join(REQUIRED_COLUMNS)}, got {','.join(header)}")
    if has_labels is True and not labeled:
        raise IngestError("line 1: vid column required but missing")
    if has_labels is False and labeled:
        raise IngestError("line 1: unexpected vid column")

    body = handle.tell()
    vid_field = [("vid", object)] if labeled else []
    floats = [(name, np.float64) for name in REQUIRED_COLUMNS[1:]]
    try:
        try:
            table = _load(handle, np.dtype([*vid_field, ("timestamp", np.int64), *floats]))
            raw_t = table["timestamp"]
        except (ValueError, DeprecationWarning):
            # ISO text, a value past int64 or a bad row: read the times as text
            handle.seek(body)
            table = _load(handle, np.dtype([*vid_field, ("timestamp", object), *floats]))
            raw_t = np.fromiter(map(_parse_timestamp, table["timestamp"]), dtype=np.int64,
                                count=len(table))
        if labeled and np.any(table["vid"] == ""):
            raise ValueError("empty vid")
        if not np.all((raw_t > -_SECONDS_LIMIT) & (raw_t < _SECONDS_LIMIT)):
            raise ValueError("timestamp out of range")
    except ValueError as exc:
        checks = [_parse_vid] * len(vid_field) + [_parse_timestamp] + [_parse_number] * 4
        raise _first_format_error(handle, checks, exc) from None
    if not len(table):
        raise IngestError("no data rows")
    if labeled:
        # every row's id is its own str; keep one per vessel
        distinct: dict[str, str] = {}
        table["vid"] = [distinct.setdefault(vid, vid) for vid in table["vid"].tolist()]

    columns = [table[name] for name in REQUIRED_COLUMNS[1:]]
    bad = first_bad_report(*columns)
    if bad is not None:
        index, message = bad
        line, _ = next(islice(_data_lines(handle), index, None))
        raise IngestError(f"line {line}: {message}")

    t0 = int(raw_t.min())
    return TrackDataset.from_columns(raw_t - t0, *columns,
                                     vids=table["vid"] if labeled else None, epoch=str(t0))


def _csv_field(value: str) -> str:
    """``value`` as csv.writer writes it inside a row: quoted only when it
    holds a comma, a quote or a line break."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([value, ""])
    return buffer.getvalue()[:-2]


def fixed_notation(values: np.ndarray) -> np.ndarray:
    """Where a float array's numbers are ones that ``repr`` writes in fixed
    notation, as orjson does: zero, and 1e-4 <= |x| < 1e16.  False for
    exponent-form values and for NaN and infinities."""
    magnitude = np.abs(values)
    return (values == 0) | ((magnitude >= 1e-4) & (magnitude < 1e16))


def number_text(values: np.ndarray) -> list[str]:
    """Each number of a 1-D float64 or integer array as ``repr`` (floats) or
    ``str`` (integers) writes it.

    orjson renders the whole column with Ryu's shortest round-trip digits,
    the digits ``repr`` picks.  Only its notation differs, for floats that
    ``repr`` writes in exponent form (0 < |x| < 1e-4 or |x| >= 1e16) and for
    NaN and infinities, which orjson writes as ``null``; those few are
    rendered again by ``repr``.
    """
    values = np.ascontiguousarray(values)
    if not values.size:
        return []
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    if values.dtype.kind == "f":
        odd = np.flatnonzero(~fixed_notation(values))
        for i, value in zip(odd.tolist(), values[odd].tolist()):
            texts[i] = repr(value)
    return texts


# rows rendered at a time, so no field's text is held for every report
_BLOCK_ROWS = 2 ** 10


def csv_rows(columns: list) -> Iterator[str]:
    """The rows of equal-length columns as CSV text, a block of rows at a time.

    A numpy column is rendered by ``number_text``; any other column is a
    sequence of field texts, taken as they are.
    """
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        fields = [number_text(c[rows]) if isinstance(c, np.ndarray) else c[rows]
                  for c in columns]
        yield "\n".join(map(",".join, zip(*fields))) + "\n"


def write_ais_csv(ds: TrackDataset, dest: Union[str, Path, TextIO]) -> None:
    """Emit a dataset in the same schema parse_ais_csv accepts.

    Times are written as unix seconds, ``t`` plus the epoch (an empty one
    counts as 0).  Floats are written with shortest round-trip formatting,
    so a parse -> write -> parse cycle reproduces the fields exactly.
    """
    columns = [ds.t + int(ds.epoch or 0), ds.lat, ds.lon, ds.sog, ds.cog]
    header = ",".join(REQUIRED_COLUMNS)
    if ds.has_vids():
        quoted = {vid: _csv_field(vid) for vid in set(ds.vids)}
        columns.insert(0, list(map(quoted.__getitem__, ds.vids)))
        header = "vid," + header
    own = isinstance(dest, (str, Path))
    with open(dest, "w", encoding="utf-8", newline="") if own else nullcontext(dest) as handle:
        handle.write(header + "\n")
        handle.writelines(csv_rows(columns))
