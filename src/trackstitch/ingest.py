"""CSV ingestion and emission.

The accepted schema is a header row followed by data rows, with columns in
this order: an optional leading ``vid``, then ``timestamp``, ``lat``,
``lon``, ``sog``, ``cog``.  Timestamps are either integer seconds or
ISO-8601 datetimes (naive values are taken as UTC).  On parse, times are
shifted so the earliest report sits at t=0, and the dataset's ``epoch`` holds
that report's unix time in integer seconds.
"""

from __future__ import annotations

import csv
import io
from datetime import datetime, timezone
from pathlib import Path
from typing import TextIO, Union

from .model import AisPoint, TrackDataset

REQUIRED_COLUMNS = ("timestamp", "lat", "lon", "sog", "cog")

Source = Union[str, Path, TextIO]


class IngestError(ValueError):
    """Malformed header or row; the message names the offending line."""


def _read_text(source: Source) -> str:
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8")
    return source.read()


def _parse_timestamp(raw: str, line: int) -> int:
    """Unix time in integer seconds."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(raw)
    except ValueError:
        raise IngestError(f"line {line}: bad timestamp {raw!r}") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return int(stamp.timestamp())


def parse_ais_csv(source: Source, has_labels: bool | None = None) -> TrackDataset:
    """Parse a CSV of position reports into a TrackDataset.

    ``has_labels`` forces the presence (True) or absence (False) of the vid
    column; None accepts either, keyed off the header.
    """
    text = _read_text(source)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise IngestError("empty input")
    header = [h.strip() for h in rows[0]]
    if header == list(("vid",) + REQUIRED_COLUMNS):
        labeled = True
    elif header == list(REQUIRED_COLUMNS):
        labeled = False
    else:
        raise IngestError(
            f"line 1: expected columns vid?,{','.join(REQUIRED_COLUMNS)}, got {','.join(header)}")
    if has_labels is True and not labeled:
        raise IngestError("line 1: vid column required but missing")
    if has_labels is False and labeled:
        raise IngestError("line 1: unexpected vid column")

    raw_t: list[int] = []
    records: list[tuple[float, float, float, float, str | None]] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        expected = 6 if labeled else 5
        if len(row) != expected:
            raise IngestError(f"line {line_no}: expected {expected} fields, got {len(row)}")
        vid = row[0] if labeled else None
        if labeled and not vid:
            raise IngestError(f"line {line_no}: empty vid")
        offset = 1 if labeled else 0
        seconds = _parse_timestamp(row[offset].strip(), line_no)
        try:
            lat = float(row[offset + 1])
            lon = float(row[offset + 2])
            sog = float(row[offset + 3])
            cog = float(row[offset + 4])
        except ValueError as exc:
            raise IngestError(f"line {line_no}: {exc}") from None
        raw_t.append(seconds)
        records.append((lat, lon, sog, cog, vid))

    if not records:
        raise IngestError("no data rows")
    t0 = min(raw_t)
    points = []
    for line_no, (seconds, rec) in enumerate(zip(raw_t, records), start=2):
        lat, lon, sog, cog, vid = rec
        try:
            points.append(AisPoint(seconds - t0, lat, lon, sog, cog, vid))
        except ValueError as exc:
            raise IngestError(f"line {line_no}: {exc}") from None
    return TrackDataset.from_points(points, epoch=str(t0))


def write_ais_csv(ds: TrackDataset, dest: Union[str, Path, TextIO]) -> None:
    """Emit a dataset in the same schema parse_ais_csv accepts.

    Floats are written with shortest round-trip formatting, so a
    parse -> write -> parse cycle reproduces the fields exactly.
    """
    own = isinstance(dest, (str, Path))
    handle = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        writer = csv.writer(handle, lineterminator="\n")
        labeled = ds.has_vids()
        header = (("vid",) if labeled else ()) + REQUIRED_COLUMNS
        writer.writerow(header)
        for i in range(len(ds)):
            row = [str(int(ds.t[i])), repr(float(ds.lat[i])), repr(float(ds.lon[i])),
                   repr(float(ds.sog[i])), repr(float(ds.cog[i]))]
            if labeled:
                row.insert(0, ds.vids[i])
            writer.writerow(row)
    finally:
        if own:
            handle.close()
