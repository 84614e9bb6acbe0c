"""In-memory spans recorded around trackstitch's layer functions.

The traced run replaces each layer function, at the module attribute where
its caller looks it up, with a wrapper that records a span.  ``installed``
puts the original functions back when it exits, so untraced calls run the
library unchanged.  Spans are recorded on the calling thread only: the
wrappers sit at call sites in the main thread, never inside a worker.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator

from trackstitch import cbtr, cli, npc


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; the parent of a span is the one open when it starts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(name, self._clock(),
                      parent=self._open[-1] if self._open else None)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = self._clock()
            self._open.pop()

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``count(args, result)`` adds counts after it ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record.counts.update(count(args, result))
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return [s.duration - _covered(s, kids) for s, kids in zip(spans, children)]


def _covered(parent: Span, kids: list[Span]) -> float:
    total = 0.0
    reach = parent.start
    for start, end in sorted((k.start, k.end) for k in kids):
        start = max(start, reach)
        end = min(end, parent.end)
        if end > start:
            total += end - start
            reach = end
    return total


def _parse_counts(args, result) -> dict:
    return {"bytes_in": os.path.getsize(args[0])}


def _link_counts(args, result) -> dict:
    return {"reports": len(result.targets),
            "linked": int((result.targets >= 0).sum())}


def _grouping_counts(args, result) -> dict:
    # computed: the dense n x n feature distances one grouping call evaluates
    return {"distance_cells": len(args[0]) ** 2}


# (module, attribute, span name, counter); the module is where the caller
# looks the function up, so cbtr's stages are patched inside cbtr itself
LAYER_POINTS = (
    (cli, "parse_ais_csv", "ingest.parse", _parse_counts),
    (cbtr, "build_links", "cbtr.build_links", _link_counts),
    (cbtr, "detect_abnormal", "cbtr.detect_abnormal",
     lambda args, r: {"rescued": len(r.rescued_turns)}),
    (cbtr, "assemble_clusters", "cbtr.assemble_clusters",
     lambda args, r: {"severed": len(r.abnormal)}),
    (cli, "build_report", "metrics.report", None),
    (cli, "export_geojson", "export.geojson", None),
    (cli, "export_label_timeline", "export.svg", None),
    (cli, "npc_grouping_targets", "npc.grouping", _grouping_counts),
    (npc, "npc_grouping_targets", "npc.grouping", _grouping_counts),
    (cli, "npc_cluster", "npc.cluster", None),
    (cli, "npc_classify", "npc.classify", None),
    (cli, "write_ais_csv", "ingest.write", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route every layer call through ``tracer`` until the block exits."""
    saved = []
    try:
        for module, attr, name, count in LAYER_POINTS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, count))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
