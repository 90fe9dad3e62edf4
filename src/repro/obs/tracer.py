"""The span tracer: monotonic-clock timing with parent/child structure.

A :class:`Tracer` records *spans* -- named, nested time intervals with
optional integer counters -- into a flat append-only list of
:class:`SpanRecord` rows.  ``tracer.span("tokenize")`` is a context
manager; spans opened while another span is active become its children
(the record keeps the parent's index), so the finished list is a
serialized tree that the exporters (:mod:`repro.obs.export`) and the
well-formedness tests can reconstruct without the tracer keeping any
linked structure alive.

Overhead discipline -- the whole point of this module:

* the **enabled** tracer costs two ``perf_counter`` calls plus one list
  append per span; counters are plain dict adds.  Spans are meant to wrap
  *batches and runs*, never individual events.
* the **disabled** path is the :data:`NULL_TRACER` singleton: its
  ``span`` returns one shared no-op context manager whose record reads
  ``0.0`` seconds.  The engine's batch loops are written once and always
  open their spans and bump their ``events`` counters; with tracing off
  those are a handful of no-op calls per *batch* (64 KiB of input by
  default), never per event; the perf harness's ``trace_overhead`` row
  reports the traced cost.  The stage table is computed from these spans
  (:func:`~repro.obs.observer.stage_table`).

The clock is injectable (``Tracer(clock=...)``) so the exporter golden
tests can produce deterministic timings.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from . import recorder as _recorder


class SpanRecord:
    """One finished (or still-open) span: an interval in the span tree.

    ``parent`` is the index of the enclosing span in the owning tracer's
    ``records`` list, ``-1`` for roots.  ``end`` stays ``None`` while the
    span is open; a well-formed trace has no open spans once the run is
    over.
    """

    __slots__ = ("name", "index", "parent", "start", "end", "counters")

    def __init__(self, name: str, index: int, parent: int, start: float):
        self.name = name
        self.index = index
        self.parent = parent
        self.start = start
        self.end: Optional[float] = None
        self.counters: Dict[str, int] = {}

    @property
    def seconds(self) -> float:
        """The span's duration (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def add(self, counter: str, value: int = 1) -> None:
        """Bump one of the span's named counters."""
        self.counters[counter] = self.counters.get(counter, 0) + value

    def to_dict(self) -> dict:
        """A JSON-ready row (used by the JSON-lines exporter)."""
        row = {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
        }
        if self.counters:
            row["counters"] = dict(self.counters)
        return row


class _ActiveSpan:
    """Context manager binding one open :class:`SpanRecord` to its tracer."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record

    def add(self, counter: str, value: int = 1) -> None:
        self.record.add(counter, value)

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._exit(self.record)


class Tracer:
    """Records a tree of timed spans for one run."""

    __slots__ = ("records", "_stack", "_clock")
    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        #: Flat span list in *start* order; parents precede their children.
        self.records: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []
        self._clock = clock

    def span(self, name: str) -> _ActiveSpan:
        """Open a child span of the currently-active span (or a root)."""
        parent = self._stack[-1].index if self._stack else -1
        record = SpanRecord(name, len(self.records), parent, self._clock())
        self.records.append(record)
        self._stack.append(record)
        return _ActiveSpan(self, record)

    def _exit(self, record: SpanRecord) -> None:
        if not self._stack or self._stack[-1] is not record:
            # Crossing spans cannot arise from context-manager use; failing
            # loudly here is what the well-formedness tests lean on.
            raise RuntimeError(
                f"span {record.name!r} exited out of order "
                f"(open: {[span.name for span in self._stack]})"
            )
        self._stack.pop()
        record.end = self._clock()
        # Span transitions feed the always-on flight recorder ring (traced
        # runs only -- the NullTracer never reaches this method).
        _recorder.RECORDER.note("span", record.name, record.end - record.start)

    @property
    def open_spans(self) -> int:
        """Number of spans entered but not yet exited."""
        return len(self._stack)

    def add(self, counter: str, value: int = 1) -> None:
        """Bump a counter on the innermost open span (no-op outside spans)."""
        if self._stack:
            self._stack[-1].add(counter, value)


class _NullRecord:
    """What a disabled span measured: nothing."""

    __slots__ = ()
    seconds = 0.0


class _NullSpan:
    """The shared do-nothing span of the disabled tracer."""

    __slots__ = ()
    record = _NullRecord()

    def add(self, counter: str, value: int = 1) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every span is the shared no-op."""

    __slots__ = ()
    enabled = False
    records: tuple = ()
    open_spans = 0

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def add(self, counter: str, value: int = 1) -> None:
        pass


#: The process-wide disabled tracer (stateless, safe to share).
NULL_TRACER = NullTracer()


def validate_span_tree(records) -> List[str]:
    """Structural well-formedness violations of a finished span list.

    Returns human-readable problem descriptions (empty = well-formed):
    every span must have an exit (``end``), children must nest strictly
    inside their parent's interval, and parents must precede children.
    """
    problems: List[str] = []
    for record in records:
        if record.end is None:
            problems.append(f"span {record.index} ({record.name!r}) was never exited")
            continue
        if record.end < record.start:
            problems.append(f"span {record.index} ({record.name!r}) ends before it starts")
        if record.parent >= 0:
            if record.parent >= record.index:
                problems.append(
                    f"span {record.index} ({record.name!r}) precedes its parent {record.parent}"
                )
                continue
            parent = records[record.parent]
            if parent.end is not None and (
                record.start < parent.start or record.end > parent.end
            ):
                problems.append(
                    f"span {record.index} ({record.name!r}) crosses its parent "
                    f"{parent.index} ({parent.name!r})"
                )
    return problems
