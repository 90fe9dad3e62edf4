"""The unified Sink protocol: where a run's serialized result goes.

The seed engine joined every run's output into one giant string.  The sink
hierarchy decouples *producing* output from *materializing* it, and is the
single answer to "where does the output go?" across the whole public API
(:meth:`PreparedQuery.execute(..., sink=...)
<repro.core.session.PreparedQuery.execute>` and its other verbs, ``sinks=``
per member of a ``prepare_many`` set, the hub and the CLI):

* :class:`OutputSink` -- base class; counts output events/bytes and discards
  the text.
* :class:`NullSink` -- "count only, keep nothing": the run's statistics
  without its output text (``result.output`` is ``None``).
* :class:`CollectSink` -- accumulates fragments and joins them once at the
  end of the run (the classic ``result.output`` behaviour).
* :class:`WritableSink` -- pushes every fragment straight into a writable
  object (an open file, a socket wrapper, ``sys.stdout``); nothing is
  retained, so output far larger than main memory streams through flat.
* :class:`FragmentSink` -- holds fragments only until the driver drains them;
  streaming iteration (:meth:`~repro.core.session.PreparedQuery.stream`)
  and the push-mode :class:`~repro.engine.engine.RunHandle` use it to hand
  serialized fragments back incrementally.

All sinks implement the tiny writer protocol the XQuery⁻ evaluator and the
stream executor use: ``write_text`` (pre-serialized markup), ``write_event``
(one SAX event) and ``write_events`` (a subtree's events as one fragment).

Sinks can be constructed *unbound* (without statistics) by API users --
``prepared.execute(doc, sink=CollectSink())`` -- and are bound to the run's
:class:`~repro.engine.stats.RunStatistics` via :meth:`OutputSink.bind` when
execution starts.  :func:`resolve_sink` is the one place the public API
turns a sink argument (``None``, a writable object, or a sink instance)
into a bound sink.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.engine.stats import RunStatistics
from repro.xmlstream.events import Event, RawContent
from repro.xmlstream.serializer import serialize_event


class OutputSink:
    """Counts (and by default discards) produced output."""

    __slots__ = ("stats",)

    def __init__(self, stats: Optional[RunStatistics] = None):
        self.stats = stats if stats is not None else RunStatistics()

    def bind(self, stats: RunStatistics) -> "OutputSink":
        """Attach the run's statistics and reset any per-run state.

        Binding happens at the start of every execution a sink is passed
        to, so reusing one sink instance across runs starts each run
        clean -- a :class:`CollectSink` never leaks the previous run's
        output into the next ``result.output``.
        """
        self.stats = stats
        self._reset()
        return self

    def _reset(self) -> None:
        """Drop per-run state (subclass hook; base sinks keep none)."""

    # -------------------------------------------------------------- protocol

    def write_text(self, text: str) -> None:
        """Emit a fixed string (already-serialized markup)."""
        if not text:
            return
        self.stats.record_output(0, len(text))
        self._emit(text)

    def write_event(self, event: Event) -> None:
        """Emit one SAX event (raw content counts as the events it stands for)."""
        rendered = serialize_event(event)
        self.stats.record_output(
            event.count if event.__class__ is RawContent else 1, len(rendered)
        )
        self._emit(rendered)

    def write_events(self, events: Iterable[Event]) -> None:
        """Emit a sequence of SAX events as one serialized fragment."""
        count = 0
        parts = []
        for event in events:
            if event.__class__ is RawContent:
                # Already its events' serialisation: written as it is.
                count += event.count
                parts.append(event.text)
            else:
                count += 1
                parts.append(serialize_event(event))
        if parts:
            rendered = "".join(parts)
            self.stats.record_output(count, len(rendered))
            self._emit(rendered)

    def text(self) -> Optional[str]:
        """The collected output; ``None`` for non-collecting sinks."""
        return None

    # ------------------------------------------------------------- subclass

    def _emit(self, rendered: str) -> None:
        """Receive one serialized fragment (base class: discard)."""


class NullSink(OutputSink):
    """Counts output events/bytes, retains nothing.

    Pass it as a run's sink when only the statistics of the run matter.
    """

    __slots__ = ()


class CollectSink(OutputSink):
    """Accumulates all fragments; ``text()`` joins them once."""

    __slots__ = ("_parts",)

    def __init__(self, stats: Optional[RunStatistics] = None):
        super().__init__(stats)
        self._parts: List[str] = []

    def _emit(self, rendered: str) -> None:
        self._parts.append(rendered)

    def _reset(self) -> None:
        self._parts.clear()

    def text(self) -> Optional[str]:
        return "".join(self._parts)


class WritableSink(OutputSink):
    """Forwards every fragment to a writable object immediately.

    The run's peak memory stays independent of the output size: fragments
    are handed to ``writable.write`` as they are produced and never retained.
    """

    __slots__ = ("_write",)

    def __init__(self, stats=None, writable=None) -> None:
        # Both ``WritableSink(stats, handle)`` (the engine-internal spelling)
        # and ``WritableSink(handle)`` (an unbound user-constructed sink,
        # bound to the run's statistics by resolve_sink) are accepted.
        if writable is None and stats is not None and hasattr(stats, "write"):
            stats, writable = None, stats
        if writable is None:
            raise TypeError("WritableSink requires an object with a write(str) method")
        super().__init__(stats)
        self._write = writable.write

    def _emit(self, rendered: str) -> None:
        self._write(rendered)


class FragmentSink(OutputSink):
    """Buffers fragments only until the driver drains them.

    ``drain()`` hands back everything produced since the previous drain as a
    single string; the streaming API calls it once per input batch, so the
    pending output is bounded by what one chunk of input can produce.
    """

    __slots__ = ("_parts",)

    def __init__(self, stats: Optional[RunStatistics] = None):
        super().__init__(stats)
        self._parts: List[str] = []

    def _emit(self, rendered: str) -> None:
        self._parts.append(rendered)

    def _reset(self) -> None:
        self._parts.clear()

    def drain(self) -> str:
        """Return (and forget) the pending output fragments."""
        if not self._parts:
            return ""
        joined = "".join(self._parts)
        self._parts.clear()
        return joined


def resolve_sink(target, stats: RunStatistics) -> OutputSink:
    """Turn a public-API ``sink`` argument into a bound :class:`OutputSink`.

    * ``None`` -- a :class:`CollectSink`: the classic ``result.output``
      behaviour,
    * an :class:`OutputSink` instance -- used as-is, bound to ``stats``,
    * anything with a ``write(str)`` method -- wrapped in a
      :class:`WritableSink`.
    """
    if target is None:
        return CollectSink(stats)
    if isinstance(target, OutputSink):
        return target.bind(stats)
    if hasattr(target, "write"):
        return WritableSink(stats, target)
    raise TypeError(
        f"sink must be None, an OutputSink, or a writable object; got {target!r}"
    )
