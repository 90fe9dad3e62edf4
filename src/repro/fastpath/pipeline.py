"""The document stages of every run: scan -> materialize.

:class:`DocumentPass` is what stands between input bytes and the executors
for one document, whoever drives it -- a solo run (one slot), the
multi-query engine (N slots) or the subscription hub (a churning slot set):
the bytes-native scanner (:mod:`repro.fastpath.scanner`, tokenizing,
coalescing and projecting in one loop through the run's
:class:`~repro.pipeline.fanout.DynamicFanout`) followed by the lazy
materialization of the surviving struct-of-arrays rows into
:class:`~repro.xmlstream.events.Event` objects -- the executor boundary.
Every step returns one event list per fanout slot.

Push callers :meth:`~DocumentPass.feed` chunks cut anywhere and then
:meth:`~DocumentPass.finish`; pull callers iterate
:meth:`~DocumentPass.scan`, which walks the source (in place for buffers
and files) and ends through the same :meth:`~DocumentPass.finish` -- so
end-of-input errors are identical in every run shape by construction.

Statistics protocol: the pass is the only place input is counted.  Every
``RunStatistics`` in ``stats_list`` -- one per live seat, filtered or
not -- records the pass's *pre-drop* totals (the rule of the
:mod:`~repro.fastpath.scanner` docstring), so every seat of one pass
reports the same ``input_events``/``input_bytes``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.fastpath.scanner import ByteScanner
from repro.obs.tracer import NULL_TRACER
from repro.xmlstream.errors import XMLWellFormednessError
from repro.xmlstream.events import Event
from repro.xmlstream.source import DocumentSource


class DocumentPass:
    """One document through scan -> materialize, fanned out per slot.

    ``fanout`` is the shared union automaton -- tag table, flat transition
    table and membership masks, warm across documents.  ``base_offset`` is
    the stream offset of the document's first byte, so located errors of
    document N of a feed are stream-absolute.  With ``stop_at_root_close`` the pass parses exactly
    one document and parks anything fed past the root's close tag
    (:meth:`take_remainder`) -- the substrate of continuous feeds.  Each
    step opens a ``scan`` and a ``materialize`` span on ``tracer``, each
    carrying its batch's ``events`` counter.
    """

    __slots__ = (
        "_scanner",
        "_fanout",
        "_stats",
        "_finished",
        "_tracer",
    )

    def __init__(
        self,
        fanout,
        stats_list=(),
        *,
        expand_attrs: bool = False,
        stop_at_root_close: bool = False,
        base_offset: int = 0,
        tracer=NULL_TRACER,
    ):
        self._fanout = fanout
        self._scanner = ByteScanner(
            fanout,
            stop_at_root_close=stop_at_root_close,
            expand_attrs=expand_attrs,
            base_offset=base_offset,
        )
        self._stats = list(stats_list)
        self._finished = False
        self._tracer = tracer

    @property
    def pending_bytes(self) -> bool:
        """Whether a fed chunk left a partial UTF-8 sequence pending."""
        return self._scanner.pending_bytes

    @property
    def root_closed(self) -> bool:
        """True once the root element closed (``stop_at_root_close`` mode)."""
        return self._scanner.root_closed

    def take_remainder(self) -> bytes:
        """Bytes fed past the closed root element (the next document's)."""
        return self._scanner.take_remainder()

    def feed(self, data: bytes) -> List[List[Event]]:
        """Stage one chunk; returns, per slot, the events that became complete."""
        if self._finished:
            raise RuntimeError("this pass is finished; open a new one")
        return self._step(self._scanner.feed_batch, data)

    def finish(self) -> List[List[Event]]:
        """Signal end of input; returns (and stages) any remaining events.

        Raises :class:`~repro.xmlstream.errors.XMLWellFormednessError` when
        the document is incomplete.  Input that ends in the middle of a
        multi-byte UTF-8 sequence is one such truncation: it raises (it
        must not decode to U+FFFD or silently drop the partial tail), at
        the offset where the incomplete sequence starts.
        """
        if self._finished:
            return [[] for _ in range(self._fanout.width)]
        self._finished = True
        truncated_at = self._scanner.incomplete_tail_at()
        if truncated_at is not None:
            raise XMLWellFormednessError(
                "truncated document: incomplete UTF-8 sequence at end of input",
                truncated_at,
            )
        return self._step(self._scanner.close_batch)

    def scan(self, document: DocumentSource, chunk_size: int) -> Iterator[List[List[Event]]]:
        """The whole pass over one document source (pull mode)."""
        batches = self._scanner.scan_source(document, chunk_size)
        while (subs := self._step(next, batches, None)) is not None:
            yield subs
        yield self.finish()

    def _step(self, scan, *args) -> Optional[List[List[Event]]]:
        """One ``scan`` call and the materialization of the batch it returns
        (``None`` when it returns none: the source is exhausted)."""
        with self._tracer.span("scan") as span:
            batch = scan(*args)
        if batch is None:
            return None
        # ``scan``'s event count is pre-drop (``batch.seen``),
        # ``materialize``'s is the survivors: the per-stage table reads as
        # a selectivity funnel.
        span.add("events", batch.seen)
        if batch.bulk:
            span.add("bulk_bytes", batch.bulk)
        # Every event costs bytes, but bytes may come without an event: text
        # continuing the previous batch's text node.
        if batch.cost:
            for stats in self._stats:
                stats.record_input(batch.seen, batch.cost)
        with self._tracer.span("materialize") as span:
            if self._fanout.width == 1:
                # The only seat is the only possible recipient, so the
                # mask-free materializer is exact (solo runs live on it).
                subs = [batch.materialize()]
            else:
                subs = batch.materialize_split(self._fanout)
        span.add("events", sum(map(len, subs)))
        return subs


__all__ = ["DocumentPass"]
