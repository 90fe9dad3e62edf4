"""The FluX compile step and the one run handle.

The paper splits FluX into compiling and evaluating.  :class:`FluxEngine`
is the compile step, which depends only on query and schema:

1. parse the XQuery⁻ query,
2. normalise it (Figure 1) and apply the Section-7 simplifications,
3. schedule it into a safe FluX query using the DTD (Figure 2),
4. compile the FluX query into an executable plan (buffer trees, handlers,
   punctuation tables) plus the pre-executor projection filter.

The engine can equally be constructed from an already-built FluX query
(hand-written or produced elsewhere); it then starts at step 4.  It has
no run verbs: a session's prepared query runs it.

Evaluation is a :class:`RunHandle`, *N seats wide*, over one
:class:`~repro.fastpath.scanner.ByteScanner`.  It is the only site that
scans, materializes and executes a batch, builds executors, settles who
owns the memory governor, aborts, writes the crash dump, seals the
result and folds statistics into the global telemetry, so every
execution shape behaves the same by construction.
Two callers open handles:

* a :class:`~repro.core.session.PreparedQuery` -- one seat per member
  query, whatever the verb (``execute``, ``stream``, ``open_run``,
  ``open_feed``; a feed opens one handle per document),
* the :class:`~repro.serve.hub.SubscriptionHub` -- one handle per
  document, one seat per subscription.

The result shape is decided where the run seals: a single unnamed seat
gives its :class:`FluxRunResult`, named seats give one
:class:`MultiQueryRun`.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.dtd.schema import DTD, ROOT_ELEMENT
from repro.engine.executor import StreamExecutor
from repro.engine.plan import QueryPlan, compile_plan
from repro.engine.stats import RunStatistics
from repro.fastpath import ByteScanner
from repro.flux.ast import FluxExpr
from repro.flux.rewrite import RewriteResult, rewrite_to_flux
from repro.obs import recorder as _flight
from repro.obs import serve as _serve
from repro.obs.export import append_jsonl
from repro.obs.observer import TraceReport, stage_table, use_tracing
from repro.obs.runtime import record_runs
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.pipeline.fanout import DynamicFanout
from repro.pipeline.projection import ProjectionSpec
from repro.pipeline.sinks import resolve_sink
from repro.storage.governor import MemoryGovernor
from repro.storage.spill import SpillError
from repro.xmlstream.source import DocumentSource, iter_byte_chunks
from repro.xquery.analysis import free_variables
from repro.xquery.ast import ROOT_VARIABLE, XQExpr
from repro.xquery.errors import XQueryError
from repro.xquery.parser import parse_query


@dataclass
class FluxRunResult:
    """Result of running a query: output text (optional) plus statistics.

    ``trace`` carries the per-stage :class:`~repro.obs.observer.TraceReport`
    of the run that produced it when that run executed with tracing on
    (``ExecutionOptions(trace=True)`` or ``REPRO_TRACE=1``); ``None``
    otherwise.
    """

    output: Optional[str]
    stats: "RunStatistics"
    trace: Optional[TraceReport] = None

    @property
    def peak_buffered_events(self) -> int:
        """Convenience accessor used throughout the examples and benches."""
        return self.stats.peak_buffered_events

    @property
    def peak_buffered_bytes(self) -> int:
        """Convenience accessor used throughout the examples and benches."""
        return self.stats.peak_buffered_bytes


class MultiQueryRun:
    """Per-query results of one shared pass, keyed by query name."""

    def __init__(
        self,
        results: Dict[str, FluxRunResult],
        elapsed_seconds: float,
        memory: Optional[dict] = None,
        trace: Optional[TraceReport] = None,
    ):
        self.results = results
        #: Wall-clock time of the whole shared pass (all queries together).
        self.elapsed_seconds = elapsed_seconds
        #: Shared memory-governor telemetry (budget, peak resident, spills)
        #: when the pass ran under a memory budget; ``None`` otherwise.
        self.memory = memory
        #: Pass-level :class:`~repro.obs.observer.TraceReport` (the shared
        #: scan and materialize vs. the N-executor fan-out) for traced
        #: passes; ``None`` otherwise.
        self.trace = trace

    def __getitem__(self, name: str) -> FluxRunResult:
        return self.results[name]

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def items(self):
        return self.results.items()

    def outputs(self) -> Dict[str, Optional[str]]:
        """Mapping name -> collected output text."""
        return {name: result.output for name, result in self.results.items()}


#: What a sealed run yields: one unnamed seat's result, or every named
#: seat's results of one shared pass.
RunResult = Union[FluxRunResult, MultiQueryRun]


#: Monotone run ids for the ``REPRO_OBS_JSON`` dump (process-wide).
_obs_run_ids = itertools.count()

#: One seat of a run: ``(plan, sink, name)``.  ``sink`` follows
#: :func:`~repro.pipeline.sinks.resolve_sink`; ``name`` labels the seat in
#: crash dumps (``None`` for a solo run).
Seat = Tuple[QueryPlan, object, Optional[str]]


class _LiveSeat(NamedTuple):
    """An occupied seat of an open run."""

    index: int
    name: Optional[str]
    executor: StreamExecutor


def _release_nothing() -> None:
    """The release hook of an owner that borrowed its governor (or has none)."""


def governor_for(owner, options: ExecutionOptions, governor: Optional[MemoryGovernor] = None):
    """The one ownership rule: ``(governor, release)`` for ``owner``.

    An injected ``governor`` is *borrowed*: ``release`` does nothing and the
    governor survives its borrower.  Without one, ``owner`` gets the governor
    its ``options`` budget asks for (``None`` when unbounded) and *owns* it:
    ``release`` closes it (spill file included) exactly once, and runs by
    itself if ``owner`` is garbage-collected first -- the finalizer references
    only the governor, never the owner.
    """
    if governor is not None or options.memory_budget is None:
        return governor, _release_nothing
    owned = MemoryGovernor(options.memory_budget)
    return owned, weakref.finalize(owner, owned.close)


def _quiet_abort(seats: Sequence[_LiveSeat]) -> None:
    """Best-effort executor teardown for abandoned runs.

    Releases live scope buffers so a *borrowed* (session-owned) governor
    gets its pages and spill-store space back.  Exceptions are swallowed:
    this runs from close()/GC paths that must never mask the original error.
    """
    for seat in seats:
        try:
            seat.executor.abort()
        except Exception:  # noqa: BLE001 - cleanup of an already-failing run
            pass


def ensure_rooted(dtd: DTD, root_element: Optional[str] = None) -> DTD:
    """Attach the virtual document root to a DTD that lacks one.

    Compilation (the engine, the session) always works against a rooted
    DTD; this is the single place the rooting rules live.
    """
    if ROOT_ELEMENT in dtd:
        return dtd
    if root_element is None:
        root_element = dtd.root_element
    if root_element is None:
        raise ValueError(
            "the DTD does not declare a document root; pass root_element=..."
        )
    return dtd.with_root(root_element)


class RunHandle:
    """One in-flight execution over one document, one seat per query.

    ``fanout`` is the union automaton the document is scanned through and
    ``seats`` holds one :data:`Seat` per fanout position (``None`` for a
    tombstoned one): a solo run has one seat, a multi-query pass one per
    query of the set, a hub document one per subscription.  An injected
    ``governor`` is *borrowed* and survives the run; without one the run
    creates its own from ``options`` and closes it when it ends.
    Located errors count from ``base_offset``; ``stop_at_root_close`` ends
    the document at its root's close tag and parks the rest
    (:meth:`take_remainder`) -- the substrate of continuous feeds.

    A prepared query's ``open_run`` hands the handle to the caller (**push
    mode** -- typically a network loop handing over payload chunks as they
    arrive)::

        with prepared.open_run() as run:
            for chunk in socket_chunks:
                run.feed(chunk)
        print(run.result.output)

    while its ``execute`` and ``stream`` open the same handle and
    :meth:`drive` it from a document source themselves.

    ``feed`` accepts text or UTF-8 bytes split at arbitrary points (the
    scanner is resumable across chunk boundaries) and returns the
    output drained from the first seat's sink so far when that sink
    supports draining (a :class:`~repro.pipeline.sinks.FragmentSink`),
    ``None`` otherwise.  Each batch of ``feed``, of the pull loop and of
    ``finish`` goes through one :meth:`_step`.  ``finish``, the only place
    a document is closed, flushes the final events, validates
    well-formedness and seals one :class:`FluxRunResult` per seat into
    :attr:`results`; :attr:`result` is the single unnamed seat's result,
    or a :class:`MultiQueryRun` over named seats.  The context manager
    finishes on a clean exit and aborts (``close``) on an exception.  Any
    failure aborts every seat, writes the crash dump (naming the seat
    whose executor raised) and re-raises.  :attr:`stats` -- the first
    seat's statistics -- is live throughout.

    A run that owns its governor releases the spill file when it finishes
    or is closed, and additionally via a garbage-collection finalizer, so
    a handle that is dropped unfinished cannot leak it.
    """

    def __init__(
        self,
        fanout: DynamicFanout,
        seats: Sequence[Optional[Seat]],
        options: Optional[ExecutionOptions] = None,
        *,
        governor: Optional[MemoryGovernor] = None,
        mode: str = "push",
        on_finish=None,
        stop_at_root_close: bool = False,
        base_offset: int = 0,
        annotations: Optional[dict] = None,
    ):
        self._opened_at = time.perf_counter()
        options = options if options is not None else DEFAULT_OPTIONS
        self._options = options
        #: ``pull`` / ``stream`` / ``push`` / ``multiquery`` / ``serve``: a
        #: label for reports, crash dumps and telemetry -- the code is the same.
        self._mode = mode
        self._on_finish = on_finish
        # Caller-supplied watermarks (a feed's exact document offsets);
        # merged into /progress snapshots and crash dumps verbatim.
        self._annotations = annotations
        self._state = "open"
        # Watermarks: raw units fed (bytes or characters, as fed) and the
        # most recent chunk boundaries, for /progress and for the flight
        # recorder's crash dumps; ``_pushed`` once :meth:`feed` is called.
        self._fed_bytes = 0
        self._chunks_fed = 0
        self._chunk_offsets = deque(maxlen=256)
        self._pushed = False
        self._governor, self._release_governor = governor_for(self, options, governor)
        self._tracer = Tracer() if use_tracing(options.trace) else NULL_TRACER
        self._width = len(seats)
        if self._width != fanout.width:
            raise ValueError(f"{self._width} seats for a fanout {fanout.width} slots wide")
        #: The occupied seats, in seat order.
        self._live: List[_LiveSeat] = []
        for index, seat in enumerate(seats):
            if seat is None:
                continue
            plan, sink, name = seat
            stats = RunStatistics()
            executor = StreamExecutor(
                plan,
                stats=stats,
                sink=resolve_sink(sink, stats),
                governor=self._governor,
            )
            self._live.append(_LiveSeat(index, name, executor))
        #: The first seat's live statistics.  A run without any seat (an
        #: idle hub document) still records the document's input here.
        self.stats: RunStatistics = (
            self._live[0].executor.stats if self._live else RunStatistics()
        )
        self._seat_stats = [seat.executor.stats for seat in self._live]
        # The run counts the document's input for every seat (:meth:`_step`).
        self._counted = self._seat_stats or [self.stats]
        self._scanner = ByteScanner(
            fanout,
            stop_at_root_close=stop_at_root_close,
            expand_attrs=options.expand_attrs,
            base_offset=base_offset,
        )
        #: Per-seat results (``None`` for an empty seat), the sealed result,
        #: the pass-level trace and the governor's telemetry; all set by
        #: :meth:`finish`.
        self.results: List[Optional[FluxRunResult]] = []
        self.result: Optional[RunResult] = None
        self.trace: Optional[TraceReport] = None
        self.memory: Optional[dict] = None
        self._drain = getattr(self._live[0].executor.sink, "drain", None) if self._live else None
        # The seat whose executor is running; what is left here when an
        # exception escapes is the failing seat.
        self._failing: Optional[_LiveSeat] = None
        # Like the governor's release hook, the finalizer references the
        # executors, never the handle itself, so it cannot keep it alive, and
        # it is idempotent.  An unclosed, garbage-collected handle still
        # releases its live buffers (borrowed governor) and its owned
        # governor's spill file.
        self._abort_finalizer = weakref.finalize(self, _quiet_abort, self._live)
        # Every open run is visible on /progress (whether or not a server
        # is listening, registration is one dict insert).
        self._progress_key = _serve.register_run(self.progress)
        # ``begin``/``finish`` run in ``execute`` spans too (seconds, no
        # batch), so end-of-document handler work (e.g. Q8's final joins)
        # is attributed -- that is what lets the stage sum track wall time.
        try:
            with self._tracer.span("execute"):
                for self._failing in self._live:
                    self._failing.executor.begin()
            self._failing = None
        except Exception as exc:
            self._abort(exc)
            raise
        _flight.RECORDER.note("run-begin", mode)

    # ------------------------------------------------------------- progress

    def progress(self) -> dict:
        """One JSON-ready watermark snapshot (what ``/progress`` shows).

        Input columns are the shared document's; output and buffer columns
        sum over seats.
        """
        seats = self._counted
        entry = {
            "mode": self._mode,
            "state": self._state,
            "bytes_fed": self._fed_bytes,
            "chunks_fed": self._chunks_fed,
            "document_offset": self.stats.input_bytes,
            "input_events": self.stats.input_events,
            "output_events": sum(stats.output_events for stats in seats),
            "output_bytes": sum(stats.output_bytes for stats in seats),
            "buffered_bytes": sum(stats.buffered_bytes_current for stats in seats),
            "peak_buffered_bytes": sum(stats.peak_buffered_bytes for stats in seats),
        }
        if self._annotations:
            entry.update(self._annotations)
        attributions = [stats.attribution for stats in seats if stats.attribution is not None]
        if attributions:
            owners = entry["owners"] = {}
            for attribution in attributions:
                for owner in attribution.owners.values():
                    owners[owner.variable] = owners.get(owner.variable, 0) + owner.live_bytes
        if self._tracer.enabled:
            entry["stages"] = {
                stage.name: {
                    "seconds": stage.seconds,
                    "events": stage.events,
                    "throughput_events_per_s": (
                        stage.events / stage.seconds if stage.seconds > 0 else 0.0
                    ),
                }
                for stage in stage_table(self._tracer.records)
            }
        return entry

    # --------------------------------------------------------------- framing

    @property
    def root_closed(self) -> bool:
        """True once the root element closed (``stop_at_root_close`` runs)."""
        return self._scanner.root_closed

    def take_remainder(self) -> bytes:
        """Bytes fed past the closed root element (the next document's)."""
        return self._scanner.take_remainder()

    # ----------------------------------------------------------------- feed

    def _abort(self, error: BaseException) -> None:
        """A failed run: forensics for engine errors, then release everything."""
        if isinstance(error, Exception):
            # The dump reports charged buffer totals, so charge what the
            # failed batch appended first -- unless that admission fails
            # again on spill I/O, which must not mask the run's own error.
            for seat in self._live:
                with contextlib.suppress(SpillError):
                    seat.executor.buffers.flush()
            stats, context = self.stats, self._annotations
            if self._failing is not None:
                stats = self._failing.executor.stats
                if self._failing.name is not None:
                    context = dict(context or {}, failed_seat=self._failing.name)
            _flight.dump_crash(
                error,
                stats=stats,
                options=self._options,
                mode=self._mode,
                chunk_offsets=self._chunk_offsets,
                queries=[seat.name for seat in self._live if seat.name is not None],
                context=context,
            )
        self.close()

    def _step(self, scan, *args) -> None:
        """One batch through the run: scan, count, materialize, execute."""
        with self._tracer.span("scan") as span:
            batch = scan(*args)
        # ``scan``'s event count is pre-drop (``batch.seen``),
        # ``materialize``'s is the survivors: the per-stage table reads as
        # a selectivity funnel.
        span.add("events", batch.seen)
        if batch.bulk:
            span.add("bulk_bytes", batch.bulk)
        # Every event costs bytes, but bytes may come without an event: text
        # continuing the previous batch's text node.
        seen, cost = batch.seen, batch.cost
        if cost:
            for stats in self._counted:
                stats.record_input(seen, cost)
        with self._tracer.span("materialize") as span:
            if self._width == 1:
                # The only seat is the only possible recipient, so the
                # mask-free materializer is exact (solo runs live on it).
                subs = [batch.materialize()]
            else:
                subs = batch.materialize_split(self._scanner.fanout)
        span.add("events", sum(map(len, subs)))
        if any(subs):
            events = executed = 0
            with self._tracer.span("execute") as span:
                for seat in self._live:
                    sub = subs[seat.index]
                    if sub:
                        self._failing = seat
                        events += len(sub)
                        seat.executor.process_batch(sub)
                        executed += seat.executor.batch_events
            self._failing = None
            span.add("events", events)
            if executed:
                # One ring entry per batch for all seats: the events they
                # executed, the first seat's buffered bytes and position.
                depth, scope = self._live[0].executor.position()
                _flight.RECORDER.note_batch(
                    executed, self.stats.input_bytes, self.stats.buffered_bytes_current, depth, scope
                )

    def feed(self, chunk) -> Optional[str]:
        """Execute one more chunk of the document (text or UTF-8 bytes).

        Returns the newly-produced output when the sink is drainable,
        ``None`` otherwise.  A parse or execution error aborts the run
        (resources are released) and re-raises -- except the text-after-
        partial-UTF-8 guard below, which raises *before* anything is
        consumed, so the run stays open and feeding the remaining bytes
        recovers it.
        """
        if self._state != "open":
            raise RuntimeError(f"cannot feed a {self._state} run")
        size = len(chunk)
        if isinstance(chunk, str):
            if self._scanner.pending_bytes:
                raise ValueError(
                    "cannot feed text while a partial UTF-8 sequence from a "
                    "previous byte chunk is pending; feed the remaining bytes first"
                )
            data = chunk.encode("utf-8")
        else:
            data = bytes(chunk)
        self._pushed = True
        try:
            self._feed_chunk(data, size)
        except Exception as exc:
            self._abort(exc)
            raise
        return self._drain() if self._drain is not None else None

    def _feed_chunk(self, data: bytes, size: int) -> None:
        """One chunk through the run, for :meth:`feed` and the pull loop alike."""
        self._chunk_offsets.append(self._fed_bytes + size)
        _flight.RECORDER.note("chunk", size, self._fed_bytes + size)
        self._step(self._scanner.feed_batch, data)
        self._fed_bytes += size
        self._chunks_fed += 1

    def drain(self) -> str:
        """Pending output of a drainable sink (e.g. the tail produced by
        ``finish``); the empty string for non-drainable sinks."""
        return self._drain() if self._drain is not None else ""

    def _drive(self, document: DocumentSource) -> Iterator[None]:
        """Pull one whole document through the run, then finish it.

        The one pull loop: it feeds the source's byte chunks to the scanner
        like :meth:`feed` does, pausing (yielding) after every chunk and
        once more after ``finish``, which is when a stream drains its sink.
        Spans never enclose a ``yield``, so an abandoned stream leaves none
        open; abandoning the generator aborts the run like any failure, and
        a file source is closed however the loop ends.
        """
        try:
            chunks = iter_byte_chunks(document, self._options.chunk_size)
            with contextlib.closing(chunks):
                for chunk in chunks:
                    self._feed_chunk(chunk, len(chunk))
                    yield
        except BaseException as exc:
            self._abort(exc)
            raise
        self.finish()
        yield

    def drive(self, document: DocumentSource) -> "RunHandle":
        """Run the handle to completion over one document source."""
        deque(self._drive(document), maxlen=0)
        return self

    def finish(self) -> Optional[RunResult]:
        """End of input: flush, validate, release resources, seal the results.

        Returns :attr:`result` (``None`` for a run without seats).
        """
        if self._state == "finished":
            return self.result
        if self._state != "open":
            raise RuntimeError("cannot finish a closed run")
        results: List[Optional[FluxRunResult]] = [None] * self._width
        try:
            self._step(self._scanner.close_batch)
            with self._tracer.span("execute"):
                for self._failing in self._live:
                    executor = self._failing.executor
                    results[self._failing.index] = FluxRunResult(executor.finish(), executor.stats)
            self._failing = None
        except Exception as exc:
            self._abort(exc)
            raise
        # The run's one clock reading: every seat and the pass share it.
        elapsed = time.perf_counter() - self._opened_at
        for stats in self._seat_stats:
            stats.elapsed_seconds = elapsed
        self._state = "finished"
        _flight.RECORDER.note("run-finish", self._mode, self.stats.output_bytes)
        if self._governor is not None:
            self.memory = self._governor.telemetry()
        # No live buffers remain: nothing to abort.  Leave /progress and
        # close an owned governor.
        self._abort_finalizer.detach()
        self.close()
        self.trace = self._seal_observation(elapsed)
        self.results = results
        if self.trace is not None:
            for seat in self._live:
                results[seat.index].trace = self.trace
        if len(self._live) == 1 and self._live[0].name is None:
            self.result = results[self._live[0].index]
        elif self._live:
            self.result = MultiQueryRun(
                {seat.name: results[seat.index] for seat in self._live},
                elapsed,
                memory=self.memory,
                trace=self.trace,
            )
        if self._on_finish is not None:
            for stats in self._seat_stats:
                self._on_finish(stats)
        return self.result

    def _seal_observation(self, elapsed: float) -> Optional[TraceReport]:
        """Fold the *completed* run into the always-on global telemetry --
        every seat, traced or not, exactly once -- and, for a traced run,
        build the pass-level :class:`TraceReport` (appended to the
        ``REPRO_OBS_JSON`` JSON-lines dump when that is set).  Aborted runs
        never reach it.
        """
        tracer = self._tracer
        seats = self._seat_stats
        record_runs(seats, traced=tracer.enabled, push=self._pushed)
        if not tracer.enabled:
            return None
        spans = list(tracer.records)
        # Pass-level byte columns: input is the shared document, output the
        # sum over all seats.
        stages = stage_table(
            spans, self.stats.input_bytes, sum(stats.output_bytes for stats in seats)
        )
        report = TraceReport(stages, spans, elapsed, self._mode)
        path = os.environ.get("REPRO_OBS_JSON")
        if path:
            append_jsonl(path, report, run=next(_obs_run_ids))
        return report

    def close(self) -> None:
        """Abort an unfinished run, releasing its buffers and governor.

        Idempotent (a finished run stays finished).  Live scope buffers are
        released so a borrowed governor gets its pages (and spill-store
        space) back immediately; an owned governor is closed (spill file
        included).
        """
        if self._state == "open":
            self._state = "closed"
        _serve.unregister_run(self._progress_key)
        self._abort_finalizer()
        self._release_governor()

    def __enter__(self) -> "RunHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self._state == "open":
            self.finish()
        else:
            self.close()


class StreamingRun(RunHandle):
    """A pull-mode run whose output is iterated fragment by fragment.

    The run advances lazily -- each pulled fragment corresponds to the
    output produced by some bounded span of input.  After exhaustion,
    :attr:`stats` carries the completed run's statistics (also available
    while streaming, with partially-accumulated counters) and
    :attr:`trace` the :class:`TraceReport` of a traced run.

    It is a :class:`RunHandle` that brings its own document: the
    close / finalizer contract is the handle's, so a run that is created
    but never iterated, or abandoned half-way, cannot leak its governor;
    leaving the ``with`` block closes it (there is nothing to ``finish``
    that iteration has not finished).
    """

    def __init__(self, document: DocumentSource, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._document = document

    def __iter__(self) -> Iterator[str]:
        if self._document is None or self._state != "open":
            raise RuntimeError("this StreamingRun was already consumed; call stream again")
        document, self._document = self._document, None
        try:
            for _ in self._drive(document):
                fragment = self._drain()
                if fragment:
                    yield fragment
        finally:
            # Exhausted or abandoned, the stream's resources die with it.
            self.close()

    def __exit__(self, *exc_info) -> None:
        self.close()


class FluxEngine:
    """One query compiled against one schema: plan, projection, fanout.

    Parameters
    ----------
    query:
        XQuery⁻ source text, a parsed :class:`~repro.xquery.ast.XQExpr`, or a
        ready-made :class:`~repro.flux.ast.FluxExpr`.
    dtd:
        The DTD the input documents conform to.  If it has no virtual root
        yet, ``root_element`` must name the document element.
    root_element:
        Name of the document element (defaults to the DTD's attached root).
    projection:
        Derive a streaming projection filter from the compiled plan and drop
        events of provably untouched subtrees before they reach the
        executor (on by default; pass ``False`` to measure its effect).

    The engine always schedules with the Section-7 simplifications,
    refuses a query with a free variable
    (:class:`~repro.xquery.errors.XQueryError`) and an unsafe FluX query
    (:class:`~repro.flux.errors.UnsafeQueryError`);
    the stage functions :func:`~repro.flux.rewrite.rewrite_to_flux` and
    :func:`~repro.engine.plan.compile_plan` keep those switches for
    ablations.  The engine does not run: ``FluxSession(dtd).prepare(query)``
    is the one way to compile -- it builds the engine through the plan
    cache -- and runs it, with per-run
    :class:`~repro.core.options.ExecutionOptions`.
    """

    def __init__(
        self,
        query: Union[str, XQExpr, FluxExpr],
        dtd: DTD,
        *,
        root_element: Optional[str] = None,
        projection: bool = True,
    ):
        dtd = ensure_rooted(dtd, root_element)
        self.dtd = dtd
        #: The rewrite's stages (``normalized``, ``simplified``), or ``None``
        #: for an engine built from a FluX query.
        self.rewrite_result: Optional[RewriteResult] = None

        if isinstance(query, FluxExpr):
            flux = query
        else:
            expr = parse_query(query) if isinstance(query, str) else query
            self.rewrite_result = rewrite_to_flux(expr, dtd)
            flux = self.rewrite_result.flux
            free = sorted(free_variables(expr) - {ROOT_VARIABLE})
            if free:  # else a handler fails on it mid-run, after output was written
                raise XQueryError(
                    f"unbound variable{'s' if len(free) > 1 else ''} {', '.join(free)}: "
                    f"only {ROOT_VARIABLE} and variables bound by an enclosing for are in scope"
                )
        self.flux = flux
        self.plan: QueryPlan = compile_plan(flux, dtd)
        spec = ProjectionSpec(self.plan) if projection else None
        #: The projection automaton, or ``None`` when nothing is filtered:
        #: projection off, or a trivial spec (the root scope captures
        #: everything) that would only cost a lookup per tag.  What a
        #: multi-member prepared query and the subscription hub attach to
        #: *their* fanouts.
        self.projection_spec: Optional[ProjectionSpec] = (
            None if spec is None or spec.trivial else spec
        )
        #: The one-slot union automaton every one-member run of this engine
        #: scans through: its tag and transition tables stay warm across runs.
        self.fanout = DynamicFanout()
        self.fanout.attach(self.projection_spec)

    # ----------------------------------------------------------- inspection

    def flux_source(self) -> str:
        """The scheduled FluX query in concrete syntax."""
        return self.flux.to_source()

    def describe_buffers(self) -> str:
        """Human-readable buffer trees (what the engine will buffer)."""
        return self.plan.describe_buffers()
