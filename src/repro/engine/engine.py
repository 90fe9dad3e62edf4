"""High-level FluX engine facade.

:class:`FluxEngine` bundles the whole pipeline of the paper:

1. parse the XQuery⁻ query,
2. normalise it (Figure 1) and apply the Section-7 simplifications,
3. schedule it into a safe FluX query using the DTD (Figure 2),
4. compile the FluX query into an executable plan (buffer trees, handlers,
   punctuation tables) plus the pre-executor projection filter,
5. execute the plan over a streaming document through the push-based
   pipeline (``scan -> materialize -> execute -> sink``),
   producing the result and the memory/time statistics.

The engine can equally be constructed from an already-built FluX query
(hand-written or produced elsewhere); it then starts at step 4.

There is one way to run: a :class:`RunHandle`, *N seats wide*, over one
:class:`~repro.fastpath.pipeline.DocumentPass`.  It is the only site that
builds executors, settles who owns the memory governor, aborts, writes the
crash dump and folds statistics into the global telemetry, so every
execution shape behaves the same by construction:

* :meth:`FluxEngine.open_run` -- **push mode**, one seat: the caller drives
  the handle, ``feed(chunk)`` / ``finish()`` executing the query
  incrementally as chunks arrive (network sockets, message frames),
* :meth:`FluxEngine.execute` -- the pull entry: one document, any
  :mod:`~repro.pipeline.sinks` target; the handle is driven from the
  document source to completion,
* :meth:`FluxEngine.stream` -- the same drive, iterated for serialized
  output fragments while the input is being consumed,
* :meth:`~repro.core.session.PreparedQuerySet.execute` -- the same drive
  with one seat per query of a ``prepare_many`` set,
* :mod:`repro.feeds` / :mod:`repro.serve` -- one handle per document of an
  endless stream (one seat, or one per subscription).

Per-run behaviour is one :class:`~repro.core.options.ExecutionOptions`.
The session layer (:mod:`repro.core.session`) adds plan caching and a
session-scoped governor, which it lends to the runs it opens.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import weakref
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.dtd.schema import DTD, ROOT_ELEMENT
from repro.engine.executor import StreamExecutor
from repro.engine.plan import QueryPlan, compile_plan
from repro.engine.stats import RunStatistics
from repro.fastpath import DocumentPass
from repro.flux.ast import FluxExpr
from repro.flux.rewrite import RewriteResult, rewrite_to_flux
from repro.obs import recorder as _flight
from repro.obs import serve as _serve
from repro.obs.export import append_jsonl
from repro.obs.observer import NULL_OBSERVER, Observer, TraceReport, use_tracing
from repro.obs.runtime import record_run
from repro.pipeline.fanout import DynamicFanout
from repro.pipeline.projection import ProjectionSpec
from repro.pipeline.sinks import FragmentSink, resolve_sink
from repro.storage.governor import MemoryGovernor
from repro.storage.spill import SpillError
from repro.xmlstream.source import DocumentSource
from repro.xquery.ast import ROOT_VARIABLE, XQExpr
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
    owned = MemoryGovernor(options.memory_budget, page_bytes=options.memory_page_bytes)
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

    :meth:`FluxEngine.open_run` hands the handle to the caller (**push
    mode** -- typically a network loop handing over payload chunks as they
    arrive)::

        with prepared.open_run() as run:
            for chunk in socket_chunks:
                run.feed(chunk)
        print(run.result.output)

    while :meth:`FluxEngine.execute`, :meth:`FluxEngine.stream` and a
    ``prepare_many`` set open the same handle and :meth:`drive` it from a
    document source themselves.

    ``feed`` accepts text or UTF-8 bytes split at arbitrary points (the
    scanner is resumable across chunk boundaries) and returns the
    output drained from the first seat's sink so far when that sink
    supports draining (a :class:`~repro.pipeline.sinks.FragmentSink`),
    ``None`` otherwise.  ``finish`` flushes the final events, validates
    well-formedness and seals one :class:`FluxRunResult` per seat into
    :attr:`results` (:attr:`result` is the first); the context manager
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
        # Push-mode watermarks: raw units fed (bytes or characters, as
        # fed) and the most recent chunk boundaries, for /progress and for
        # the flight recorder's crash dumps.
        self._fed_bytes = 0
        self._chunks_fed = 0
        self._chunk_offsets = deque(maxlen=256)
        self._governor, self._release_governor = governor_for(self, options, governor)
        factory = self._governor.make_buffer if self._governor is not None else None
        observer = NULL_OBSERVER
        if use_tracing(options.trace):
            observer = Observer()
            observer.mode = mode
        self._observer = observer
        if options.serve_metrics is not None:
            # Start (or reuse) the background /metrics + /progress server;
            # the run itself executes identical code either way.
            _serve.ensure_server(options.serve_metrics)
        self._width = len(seats)
        if self._width != fanout.width:
            raise ValueError(f"{self._width} seats for a fanout {fanout.width} slots wide")
        #: The occupied seats, in seat order.
        self._live: List[_LiveSeat] = []
        # A filtered seat's input is accounted by the pass (pre-drop); a
        # seat that keeps everything sees every event and counts its own.
        counted_by_pass: List[RunStatistics] = []
        for index, (seat, spec) in enumerate(zip(seats, fanout.specs())):
            if seat is None:
                continue
            plan, sink, name = seat
            stats = RunStatistics()
            if spec is not None:
                counted_by_pass.append(stats)
            executor = StreamExecutor(
                plan,
                stats=stats,
                sink=resolve_sink(sink, stats, collect_output=options.collect_output),
                count_input=spec is None,
                buffer_factory=factory,
            )
            self._live.append(_LiveSeat(index, name, executor))
        #: The first seat's live statistics.  A run without any seat (an
        #: idle hub document) still records the document's input here.
        self.stats: RunStatistics = (
            self._live[0].executor.stats if self._live else RunStatistics()
        )
        self._pass = DocumentPass(
            fanout,
            counted_by_pass if self._live else [self.stats],
            expand_attrs=options.expand_attrs,
            stop_at_root_close=stop_at_root_close,
            base_offset=base_offset,
            observer=observer,
        )
        #: Per-seat results (``None`` for an empty seat), the first seat's
        #: result, the pass-level trace and the governor's telemetry; all
        #: set by :meth:`finish`.
        self.results: List[Optional[FluxRunResult]] = []
        self.result: Optional[FluxRunResult] = None
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
        # ``begin``/``finish`` are charged to the execute stage too, so
        # end-of-document handler work (e.g. Q8's final joins) is
        # attributed -- that is what lets the stage sum track wall time.
        self._tracer = observer.tracer
        self._execute_stage = observer.stage("execute")
        try:
            with self._tracer.span("execute") as span:
                for self._failing in self._live:
                    self._failing.executor.begin()
            self._failing = None
        except Exception as exc:
            self._abort(exc)
            raise
        self._execute_stage.seconds += span.record.seconds
        _flight.RECORDER.note("run-begin", mode)

    def _seat_stats(self) -> List[RunStatistics]:
        return [seat.executor.stats for seat in self._live]

    # ------------------------------------------------------------- progress

    def progress(self) -> dict:
        """One JSON-ready watermark snapshot (what ``/progress`` shows).

        Input columns are the shared document's; output and buffer columns
        sum over seats.
        """
        seats = self._seat_stats() or [self.stats]
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
        if self._observer.enabled:
            stages = {}
            for name, stage in self._observer.stages.items():
                seconds = stage.seconds
                stages[name] = {
                    "seconds": seconds,
                    "events": stage.events,
                    "throughput_events_per_s": (
                        stage.events / seconds if seconds > 0 else 0.0
                    ),
                }
            entry["stages"] = stages
        return entry

    # --------------------------------------------------------------- framing

    @property
    def root_closed(self) -> bool:
        """True once the root element closed (``stop_at_root_close`` runs)."""
        return self._pass.root_closed

    def take_remainder(self) -> bytes:
        """Bytes fed past the closed root element (the next document's)."""
        return self._pass.take_remainder()

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

    def _process(self, subs) -> None:
        """The execute stage for the events one scan step completed."""
        if not any(subs):
            return
        events = 0
        with self._tracer.span("execute") as span:
            for seat in self._live:
                sub = subs[seat.index]
                if sub:
                    self._failing = seat
                    events += len(sub)
                    seat.executor.process_batch(sub)
        self._failing = None
        self._execute_stage.charge(span.record.seconds, events)

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
            if self._pass.pending_bytes:
                raise ValueError(
                    "cannot feed text while a partial UTF-8 sequence from a "
                    "previous byte chunk is pending; feed the remaining bytes first"
                )
            data = chunk.encode("utf-8")
        else:
            data = bytes(chunk)
        self._chunk_offsets.append(self._fed_bytes + size)
        _flight.RECORDER.note("chunk", size, self._fed_bytes + size)
        try:
            self._process(self._pass.feed(data))
        except Exception as exc:
            self._abort(exc)
            raise
        self._fed_bytes += size
        self._chunks_fed += 1
        return self._drain() if self._drain is not None else None

    def drain(self) -> str:
        """Pending output of a drainable sink (e.g. the tail produced by
        ``finish``); the empty string for non-drainable sinks."""
        return self._drain() if self._drain is not None else ""

    def _drive(self, document: DocumentSource) -> Iterator[None]:
        """Pull one whole document through the run, then finish it.

        The one pull loop: it pauses (yields) after every batch and once
        more after ``finish``, which is when a stream drains its sink.
        Spans never enclose a ``yield``, so an abandoned stream leaves none
        open; abandoning the generator aborts the run like any failure.
        """
        try:
            for subs in self._pass.scan(document, self._options.chunk_size):
                self._process(subs)
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

    def finish(self) -> Optional[FluxRunResult]:
        """End of input: flush, validate, release resources, seal the results.

        Returns the first seat's result (``None`` for a run without seats).
        """
        if self._state == "finished":
            return self.result
        if self._state != "open":
            raise RuntimeError("cannot finish a closed run")
        results: List[Optional[FluxRunResult]] = [None] * self._width
        try:
            self._process(self._pass.finish())
            with self._tracer.span("execute") as span:
                for self._failing in self._live:
                    execution = self._failing.executor.finish()
                    results[self._failing.index] = FluxRunResult(execution.output, execution.stats)
            self._failing = None
            self._execute_stage.seconds += span.record.seconds
        except Exception as exc:
            self._abort(exc)
            raise
        self._state = "finished"
        _flight.RECORDER.note("run-finish", self._mode, self.stats.output_bytes)
        if self._governor is not None:
            self.memory = self._governor.telemetry()
        self.close()  # no live buffers remain: leaves /progress, closes an owned governor
        self.trace = self._seal_observation()
        self.results = results
        for seat in self._live:
            results[seat.index].trace = self.trace
        if self._live:
            self.result = results[self._live[0].index]
        if self._on_finish is not None:
            for stats in self._seat_stats():
                self._on_finish(stats)
        return self.result

    def _seal_observation(self) -> Optional[TraceReport]:
        """Fold the *completed* run into the always-on global telemetry --
        every seat, traced or not, exactly once -- and, for a traced run,
        build the pass-level :class:`TraceReport` (appended to the
        ``REPRO_OBS_JSON`` JSON-lines dump when that is set).  Aborted runs
        never reach it.
        """
        observer = self._observer
        seats = self._seat_stats()
        for stats in seats:
            record_run(stats, traced=observer.enabled, push=self._chunks_fed > 0)
        if not observer.enabled:
            return None
        totals = self.stats
        if len(seats) > 1:
            # Pass-level byte columns: input is the shared document, output
            # the sum over all seats.
            totals = RunStatistics(
                input_bytes=self.stats.input_bytes,
                output_bytes=sum(stats.output_bytes for stats in seats),
                elapsed_seconds=max(stats.elapsed_seconds for stats in seats),
            )
        report = observer.finish(totals)
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
    """Compile once, execute many times.

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

    How a run behaves -- output collection, attribute expansion, the memory
    budget, tracing -- is the ``options`` argument of each run method.
    """

    def __init__(
        self,
        query: Union[str, XQExpr, FluxExpr],
        dtd: DTD,
        *,
        root_element: Optional[str] = None,
        root_var: str = ROOT_VARIABLE,
        apply_simplifications: bool = True,
        require_safe: bool = True,
        projection: bool = True,
    ):
        dtd = ensure_rooted(dtd, root_element)
        self.dtd = dtd
        self.root_var = root_var
        self.rewrite_result: Optional[RewriteResult] = None

        if isinstance(query, FluxExpr):
            flux = query
        else:
            expr = parse_query(query) if isinstance(query, str) else query
            self.rewrite_result = rewrite_to_flux(
                expr,
                dtd,
                root_var=root_var,
                apply_simplifications=apply_simplifications,
            )
            flux = self.rewrite_result.flux
        self.flux = flux
        self.plan: QueryPlan = compile_plan(flux, dtd, root_var=root_var, require_safe=require_safe)
        spec = ProjectionSpec(self.plan) if projection else None
        #: The projection automaton, or ``None`` when nothing is filtered:
        #: projection off, or a trivial spec (the root scope captures
        #: everything) that would only cost a lookup per tag.  What a
        #: ``prepare_many`` set and the subscription hub attach to *their*
        #: fanouts.
        self.projection_spec: Optional[ProjectionSpec] = (
            None if spec is None or spec.trivial else spec
        )
        #: The one-slot union automaton every run of this engine scans
        #: through: its tag and transition tables stay warm across runs.
        self.fanout = DynamicFanout()
        self.fanout.attach(self.projection_spec)
        self.fanout.table()  # built now, not raced for by concurrent first runs

    # ----------------------------------------------------------- inspection

    def flux_source(self) -> str:
        """The scheduled FluX query in concrete syntax."""
        return self.flux.to_source()

    def describe_buffers(self) -> str:
        """Human-readable buffer trees (what the engine will buffer)."""
        return self.plan.describe_buffers()

    # ------------------------------------------------------------ execution

    def _open(self, handle, mode: str, sink, options, governor, on_finish, **framing) -> RunHandle:
        """The one-seat run behind every solo shape (``handle`` is
        :class:`RunHandle` or its iterable subclass)."""
        return handle(
            self.fanout,
            [(self.plan, sink, None)],
            options,
            governor=governor,
            mode=mode,
            on_finish=on_finish,
            **framing,
        )

    def execute(
        self,
        document: DocumentSource,
        *,
        sink=None,
        options: Optional[ExecutionOptions] = None,
        governor: Optional[MemoryGovernor] = None,
        on_finish=None,
    ) -> FluxRunResult:
        """The unified pull-mode execution path.

        ``sink`` follows the Sink protocol (:func:`~repro.pipeline.sinks.resolve_sink`):
        ``None`` collects (or just counts, per ``options.collect_output``),
        a writable streams, an :class:`~repro.pipeline.sinks.OutputSink`
        instance is used directly.  ``governor`` lends the run a shared
        memory governor (the session layer's), which survives it.
        ``on_finish`` is called with the completed run's statistics
        (session bookkeeping).
        """
        run = self._open(RunHandle, "pull", sink, options, governor, on_finish)
        return run.drive(document).result

    def open_run(
        self,
        *,
        sink=None,
        options: Optional[ExecutionOptions] = None,
        governor: Optional[MemoryGovernor] = None,
        on_finish=None,
        stop_at_root_close: bool = False,
        base_offset: int = 0,
        annotations: Optional[dict] = None,
    ) -> RunHandle:
        """Open a **push-mode** run: the caller feeds document chunks.

        Returns a :class:`RunHandle`; see its docs for the feed/finish
        protocol.  Unlike :meth:`execute` there is no document argument --
        the input arrives through :meth:`RunHandle.feed`, split at arbitrary
        byte/character boundaries.

        ``stop_at_root_close`` makes the run parse exactly one document and
        park any surplus bytes for the caller (:mod:`repro.feeds` uses this
        to chain documents, passing each document's stream position as
        ``base_offset`` so located errors are stream-absolute);
        ``annotations`` are caller watermarks (e.g. a feed's absolute
        document offsets) echoed into /progress snapshots and crash dumps.
        """
        return self._open(
            RunHandle,
            "push",
            sink,
            options,
            governor,
            on_finish,
            stop_at_root_close=stop_at_root_close,
            base_offset=base_offset,
            annotations=annotations,
        )

    def open_feed(
        self,
        *,
        sink=None,
        options: Optional[ExecutionOptions] = None,
        governor: Optional[MemoryGovernor] = None,
        on_finish=None,
        on_document=None,
        on_heartbeat=None,
        resume_from: Optional[int] = None,
    ):
        """Open a **continuous feed**: one handle, unboundedly many documents.

        Returns a :class:`repro.feeds.FeedHandle` consuming a stream of
        concatenated documents, each through its own :meth:`open_run`;
        per-document results are framed through ``on_document`` (and the
        return value of ``feed``).  See :mod:`repro.feeds` for the full
        protocol.
        """
        from repro.feeds import FeedHandle  # engine <- feeds would cycle at import time

        return FeedHandle(
            partial(
                self.open_run,
                sink=sink,
                options=options,
                on_finish=on_finish,
                stop_at_root_close=True,
            ),
            options=options,
            governor=governor,
            on_document=on_document,
            on_heartbeat=on_heartbeat,
            resume_from=resume_from,
        )

    def stream(
        self,
        document: DocumentSource,
        *,
        options: Optional[ExecutionOptions] = None,
        governor: Optional[MemoryGovernor] = None,
        on_finish=None,
    ) -> StreamingRun:
        """Pull-mode execution yielding serialized output fragments lazily.

        The returned :class:`StreamingRun` is a lazy iterable: input is
        scanned and executed as fragments are pulled, and no full-output
        string is ever materialized.
        """
        stream = partial(StreamingRun, document)
        return self._open(stream, "stream", FragmentSink(), options, governor, on_finish)
