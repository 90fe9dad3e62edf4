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

One compiled plan serves every execution shape:

* :meth:`FluxEngine.execute` -- the unified entry: one document, any
  :mod:`~repro.pipeline.sinks` target, one :class:`ExecutionOptions`,
* :meth:`FluxEngine.open_run` -- **push mode**: a :class:`RunHandle` whose
  ``feed(chunk)`` / ``finish()`` execute the query incrementally as chunks
  arrive (network sockets, message frames) without any pull-based source,
* :meth:`FluxEngine.stream` / :meth:`FluxEngine.run_streaming` -- iterate
  serialized output fragments while the input is being consumed,
* :meth:`FluxEngine.run` / :meth:`FluxEngine.run_to_sink` -- the legacy
  spellings, now thin shims over :meth:`FluxEngine.execute`.

The session layer (:mod:`repro.core.session`) adds plan caching and
session-scoped memory governance on top; its ``PreparedQuery`` calls
straight into :meth:`execute` / :meth:`open_run` with an externally-owned
governor.
"""

from __future__ import annotations

import itertools
import os
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.core.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.dtd.schema import DTD, ROOT_ELEMENT
from repro.engine.executor import ExecutionResult, StreamExecutor
from repro.engine.plan import QueryPlan, compile_plan
from repro.fastpath import FastEventPipeline
from repro.flux.ast import FluxExpr
from repro.flux.rewrite import RewriteResult, rewrite_to_flux
from repro.obs import recorder as _flight
from repro.obs import serve as _serve
from repro.obs.export import append_jsonl
from repro.obs.observer import Observer, TraceReport, use_tracing
from repro.obs.runtime import record_run
from repro.pipeline.sinks import FragmentSink, resolve_sink
from repro.storage.governor import MemoryGovernor
from repro.xmlstream.parser import DocumentSource
from repro.xquery.ast import ROOT_VARIABLE, XQExpr
from repro.xquery.parser import parse_query


@dataclass
class FluxRunResult:
    """Result of running a query: output text (optional) plus statistics.

    ``trace`` carries the per-stage :class:`~repro.obs.observer.TraceReport`
    when the run executed with tracing on (``ExecutionOptions(trace=True)``
    or ``REPRO_TRACE=1``); ``None`` otherwise.
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


from repro.engine.stats import RunStatistics  # noqa: E402  (documented forward ref)


#: Monotone run ids for the ``REPRO_OBS_JSON`` dump (process-wide).
_obs_run_ids = itertools.count()


def _finish_observation(observer, stats, *, push: bool = False) -> Optional[TraceReport]:
    """Seal one *completed* run's observability state.

    Folds the run into the always-on global telemetry (every run, traced or
    not), and for traced runs builds the :class:`TraceReport` -- appending
    it to the ``REPRO_OBS_JSON`` JSON-lines dump when that is set.  Called
    exactly once per finished run from each execution shape; aborted runs
    never reach it.
    """
    record_run(stats, traced=observer is not None and observer.enabled, push=push)
    if observer is None or not observer.enabled:
        return None
    report = observer.finish(stats)
    path = os.environ.get("REPRO_OBS_JSON")
    if path:
        append_jsonl(path, report, run=next(_obs_run_ids))
    return report


def _quiet_abort(executor: StreamExecutor) -> None:
    """Best-effort executor teardown for abandoned runs.

    Releases live scope buffers so a *shared* (session-owned) governor gets
    its pages and spill-store space back.  Exceptions are swallowed: this
    runs from close()/GC paths that must never mask the original error.
    """
    try:
        executor.abort()
    except Exception:  # noqa: BLE001 - cleanup of an already-failing run
        pass


def ensure_rooted(dtd: DTD, root_element: Optional[str] = None) -> DTD:
    """Attach the virtual document root to a DTD that lacks one.

    Compilation (the engine, the multi-query registry) always works against
    a rooted DTD; this is the single place the rooting rules live.
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


class StreamingRun:
    """An in-flight streaming execution: iterate it to pull output fragments.

    The run advances lazily -- each pulled fragment corresponds to the
    output produced by some bounded span of input.  After exhaustion,
    :attr:`stats` carries the completed run's statistics (also available
    while streaming, with partially-accumulated counters).

    A run that owns a memory governor releases its spill file when the
    iteration ends -- exhausted *or* abandoned -- and additionally via
    :meth:`close`, context-manager exit, and a garbage-collection finalizer,
    so a run that is created but never iterated cannot leak the governor.
    """

    def __init__(
        self,
        executor: StreamExecutor,
        sink: FragmentSink,
        batches,
        governor=None,
        owns_governor: bool = True,
        on_finish=None,
        observer=None,
        options: Optional[ExecutionOptions] = None,
    ):
        self._executor = executor
        self._sink = sink
        self._batches = batches
        self._governor = governor if owns_governor else None
        self._options = options
        self._consumed = False
        self._on_finish = on_finish
        self._observer = observer
        self.stats: RunStatistics = executor.stats
        #: The finished run's :class:`TraceReport` (traced runs only).
        self.trace: Optional[TraceReport] = None
        # Both finalizers reference the executor/governor, never the run
        # itself, so they cannot keep the run alive; both are idempotent.
        self._abort_finalizer = weakref.finalize(self, _quiet_abort, executor)
        if self._governor is not None:
            self._finalizer = weakref.finalize(self, self._governor.close)
        else:
            self._finalizer = None

    def close(self) -> None:
        """Release the run's resources without (further) iterating it.

        Closing an unconsumed or abandoned run marks it consumed, releases
        any live scope buffers (so a session-shared governor gets its pages
        back) and closes an owned governor (spill file included); closing
        an exhausted or already-closed run is a no-op.
        """
        self._consumed = True
        self._abort_finalizer()
        if self._finalizer is not None:
            self._finalizer()  # runs governor.close() exactly once

    def __enter__(self) -> "StreamingRun":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __iter__(self) -> Iterator[str]:
        if self._consumed:
            raise RuntimeError(
                "this StreamingRun was already consumed; call run_streaming again"
            )
        self._consumed = True
        executor = self._executor
        sink = self._sink
        observer = self._observer
        try:
            if observer is not None and observer.enabled:
                # Traced twin of the drain loop below: ``execute`` spans
                # around begin/batch/finish (never around a yield, so an
                # abandoned stream leaves no span open), stage charges from
                # the span timings.
                observer.mode = "stream"
                tracer = observer.tracer
                stage = observer.stage("execute")
                with tracer.span("execute") as span:
                    executor.begin()
                stage.seconds += span.record.seconds
                fragment = sink.drain()
                if fragment:
                    yield fragment
                for batch in self._batches:
                    with tracer.span("execute") as span:
                        executor.process_batch(batch)
                    stage.charge(span.record.seconds, len(batch))
                    fragment = sink.drain()
                    if fragment:
                        yield fragment
                with tracer.span("execute") as span:
                    executor.finish()
                stage.seconds += span.record.seconds
            else:
                executor.begin()
                fragment = sink.drain()
                if fragment:
                    yield fragment
                for batch in self._batches:
                    executor.process_batch(batch)
                    fragment = sink.drain()
                    if fragment:
                        yield fragment
                executor.finish()
            fragment = sink.drain()
            if fragment:
                yield fragment
            self.trace = _finish_observation(observer, self.stats)
            if self._on_finish is not None:
                self._on_finish(self.stats)
        except Exception as exc:
            # Abandonment (GeneratorExit) is not a crash; engine errors are.
            _flight.dump_crash(exc, stats=self.stats, options=self._options, mode="stream")
            raise
        finally:
            # An owned governor is per-run: its spill file dies with the
            # stream, whether the consumer exhausted it or abandoned it.
            self.close()


class RunHandle:
    """One in-flight **push-mode** execution: feed chunks, then finish.

    Where :class:`StreamingRun` *pulls* from a document source, a run
    handle is driven by the caller -- typically a network loop handing over
    payload chunks as they arrive::

        with prepared.open_run() as run:
            for chunk in socket_chunks:
                run.feed(chunk)
        print(run.result.output)

    ``feed`` accepts text or UTF-8 bytes split at arbitrary points (the
    scanner is resumable across chunk boundaries) and returns the
    output drained from the sink so far when the sink supports draining
    (a :class:`~repro.pipeline.sinks.FragmentSink`), ``None`` otherwise.
    ``finish`` flushes the final events, validates well-formedness and
    returns the :class:`FluxRunResult`; the context manager finishes on a
    clean exit and aborts (``close``) on an exception.  Statistics are
    live on :attr:`stats` throughout.
    """

    def __init__(
        self,
        executor: StreamExecutor,
        feed,
        governor=None,
        owns_governor: bool = True,
        on_finish=None,
        observer=None,
        options: Optional[ExecutionOptions] = None,
        annotations: Optional[dict] = None,
    ):
        self._executor = executor
        self._feed = feed
        self._governor = governor if owns_governor else None
        self._on_finish = on_finish
        self._observer = observer
        self._options = options
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
        self.stats: RunStatistics = executor.stats
        #: The completed run's result; set by :meth:`finish`.
        self.result: Optional[FluxRunResult] = None
        self._drain = getattr(executor.sink, "drain", None)
        # As in StreamingRun: finalizers reference executor/governor only,
        # so an unclosed, garbage-collected handle still releases its live
        # buffers (shared governor) and its owned governor's spill file.
        self._abort_finalizer = weakref.finalize(self, _quiet_abort, executor)
        if self._governor is not None:
            self._finalizer = weakref.finalize(self, self._governor.close)
        else:
            self._finalizer = None
        if observer is not None and observer.enabled:
            observer.mode = "push"
            with observer.tracer.span("execute") as span:
                executor.begin()
            observer.stage("execute").seconds += span.record.seconds
        else:
            executor.begin()
        _flight.RECORDER.note("run-begin", "push")
        # Every open push run is visible on /progress (whether or not a
        # server is listening, registration is one dict insert).
        self._progress_key = _serve.register_run(self._progress)

    # ------------------------------------------------------------- progress

    def _progress(self) -> dict:
        """One JSON-ready watermark snapshot for the /progress endpoint."""
        stats = self.stats
        entry = {
            "mode": "push",
            "state": self._state,
            "bytes_fed": self._fed_bytes,
            "chunks_fed": self._chunks_fed,
            "document_offset": stats.input_bytes,
            "input_events": stats.input_events,
            "output_events": stats.output_events,
            "output_bytes": stats.output_bytes,
            "buffered_bytes": stats.buffered_bytes_current,
            "peak_buffered_bytes": stats.peak_buffered_bytes,
        }
        if self._annotations:
            entry.update(self._annotations)
        attribution = stats.attribution
        if attribution is not None:
            entry["owners"] = {
                owner.variable: owner.live_bytes
                for owner in attribution.owners.values()
            }
        observer = self._observer
        if observer is not None and observer.enabled:
            stages = {}
            for name, stage in observer.stages.items():
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

    def _dump_crash(self, error: BaseException) -> None:
        _flight.dump_crash(
            error,
            stats=self.stats,
            options=self._options,
            mode="push",
            chunk_offsets=self._chunk_offsets,
            context=self._annotations,
        )

    # ----------------------------------------------------------------- feed

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
        if isinstance(chunk, str) and self._feed.pending_bytes:
            raise ValueError(
                "cannot feed text while a partial UTF-8 sequence from a "
                "previous byte chunk is pending; feed the remaining bytes first"
            )
        observer = self._observer
        size = len(chunk)
        self._chunk_offsets.append(self._fed_bytes + size)
        _flight.RECORDER.note("chunk", size, self._fed_bytes + size)
        try:
            batch = self._feed.feed(chunk)
            if batch:
                if observer is not None and observer.enabled:
                    with observer.tracer.span("execute") as span:
                        self._executor.process_batch(batch)
                    observer.stage("execute").charge(span.record.seconds, len(batch))
                else:
                    self._executor.process_batch(batch)
        except Exception as exc:
            self._dump_crash(exc)
            self.close()
            raise
        self._fed_bytes += size
        self._chunks_fed += 1
        return self._drain() if self._drain is not None else None

    def drain(self) -> str:
        """Pending output of a drainable sink (e.g. the tail produced by
        ``finish``); the empty string for non-drainable sinks."""
        return self._drain() if self._drain is not None else ""

    def finish(self) -> FluxRunResult:
        """End of input: flush, validate, release resources, return the result."""
        if self._state == "finished":
            return self.result
        if self._state != "open":
            raise RuntimeError("cannot finish a closed run")
        observer = self._observer
        try:
            tail = self._feed.finish()
            if observer is not None and observer.enabled:
                with observer.tracer.span("execute") as span:
                    if tail:
                        self._executor.process_batch(tail)
                    execution = self._executor.finish()
                observer.stage("execute").seconds += span.record.seconds
            else:
                if tail:
                    self._executor.process_batch(tail)
                execution = self._executor.finish()
        except Exception as exc:
            self._dump_crash(exc)
            self.close()
            raise
        self._state = "finished"
        _serve.unregister_run(self._progress_key)
        _flight.RECORDER.note("run-finish", "push", self.stats.output_bytes)
        self._abort_finalizer()  # no live buffers remain: a no-op teardown
        if self._finalizer is not None:
            self._finalizer()
        trace = _finish_observation(observer, self.stats, push=True)
        self.result = FluxRunResult(output=execution.output, stats=execution.stats, trace=trace)
        if self._on_finish is not None:
            self._on_finish(self.stats)
        return self.result

    def close(self) -> None:
        """Abort an unfinished run, releasing its buffers and governor.

        Idempotent.  Live scope buffers are released so a session-shared
        governor gets its pages (and spill-store space) back immediately.
        """
        if self._state == "open":
            self._state = "closed"
        _serve.unregister_run(self._progress_key)
        self._abort_finalizer()
        if self._finalizer is not None:
            self._finalizer()

    def __enter__(self) -> "RunHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self._state == "open":
            self.finish()
        else:
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
    memory_budget:
        Hard cap, in bytes, on resident buffered memory.  When set, every
        run gets its own :class:`~repro.storage.governor.MemoryGovernor`:
        scope buffers become spillable pages and the coldest are evicted to
        a temp file whenever the cap would be exceeded.  Output is
        byte-identical in every mode; only residency and throughput change.
        ``None`` (the default) keeps all buffers on the heap.
    memory_page_bytes:
        Page granularity for spillable buffers (defaults to a size scaled
        to the budget); only meaningful with ``memory_budget``.
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
        memory_budget: Optional[int] = None,
        memory_page_bytes: Optional[int] = None,
    ):
        dtd = ensure_rooted(dtd, root_element)
        self.dtd = dtd
        self.root_var = root_var
        self.memory_budget = memory_budget
        self.memory_page_bytes = memory_page_bytes
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
        self.pipeline = FastEventPipeline(self.plan, projection=projection)

    # ----------------------------------------------------------- inspection

    def flux_source(self) -> str:
        """The scheduled FluX query in concrete syntax."""
        return self.flux.to_source()

    def describe_buffers(self) -> str:
        """Human-readable buffer trees (what the engine will buffer)."""
        return self.plan.describe_buffers()

    # ------------------------------------------------------------ execution

    def _run_options(self, **overrides) -> ExecutionOptions:
        """Options for a legacy-spelling run: engine fields + call kwargs."""
        return ExecutionOptions.from_kwargs(
            DEFAULT_OPTIONS,
            memory_budget=self.memory_budget,
            memory_page_bytes=self.memory_page_bytes,
            **overrides,
        )

    @staticmethod
    def _make_governor(options: ExecutionOptions) -> Optional[MemoryGovernor]:
        """A fresh per-run governor, or ``None`` when memory is unbounded."""
        if options.memory_budget is None:
            return None
        return MemoryGovernor(options.memory_budget, page_bytes=options.memory_page_bytes)

    def _executor(
        self, *, sink, stats: RunStatistics, governor: Optional[MemoryGovernor]
    ) -> StreamExecutor:
        return StreamExecutor(
            self.plan,
            stats=stats,
            sink=sink,
            # With the projection filter active, input accounting happens in
            # the scanner (pre-drop); the executor must not double-count.
            count_input=not self.pipeline.projection_enabled,
            buffer_factory=governor.make_buffer if governor is not None else None,
        )

    def _run_setup(self, options, sink, governor, owns_governor: bool):
        """The shared preamble of every execution shape.

        Resolves options, creates the run's statistics, binds the sink,
        settles governor ownership (an injected governor keeps the caller's
        ownership flag, an absent one is created from the options and owned
        by this run) and resolves tracing: ``observer`` is a live
        :class:`~repro.obs.observer.Observer` when this run traces, ``None``
        otherwise -- downstream layers treat ``None`` as "run the
        pre-instrumentation code path".  Returns ``(options, stats,
        bound_sink, governor, owned, observer)``.
        """
        if options is None:
            options = self._run_options()
        stats = RunStatistics()
        bound_sink = resolve_sink(sink, stats, collect_output=options.collect_output)
        owned = owns_governor
        if governor is None:
            governor = self._make_governor(options)
            owned = True
        observer = Observer() if use_tracing(options.trace) else None
        if options.serve_metrics is not None:
            # Start (or reuse) the background /metrics + /progress server;
            # the run itself executes identical code either way.
            _serve.ensure_server(options.serve_metrics)
        return options, stats, bound_sink, governor, owned, observer

    def execute(
        self,
        document: DocumentSource,
        *,
        sink=None,
        options: Optional[ExecutionOptions] = None,
        governor: Optional[MemoryGovernor] = None,
        owns_governor: bool = True,
        on_finish=None,
    ) -> FluxRunResult:
        """The unified pull-mode execution path.

        ``sink`` follows the Sink protocol (:func:`~repro.pipeline.sinks.resolve_sink`):
        ``None`` collects (or just counts, per ``options.collect_output``),
        a writable streams, an :class:`~repro.pipeline.sinks.OutputSink`
        instance is used directly.  ``governor`` lets a caller (the session
        layer) inject a shared memory governor; with ``owns_governor=False``
        it survives the run.  ``on_finish`` is called with the completed
        run's statistics (session bookkeeping).
        """
        options, stats, bound_sink, governor, owned, observer = self._run_setup(
            options, sink, governor, owns_governor
        )
        executor = self._executor(sink=bound_sink, stats=stats, governor=governor)
        try:
            batches = self.pipeline.event_batches(
                document,
                expand_attrs=options.expand_attrs,
                stats=stats,
                chunk_size=options.chunk_size,
                observer=observer,
            )
            result: ExecutionResult = executor.run_batches(batches, observer=observer)
        except BaseException as exc:
            if isinstance(exc, Exception):
                _flight.dump_crash(exc, stats=stats, options=options, mode="pull")
            # A failed run must not leave its live buffers' pages charged
            # against a *shared* (session-owned) governor; an owned one is
            # closed below, which releases everything at once.
            if governor is not None and not owned:
                _quiet_abort(executor)
            raise
        finally:
            if owned and governor is not None:
                governor.close()
        trace = _finish_observation(observer, stats)
        if on_finish is not None:
            on_finish(stats)
        return FluxRunResult(output=result.output, stats=result.stats, trace=trace)

    def open_run(
        self,
        *,
        sink=None,
        options: Optional[ExecutionOptions] = None,
        governor: Optional[MemoryGovernor] = None,
        owns_governor: bool = True,
        on_finish=None,
        stop_at_root_close: bool = False,
        annotations: Optional[dict] = None,
    ) -> RunHandle:
        """Open a **push-mode** run: the caller feeds document chunks.

        Returns a :class:`RunHandle`; see its docs for the feed/finish
        protocol.  Unlike :meth:`execute` there is no document argument --
        the input arrives through :meth:`RunHandle.feed`, split at arbitrary
        byte/character boundaries.

        ``stop_at_root_close`` makes the run parse exactly one document and
        park any surplus bytes for the caller (:mod:`repro.feeds` uses this
        to chain documents); ``annotations`` are caller watermarks (e.g. a
        feed's absolute document offsets) echoed into /progress snapshots
        and crash dumps.
        """
        options, stats, bound_sink, governor, owned, observer = self._run_setup(
            options, sink, governor, owns_governor
        )
        executor = self._executor(sink=bound_sink, stats=stats, governor=governor)
        feed = self.pipeline.open_feed(
            expand_attrs=options.expand_attrs,
            stats=stats,
            observer=observer,
            stop_at_root_close=stop_at_root_close,
        )
        return RunHandle(
            executor,
            feed,
            governor=governor,
            owns_governor=owned,
            on_finish=on_finish,
            observer=observer,
            options=options,
            annotations=annotations,
        )

    def open_feed(
        self,
        *,
        sink=None,
        options: Optional[ExecutionOptions] = None,
        governor: Optional[MemoryGovernor] = None,
        owns_governor: bool = True,
        on_finish=None,
        on_document=None,
        on_heartbeat=None,
        resume_from: Optional[int] = None,
    ):
        """Open a **continuous feed**: one handle, unboundedly many documents.

        Returns a :class:`repro.feeds.FeedHandle` consuming a stream of
        concatenated documents; per-document results are framed through
        ``on_document`` (and the return value of ``feed``).  See
        :mod:`repro.feeds` for the full protocol.
        """
        from repro.feeds import FeedHandle  # engine <- feeds would cycle at import time

        if options is None:
            options = self._run_options()
        owned = owns_governor
        if governor is None:
            governor = self._make_governor(options)
            owned = True
        return FeedHandle(
            self,
            sink=sink,
            options=options,
            governor=governor,
            owns_governor=owned,
            on_finish=on_finish,
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
        owns_governor: bool = True,
        on_finish=None,
    ) -> StreamingRun:
        """Pull-mode execution yielding serialized output fragments lazily."""
        options, stats, sink, governor, owned, observer = self._run_setup(
            options, FragmentSink(), governor, owns_governor
        )
        executor = self._executor(sink=sink, stats=stats, governor=governor)
        batches = self.pipeline.event_batches(
            document,
            expand_attrs=options.expand_attrs,
            stats=stats,
            chunk_size=options.chunk_size,
            observer=observer,
        )
        return StreamingRun(
            executor,
            sink,
            batches,
            governor=governor,
            owns_governor=owned,
            on_finish=on_finish,
            observer=observer,
            options=options,
        )

    # ------------------------------------------------- legacy run spellings

    def run(
        self,
        document: DocumentSource,
        *,
        collect_output: bool = True,
        expand_attrs: bool = False,
    ) -> FluxRunResult:
        """Execute the query over a document (text, path, file object, chunks)."""
        return self.execute(
            document,
            options=self._run_options(collect_output=collect_output, expand_attrs=expand_attrs),
        )

    def run_streaming(
        self,
        document: DocumentSource,
        *,
        expand_attrs: bool = False,
    ) -> StreamingRun:
        """Execute the query, yielding serialized output fragments.

        The returned :class:`StreamingRun` is a lazy iterable: input is
        parsed, projected and executed as fragments are pulled, and no
        full-output string is ever materialized.
        """
        return self.stream(document, options=self._run_options(expand_attrs=expand_attrs))

    def run_to_sink(
        self,
        document: DocumentSource,
        writable,
        *,
        expand_attrs: bool = False,
    ) -> FluxRunResult:
        """Execute the query, writing output fragments to ``writable``.

        ``writable`` is anything with a ``write(str)`` method.  Fragments
        are written as they are produced; the run's peak memory stays
        independent of the output size.
        """
        return self.execute(
            document,
            sink=writable,
            options=self._run_options(expand_attrs=expand_attrs),
        )
