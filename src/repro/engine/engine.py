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

One compiled plan serves every execution shape, and every shape is the
same :class:`RunHandle` over the same
:class:`~repro.fastpath.pipeline.DocumentPass`:

* :meth:`FluxEngine.open_run` -- **push mode**: the caller drives the
  handle, ``feed(chunk)`` / ``finish()`` executing the query incrementally
  as chunks arrive (network sockets, message frames),
* :meth:`FluxEngine.execute` -- the unified pull entry: one document, any
  :mod:`~repro.pipeline.sinks` target, one :class:`ExecutionOptions`; the
  handle is driven from the document source to completion,
* :meth:`FluxEngine.stream` -- the same drive, iterated for serialized
  output fragments while the input is being consumed,
* :meth:`FluxEngine.run` -- the keyword spelling of :meth:`FluxEngine.execute`.

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
from functools import partial
from typing import Iterator, Optional, Union

from repro.core.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.dtd.schema import DTD, ROOT_ELEMENT
from repro.engine.executor import StreamExecutor
from repro.engine.plan import QueryPlan, compile_plan
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
    record_run(stats, traced=observer.enabled, push=push)
    if not observer.enabled:
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


class RunHandle:
    """One in-flight execution of a compiled plan over one document.

    Every execution shape is this object: :meth:`FluxEngine.open_run` hands
    it to the caller (**push mode** -- typically a network loop handing over
    payload chunks as they arrive)::

        with prepared.open_run() as run:
            for chunk in socket_chunks:
                run.feed(chunk)
        print(run.result.output)

    while :meth:`FluxEngine.execute` and :meth:`FluxEngine.stream` open the
    same handle and drive it from a document source themselves.

    ``feed`` accepts text or UTF-8 bytes split at arbitrary points (the
    scanner is resumable across chunk boundaries) and returns the
    output drained from the sink so far when the sink supports draining
    (a :class:`~repro.pipeline.sinks.FragmentSink`), ``None`` otherwise.
    ``finish`` flushes the final events, validates well-formedness and
    returns the :class:`FluxRunResult`; the context manager finishes on a
    clean exit and aborts (``close``) on an exception.  Statistics are
    live on :attr:`stats` throughout.

    A run that owns a memory governor releases its spill file when it
    finishes or is closed, and additionally via a garbage-collection
    finalizer, so a handle that is dropped unfinished cannot leak it.
    """

    def __init__(
        self,
        executor: StreamExecutor,
        doc_pass: DocumentPass,
        *,
        governor,
        owns_governor: bool,
        on_finish,
        observer,
        options: ExecutionOptions,
        annotations: Optional[dict],
        mode: str,
    ):
        self._executor = executor
        self._pass = doc_pass
        self._governor = governor if owns_governor else None
        self._on_finish = on_finish
        self._observer = observer
        self._options = options
        # Caller-supplied watermarks (a feed's exact document offsets);
        # merged into /progress snapshots and crash dumps verbatim.
        self._annotations = annotations
        #: ``pull`` / ``stream`` / ``push``: who drives the run.  A label
        #: for reports, crash dumps and telemetry -- the code is the same.
        self._mode = mode
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
        # Both finalizers reference the executor/governor, never the handle
        # itself, so they cannot keep it alive; both are idempotent.  An
        # unclosed, garbage-collected handle still releases its live
        # buffers (shared governor) and its owned governor's spill file.
        self._abort_finalizer = weakref.finalize(self, _quiet_abort, executor)
        if self._governor is not None:
            self._finalizer = weakref.finalize(self, self._governor.close)
        else:
            self._finalizer = None
        # ``begin``/``finish`` are charged to the execute stage too, so
        # end-of-document handler work (e.g. Q8's final joins) is
        # attributed -- that is what lets the stage sum track wall time.
        self._tracer = observer.tracer
        self._execute_stage = observer.stage("execute")
        with self._tracer.span("execute") as span:
            executor.begin()
        self._execute_stage.seconds += span.record.seconds
        _flight.RECORDER.note("run-begin", mode)
        # Every open run is visible on /progress (whether or not a server
        # is listening, registration is one dict insert).
        self._progress_key = _serve.register_run(self._progress)

    # ------------------------------------------------------------- progress

    def _progress(self) -> dict:
        """One JSON-ready watermark snapshot for the /progress endpoint."""
        stats = self.stats
        entry = {
            "mode": self._mode,
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

    def _abort(self, error: BaseException) -> None:
        """A failed run: forensics for engine errors, then release everything."""
        if isinstance(error, Exception):
            _flight.dump_crash(
                error,
                stats=self.stats,
                options=self._options,
                mode=self._mode,
                chunk_offsets=self._chunk_offsets,
                context=self._annotations,
            )
        self.close()

    # ----------------------------------------------------------------- feed

    def _process(self, events) -> None:
        """The execute stage for the events one scan step completed."""
        if events:
            with self._tracer.span("execute") as span:
                self._executor.process_batch(events)
            self._execute_stage.charge(span.record.seconds, len(events))

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
            self._process(self._pass.feed(data)[0])
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

        The loop behind :meth:`FluxEngine.execute` and
        :meth:`FluxEngine.stream`: it pauses (yields) after every batch and
        once more after ``finish``, which is when a stream drains its sink.
        Spans never enclose a ``yield``, so an abandoned stream leaves none
        open; abandoning the generator aborts the run like any failure.
        """
        try:
            for subs in self._pass.scan(document, self._options.chunk_size):
                self._process(subs[0])
                yield
        except BaseException as exc:
            self._abort(exc)
            raise
        self.finish()
        yield

    def finish(self) -> FluxRunResult:
        """End of input: flush, validate, release resources, return the result."""
        if self._state == "finished":
            return self.result
        if self._state != "open":
            raise RuntimeError("cannot finish a closed run")
        try:
            tail = self._pass.finish()[0]
            with self._tracer.span("execute") as span:
                if tail:
                    self._executor.process_batch(tail)
                execution = self._executor.finish()
            self._execute_stage.seconds += span.record.seconds
        except Exception as exc:
            self._abort(exc)
            raise
        self._state = "finished"
        _serve.unregister_run(self._progress_key)
        _flight.RECORDER.note("run-finish", self._mode, self.stats.output_bytes)
        self._abort_finalizer()  # no live buffers remain: a no-op teardown
        if self._finalizer is not None:
            self._finalizer()
        trace = _finish_observation(self._observer, self.stats, push=self._mode == "push")
        self.result = FluxRunResult(output=execution.output, stats=execution.stats, trace=trace)
        if self._on_finish is not None:
            self._on_finish(self.stats)
        return self.result

    def close(self) -> None:
        """Abort an unfinished run, releasing its buffers and governor.

        Idempotent.  Live scope buffers are released so a session-shared
        governor gets its pages (and spill-store space) back immediately;
        an owned governor is closed (spill file included).
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
        self.trace: Optional[TraceReport] = None

    def __iter__(self) -> Iterator[str]:
        if self._document is None or self._state != "open":
            raise RuntimeError("this StreamingRun was already consumed; call stream again")
        document, self._document = self._document, None
        try:
            for _ in self._drive(document):
                fragment = self._drain()
                if fragment:
                    yield fragment
            self.trace = self.result.trace
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
        spec = ProjectionSpec(self.plan) if projection else None
        #: The projection automaton, or ``None`` when nothing is filtered:
        #: projection off, or a trivial spec (the root scope captures
        #: everything) that would only cost a lookup per tag.  What the
        #: multi-query engine and the subscription hub attach to *their*
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

    def _run_options(self, **overrides) -> ExecutionOptions:
        """Default options of a run: engine fields + call kwargs."""
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

    def _start(
        self,
        handle,
        mode: str,
        sink,
        options: Optional[ExecutionOptions],
        governor: Optional[MemoryGovernor],
        owns_governor: bool,
        on_finish,
        *,
        stop_at_root_close: bool = False,
        base_offset: int = 0,
        annotations: Optional[dict] = None,
    ) -> RunHandle:
        """Open the one kind of run there is, for any execution shape.

        Resolves options, creates the run's statistics, binds the sink,
        settles governor ownership (an injected governor keeps the caller's
        ownership flag, an absent one is created from the options and owned
        by this run), resolves tracing (:data:`NULL_OBSERVER` unless this
        run traces) and wires executor and document pass into ``handle`` --
        :class:`RunHandle` or its iterable subclass.
        """
        if options is None:
            options = self._run_options()
        stats = RunStatistics()
        bound_sink = resolve_sink(sink, stats, collect_output=options.collect_output)
        if governor is None:
            governor = self._make_governor(options)
            owns_governor = True
        observer = NULL_OBSERVER
        if use_tracing(options.trace):
            observer = Observer()
            observer.mode = mode
        if options.serve_metrics is not None:
            # Start (or reuse) the background /metrics + /progress server;
            # the run itself executes identical code either way.
            _serve.ensure_server(options.serve_metrics)
        filtered = self.projection_spec is not None
        executor = StreamExecutor(
            self.plan,
            stats=stats,
            sink=bound_sink,
            # With the projection filter active, input accounting happens in
            # the pass (pre-drop); the executor must not double-count.
            count_input=not filtered,
            buffer_factory=governor.make_buffer if governor is not None else None,
        )
        doc_pass = DocumentPass(
            self.fanout,
            [stats] if filtered else (),
            expand_attrs=options.expand_attrs,
            stop_at_root_close=stop_at_root_close,
            base_offset=base_offset,
            observer=observer,
        )
        return handle(
            executor,
            doc_pass,
            governor=governor,
            owns_governor=owns_governor,
            on_finish=on_finish,
            observer=observer,
            options=options,
            annotations=annotations,
            mode=mode,
        )

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
        run = self._start(RunHandle, "pull", sink, options, governor, owns_governor, on_finish)
        deque(run._drive(document), maxlen=0)  # run it to completion
        return run.result

    def open_run(
        self,
        *,
        sink=None,
        options: Optional[ExecutionOptions] = None,
        governor: Optional[MemoryGovernor] = None,
        owns_governor: bool = True,
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
        return self._start(
            RunHandle,
            "push",
            sink,
            options,
            governor,
            owns_governor,
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
        """Pull-mode execution yielding serialized output fragments lazily.

        The returned :class:`StreamingRun` is a lazy iterable: input is
        scanned and executed as fragments are pulled, and no full-output
        string is ever materialized.
        """
        return self._start(
            partial(StreamingRun, document),
            "stream",
            FragmentSink(),
            options,
            governor,
            owns_governor,
            on_finish,
        )

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
