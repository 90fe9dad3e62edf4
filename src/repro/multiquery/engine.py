"""The multi-query engine: one document pass, N executing plans.

:class:`MultiQueryEngine` is the runtime half of multi-query execution.  A
run scans (and merged-projects) the document exactly once and fans every
batch out to one executor state per registered query::

                       +-> sub-stream 0 -> executor 0 -> sink 0
    document -> scan ->| merged union filter  ...
                       +-> sub-stream N -> executor N -> sink N

Each executor is an ordinary
:class:`~repro.engine.executor.StreamExecutor` with its own
:class:`~repro.engine.buffers.BufferManager`, its own
:class:`~repro.engine.stats.RunStatistics` and its own output sink, driven
through the ``begin`` / ``process_batch`` / ``finish`` protocol.  Because
the fan-out hands query *i* exactly the events its solo projection filter
would have kept, per-query output and peak-buffer numbers are identical to
N independent runs -- only the shared scan cost is amortized.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional

from repro.engine.engine import FluxRunResult
from repro.engine.executor import StreamExecutor
from repro.engine.stats import RunStatistics
from repro.fastpath import DocumentPass
from repro.obs import recorder as _flight
from repro.obs.metrics import global_registry
from repro.obs.observer import NULL_OBSERVER, Observer, TraceReport, use_tracing
from repro.multiquery.registry import QueryRegistry, RegisteredQuery
from repro.pipeline.fanout import DynamicFanout
from repro.pipeline.sinks import WritableSink
from repro.storage.governor import MemoryGovernor
from repro.xmlstream.parser import DEFAULT_CHUNK_SIZE, DocumentSource

# Process-wide multi-query telemetry (:mod:`repro.obs`): bumped once per
# shared pass, so cost is nil.
_metrics = global_registry()
_PASSES = _metrics.counter("repro.multiquery.passes.total", "Shared multi-query passes")
_PASS_QUERIES = _metrics.counter(
    "repro.multiquery.queries.total", "Queries served across all shared passes"
)


class MultiQueryRun:
    """Per-query results of one shared pass, keyed by registered name."""

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


class MultiQueryEngine:
    """Runs every query of a :class:`QueryRegistry` over one shared scan.

    The union filter is an N-slot :class:`~repro.pipeline.fanout.DynamicFanout`
    attached once from the registry's projection automata and kept while
    the query set is stable; a changed registry ``version`` gets a fresh
    one, so the engine can be kept around while the query set grows.

    ``memory_budget`` caps resident buffered bytes for the *whole* pass:
    every run creates one :class:`~repro.storage.governor.MemoryGovernor`
    shared by all N executor states, so a join-heavy query's buffers are
    spilled before the mix as a whole can outgrow the machine.  Per-query
    output stays byte-identical; per-query statistics carry each query's
    own spill counts and resident high-water marks.
    """

    def __init__(
        self,
        registry: QueryRegistry,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        memory_budget: Optional[int] = None,
        memory_page_bytes: Optional[int] = None,
        governor: Optional[MemoryGovernor] = None,
    ):
        self.registry = registry
        self.chunk_size = chunk_size
        self.memory_budget = memory_budget
        self.memory_page_bytes = memory_page_bytes
        #: An externally-owned governor (the session layer's): when set it
        #: is shared by every pass and never closed here; ``memory_budget``
        #: is ignored in its favour.
        self.governor = governor
        #: The union automaton of the current query set (built by the
        #: first pass, rebuilt when the registry's version moves).
        self.fanout: Optional[DynamicFanout] = None
        self._fanout_version = -1

    # --------------------------------------------------------------- execution

    def run(
        self,
        document: DocumentSource,
        *,
        collect_output: bool = True,
        expand_attrs: bool = False,
        trace: Optional[bool] = None,
    ) -> MultiQueryRun:
        """One shared pass; per-query collected output and statistics.

        ``trace`` requests a pass-level stage breakdown (shared scan vs.
        executor fan-out) on the returned run's ``trace``; ``None`` defers
        to ``REPRO_TRACE`` exactly like single-query runs.
        """

        def executor_for(entry: RegisteredQuery, stats: RunStatistics, factory) -> StreamExecutor:
            return StreamExecutor(
                entry.plan,
                collect_output=collect_output,
                stats=stats,
                count_input=False,
                buffer_factory=factory,
            )

        return self._execute(document, executor_for, expand_attrs, trace)

    def run_to_sinks(
        self,
        document: DocumentSource,
        writables: Mapping[str, object],
        *,
        expand_attrs: bool = False,
        trace: Optional[bool] = None,
    ) -> MultiQueryRun:
        """One shared pass, each query streaming into its own writable.

        ``writables`` maps every registered query name to an object with a
        ``write(str)`` method; fragments are written as they are produced,
        so peak memory is independent of any query's output size.
        """
        missing = [name for name in self.registry.names if name not in writables]
        if missing:
            raise ValueError(f"no writable provided for queries: {missing}")

        def executor_for(entry: RegisteredQuery, stats: RunStatistics, factory) -> StreamExecutor:
            sink = WritableSink(stats, writables[entry.name])
            return StreamExecutor(
                entry.plan, stats=stats, sink=sink, count_input=False, buffer_factory=factory
            )

        return self._execute(document, executor_for, expand_attrs, trace)

    # ---------------------------------------------------------------- internals

    def _execute(
        self, document: DocumentSource, executor_for, expand_attrs: bool, trace: Optional[bool] = None
    ) -> MultiQueryRun:
        entries = list(self.registry)
        if not entries:
            raise ValueError("the registry has no queries; register some first")
        if self._fanout_version != self.registry.version:
            self.fanout = DynamicFanout()
            for entry in entries:
                self.fanout.attach(entry.projection_spec)
            self._fanout_version = self.registry.version
        observer = Observer() if use_tracing(trace) else NULL_OBSERVER
        started_at = time.perf_counter()

        # One governor for the whole pass: all N executors' buffers share
        # the same byte budget, LRU and spill file.  An external
        # (session-owned) governor is shared across passes instead.
        governor: Optional[MemoryGovernor] = self.governor
        owns_governor = False
        factory = None
        if governor is None and self.memory_budget is not None:
            governor = MemoryGovernor(self.memory_budget, page_bytes=self.memory_page_bytes)
            owns_governor = True
        if governor is not None:
            factory = governor.make_buffer

        stats_list = [RunStatistics() for _ in entries]
        executors: List[StreamExecutor] = [
            executor_for(entry, stats, factory) for entry, stats in zip(entries, stats_list)
        ]
        # The shared pass: every query's statistics record its pre-drop
        # totals, so per-query numbers match what a solo run reports.
        doc_pass = DocumentPass(
            self.fanout, stats_list, expand_attrs=expand_attrs, observer=observer
        )
        tracer = observer.tracer
        execute_stage = observer.stage("execute")

        try:
            with tracer.span("execute") as span:
                for executor in executors:
                    executor.begin()
            execute_stage.seconds += span.record.seconds
            for subs in doc_pass.scan(document, self.chunk_size):
                events = 0
                with tracer.span("execute") as span:
                    for executor, sub in zip(executors, subs):
                        if sub:
                            events += len(sub)
                            executor.process_batch(sub)
                execute_stage.charge(span.record.seconds, events)
            with tracer.span("execute") as span:
                executions = [executor.finish() for executor in executors]
            execute_stage.seconds += span.record.seconds
            results = {
                entry.name: FluxRunResult(output=execution.output, stats=execution.stats)
                for entry, execution in zip(entries, executions)
            }
            memory = governor.telemetry() if governor is not None else None
        except BaseException as exc:
            if isinstance(exc, Exception):
                # Forensics for the whole pass: the shared ring plus the
                # first query's statistics stand in for the pass state.
                _flight.dump_crash(
                    exc,
                    stats=stats_list[0] if stats_list else None,
                    mode="multiquery",
                    queries=[entry.name for entry in entries],
                )
            # A failed pass must not leave N executors' live buffer pages
            # charged against an external (session-owned) governor; an
            # owned governor is closed below, releasing everything at once.
            if governor is not None and not owns_governor:
                for executor in executors:
                    try:
                        executor.abort()
                    except Exception:  # noqa: BLE001 - best-effort cleanup
                        pass
            raise
        finally:
            if owns_governor and governor is not None:
                governor.close()
        elapsed = time.perf_counter() - started_at
        _PASSES.inc()
        _PASS_QUERIES.inc(len(entries))
        trace_report = None
        if observer.enabled:
            # Pass-level totals for the report's byte columns: input is the
            # shared document (every query's statistics carry the same
            # pre-drop totals), output is the sum over all queries.
            observer.mode = "multiquery"
            totals = RunStatistics()
            totals.input_bytes = stats_list[0].input_bytes if stats_list else 0
            totals.output_bytes = sum(stats.output_bytes for stats in stats_list)
            totals.elapsed_seconds = elapsed
            trace_report = observer.finish(totals)
        return MultiQueryRun(results, elapsed, memory=memory, trace=trace_report)
