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
from typing import Dict, Mapping, Optional

from repro.core.options import ExecutionOptions
from repro.engine.engine import FluxRunResult, RunHandle
from repro.obs.metrics import global_registry
from repro.obs.observer import TraceReport
from repro.multiquery.registry import QueryRegistry
from repro.pipeline.fanout import DynamicFanout
from repro.storage.governor import MemoryGovernor
from repro.xmlstream.parser import DocumentSource

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

    The union filter is the registry's N-slot
    :class:`~repro.pipeline.fanout.DynamicFanout`
    (:meth:`QueryRegistry.fanout`): attached once per registry ``version``
    whichever engine runs the pass, so neither a kept engine nor the
    session layer's engine-per-``execute`` re-attaches a stable query set.

    A pass is one :class:`~repro.engine.engine.RunHandle` with a seat per
    registered query, driven exactly like a solo ``execute``.  ``options``
    carries every per-run knob; its ``memory_budget`` caps resident
    buffered bytes for the *whole* pass -- one
    :class:`~repro.storage.governor.MemoryGovernor` shared by all N seats,
    so a join-heavy query's buffers are spilled before the mix as a whole
    can outgrow the machine.  A ``governor`` passed here (the session
    layer's) is borrowed by every pass instead and never closed.  Per-query
    output stays byte-identical; per-query statistics carry each query's
    own spill counts and resident high-water marks.
    """

    def __init__(
        self,
        registry: QueryRegistry,
        *,
        options: Optional[ExecutionOptions] = None,
        governor: Optional[MemoryGovernor] = None,
    ):
        self.registry = registry
        self.options = options
        self.governor = governor

    @property
    def fanout(self) -> DynamicFanout:
        """The registry's union automaton, which every pass runs over."""
        return self.registry.fanout()

    # --------------------------------------------------------------- execution

    def run(self, document: DocumentSource) -> MultiQueryRun:
        """One shared pass; per-query collected output (or only counts, per
        ``options.collect_output``) and statistics.  A traced pass
        (``options.trace`` / ``REPRO_TRACE``) carries the pass-level stage
        breakdown -- shared scan vs. executor fan-out -- on ``trace``.
        """
        return self._shared_pass(document, {})

    def run_to_sinks(
        self, document: DocumentSource, writables: Mapping[str, object]
    ) -> MultiQueryRun:
        """One shared pass, each query streaming into its own writable.

        ``writables`` maps every registered query name to an object with a
        ``write(str)`` method; fragments are written as they are produced,
        so peak memory is independent of any query's output size.
        """
        missing = [name for name in self.registry.names if name not in writables]
        if missing:
            raise ValueError(f"no writable provided for queries: {missing}")
        return self._shared_pass(document, writables)

    # ---------------------------------------------------------------- internals

    def _shared_pass(self, document: DocumentSource, sinks: Mapping[str, object]) -> MultiQueryRun:
        entries = list(self.registry)
        if not entries:
            raise ValueError("the registry has no queries; register some first")
        started_at = time.perf_counter()
        run = RunHandle(
            self.fanout,
            [(entry.plan, sinks.get(entry.name), entry.name) for entry in entries],
            self.options,
            governor=self.governor,
            mode="multiquery",
        ).drive(document)
        elapsed = time.perf_counter() - started_at
        _PASSES.inc()
        _PASS_QUERIES.inc(len(entries))
        results = {entry.name: result for entry, result in zip(entries, run.results)}
        return MultiQueryRun(results, elapsed, memory=run.memory, trace=run.trace)
