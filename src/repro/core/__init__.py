"""Public API of the FluX reproduction.

Start with a :class:`FluxSession` -- the long-lived object a service keeps
per schema:

* :meth:`FluxSession.prepare` -- schedule + compile a query once (LRU plan
  cache keyed on normalized query text and the DTD fingerprint); returns a
  :class:`PreparedQuery`,
* :meth:`PreparedQuery.execute` -- one document through the compiled plan,
  output to any :mod:`~repro.pipeline.sinks` target, behaviour in one
  :class:`ExecutionOptions`,
* :meth:`PreparedQuery.open_run` -- push mode: ``feed(chunk)`` /
  ``finish()`` for network-arriving documents,
* :meth:`FluxSession.prepare_many` -- N queries, one shared document pass.

:func:`compile_to_flux` exposes the scheduling rewrite itself (the paper's
Sections 4.1/4.2); the one-shot helpers (:func:`run_query` and friends) and
:class:`FluxEngine` remain as shims for quick scripts and the pre-session
API.  The baseline engines (:class:`NaiveDomEngine`,
:class:`ProjectionDomEngine`) are re-exported for side-by-side comparisons
(``benchmarks/perf`` verifies every result against the naive one).
"""

from repro.core.api import (
    CompiledQuery,
    compare_engines,
    compile_to_flux,
    load_dtd,
    run_queries,
    run_query,
    run_query_streaming,
    run_query_to_sink,
)
from repro.core.options import DEFAULT_OPTIONS, ExecutionOptions, FeedOptions
from repro.core.session import (
    FluxSession,
    PlanCache,
    PlanKey,
    PreparedQuery,
    PreparedQuerySet,
    SessionStatistics,
)
from repro.baselines import NaiveDomEngine, ProjectionDomEngine
from repro.engine.engine import FluxEngine, FluxRunResult, RunHandle, StreamingRun
from repro.engine.stats import RunStatistics
from repro.feeds import DocumentResult, FeedHandle, FeedResult
from repro.multiquery import MultiQueryEngine, MultiQueryRun, QueryRegistry
from repro.pipeline.sinks import (
    CollectSink,
    FragmentSink,
    NullSink,
    OutputSink,
    WritableSink,
)
from repro.obs import (
    MetricsRegistry,
    TraceReport,
    Tracer,
    global_registry,
    prometheus_text,
    validate_span_tree,
)
from repro.storage import MemoryGovernor, parse_memory_budget

__all__ = [
    "CollectSink",
    "CompiledQuery",
    "DEFAULT_OPTIONS",
    "DocumentResult",
    "ExecutionOptions",
    "FeedHandle",
    "FeedOptions",
    "FeedResult",
    "FluxEngine",
    "FluxRunResult",
    "FluxSession",
    "FragmentSink",
    "MemoryGovernor",
    "MetricsRegistry",
    "MultiQueryEngine",
    "MultiQueryRun",
    "NaiveDomEngine",
    "NullSink",
    "OutputSink",
    "PlanCache",
    "PlanKey",
    "PreparedQuery",
    "PreparedQuerySet",
    "ProjectionDomEngine",
    "QueryRegistry",
    "RunHandle",
    "RunStatistics",
    "SessionStatistics",
    "StreamingRun",
    "TraceReport",
    "Tracer",
    "WritableSink",
    "compare_engines",
    "compile_to_flux",
    "global_registry",
    "load_dtd",
    "parse_memory_budget",
    "prometheus_text",
    "run_queries",
    "run_query",
    "run_query_streaming",
    "run_query_to_sink",
    "validate_span_tree",
]
