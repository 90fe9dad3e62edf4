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
* :meth:`FluxSession.prepare_many` -- N named queries, one shared document
  pass: the same :class:`PreparedQuery`, whose runs seal to a
  :class:`MultiQueryRun`.

:meth:`FluxSession.prepare` is the one way to compile: the
:class:`FluxEngine` it caches runs the paper's scheduling rewrite
(Sections 4.1/4.2) and builds the executor plan, which a prepared query
exposes as ``flux_source``, ``describe_buffers()`` and ``plan``.  The
baseline engines (:class:`NaiveDomEngine`, :class:`ProjectionDomEngine`)
are re-exported for side-by-side comparisons (:func:`compare_engines`;
``benchmarks/perf`` verifies every result against the naive one).
"""

from repro.core.api import compare_engines, load_dtd
from repro.core.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.core.session import (
    FluxSession,
    PlanCache,
    PlanKey,
    PreparedQuery,
    SessionStatistics,
)
from repro.baselines import NaiveDomEngine, ProjectionDomEngine
from repro.engine.engine import FluxEngine, FluxRunResult, MultiQueryRun, RunHandle, StreamingRun
from repro.engine.stats import RunStatistics
from repro.feeds import DocumentResult, FeedHandle, FeedResult
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
    "DEFAULT_OPTIONS",
    "DocumentResult",
    "ExecutionOptions",
    "FeedHandle",
    "FeedResult",
    "FluxEngine",
    "FluxRunResult",
    "FluxSession",
    "FragmentSink",
    "MemoryGovernor",
    "MetricsRegistry",
    "MultiQueryRun",
    "NaiveDomEngine",
    "NullSink",
    "OutputSink",
    "PlanCache",
    "PlanKey",
    "PreparedQuery",
    "ProjectionDomEngine",
    "RunHandle",
    "RunStatistics",
    "SessionStatistics",
    "StreamingRun",
    "TraceReport",
    "Tracer",
    "WritableSink",
    "compare_engines",
    "global_registry",
    "load_dtd",
    "parse_memory_budget",
    "prometheus_text",
    "validate_span_tree",
]
