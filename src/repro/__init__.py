"""repro -- reproduction of the FluX system (VLDB 2004).

"Schema-based Scheduling of Event Processors and Buffer Minimization for
Queries on Structured Data Streams" introduced FluX, an event-based extension
of XQuery, together with an algorithm that uses DTD order constraints to
schedule query evaluation over XML streams with minimal main-memory
buffering.  This package reimplements the complete system:

* :mod:`repro.xmlstream` -- streaming XML substrate (events, parser, trees),
* :mod:`repro.dtd` -- DTDs, Glushkov automata, order/cardinality constraints,
* :mod:`repro.xquery` -- the XQuery⁻ fragment, normalisation, reference
  semantics,
* :mod:`repro.flux` -- the FluX language, the scheduling rewrite, safety,
* :mod:`repro.fastpath` / :mod:`repro.pipeline` -- the push-based event
  pipeline (scan -> materialize -> execute -> sink): the projecting byte
  scanner, the pre-executor projection automaton and the unified Sink
  protocol,
* :mod:`repro.engine` -- the streaming engine with projected buffers,
* :mod:`repro.storage` -- bounded-memory execution: a memory governor with
  a hard byte budget over spillable buffer pages and a temp-file spill store,
* :mod:`repro.obs` -- observability: per-run span tracing with stage
  breakdowns, a process-wide metrics registry, and JSONL / Prometheus-text
  exporters (``ExecutionOptions(trace=True)`` or ``repro run --trace``),
* :mod:`repro.baselines` -- full-materialisation and projection baselines,
* :mod:`repro.conformance` -- randomized conformance testing: a seeded
  DTD-directed case generator, a cross-engine differential oracle, a
  failing-case shrinker and the replayable ``.case`` format behind the
  ``repro fuzz`` CLI,
* :mod:`repro.xmark` -- XMark-like workload generator and benchmark queries,
* :mod:`repro.core` -- the public API (start here), including multi-query
  shared-stream execution (``prepare_many``: one scan, N queries, merged
  projection with membership masks).

The public surface is session-oriented: a :class:`FluxSession` holds the
schema, an LRU plan cache (scheduling against the DTD is the expensive,
perfectly cacheable step) and, optionally, one memory governor shared by
every run.  Prepared queries execute over pull-mode documents (text, path,
file object, chunk iterable) or in **push mode**, fed chunk by chunk as
data arrives from a network.

Quickstart::

    from repro import FluxSession

    session = FluxSession(open("bib.dtd").read(), root_element="bib")
    query = session.prepare(open("query.xq").read())   # compiled once, cached

    result = query.execute("bib.xml")                  # pull mode
    print(result.output)
    print(result.stats.summary())

    with query.open_run() as run:                      # push mode
        for chunk in network_chunks:
            run.feed(chunk)
    print(run.result.output)

    both = session.prepare_many({"a": SOURCE_A, "b": SOURCE_B})
    print(both.execute("bib.xml").outputs())           # one shared pass

``prepare`` and ``prepare_many`` return the same :class:`PreparedQuery`
(one unnamed member, or N named ones) with the same four verbs:
``execute``, ``stream``, ``open_run`` and ``open_feed``.  Each opens one
:class:`RunHandle` with a seat per member, configured by one
:class:`ExecutionOptions`; the subscription hub opens its own per
document.  A run seals to a :class:`FluxRunResult` for an unnamed member
and to a :class:`MultiQueryRun` for named ones.  ``prepare`` is also the
one way to compile: a prepared query shows its scheduled FluX query
(``flux_source``) and buffer trees (``describe_buffers()``).
"""

from repro.core import (
    CollectSink,
    DEFAULT_OPTIONS,
    DocumentResult,
    ExecutionOptions,
    FeedHandle,
    FeedResult,
    FluxEngine,
    FluxRunResult,
    FluxSession,
    FragmentSink,
    MemoryGovernor,
    MetricsRegistry,
    MultiQueryRun,
    NaiveDomEngine,
    NullSink,
    OutputSink,
    PlanCache,
    PlanKey,
    PreparedQuery,
    ProjectionDomEngine,
    RunHandle,
    RunStatistics,
    SessionStatistics,
    StreamingRun,
    TraceReport,
    Tracer,
    WritableSink,
    compare_engines,
    global_registry,
    load_dtd,
    parse_memory_budget,
    prometheus_text,
    validate_span_tree,
)

__version__ = "1.3.0"

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
    "__version__",
    "compare_engines",
    "global_registry",
    "load_dtd",
    "parse_memory_budget",
    "prometheus_text",
    "validate_span_tree",
]
