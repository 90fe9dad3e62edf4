"""Multi-query shared-stream execution.

The paper's engine compiles *one* query into *one* event-processor network.
This subsystem amortizes the dominant shared cost -- scanning and filtering
the document -- across a whole registered query set:

* :class:`QueryRegistry` compiles and holds N plans for one DTD,
* an N-slot :class:`~repro.pipeline.fanout.DynamicFanout` is the union of
  the per-query projection filters, with per-query membership masks,
* :class:`MultiQueryEngine` runs the document-side stages once and fans
  each batch out to N independent executor states (own buffers, own
  statistics, own sink) -- one :class:`~repro.engine.engine.RunHandle`
  with a seat per query, configured by one
  :class:`~repro.core.options.ExecutionOptions`.

Quickstart::

    from repro.multiquery import MultiQueryEngine, QueryRegistry
    from repro.xmark.dtd import xmark_dtd
    from repro.xmark.queries import BENCHMARK_QUERIES

    registry = QueryRegistry(xmark_dtd())
    for name, query in BENCHMARK_QUERIES.items():
        registry.register(name, query)

    run = MultiQueryEngine(registry).run("xmark.xml")
    for name, result in run.items():
        print(name, result.stats.summary())

:func:`repro.core.api.run_queries` wraps this in a one-shot call.
"""

from repro.multiquery.engine import MultiQueryEngine, MultiQueryRun
from repro.multiquery.registry import QueryRegistry, RegisteredQuery

__all__ = [
    "MultiQueryEngine",
    "MultiQueryRun",
    "QueryRegistry",
    "RegisteredQuery",
]
