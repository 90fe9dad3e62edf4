"""Theorem 4.3 / Section 6: query rewriting is cheap.

"The times taken for query rewriting were negligible and are not reported
separately in our experiments."  The bench measures the full
normalise-simplify-schedule-compile pipeline for the benchmark queries and
for synthetically growing queries, and contrasts it with a document run.
"""

from __future__ import annotations

import pytest

from repro import FluxEngine
from repro.engine.plan import compile_plan
from repro.flux.rewrite import rewrite_query
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xquery.parser import parse_query

from _workload import COUNT_ONLY, record_row, xmark_document


@pytest.mark.parametrize("query", sorted(BENCHMARK_QUERIES))
def test_rewrite_and_compile_cost(benchmark, query):
    dtd = xmark_dtd()
    expr = parse_query(BENCHMARK_QUERIES[query])

    def run():
        flux = rewrite_query(expr, dtd)
        return compile_plan(flux, dtd)

    plan = benchmark(run)
    record_row(
        benchmark,
        table="rewrite-cost",
        query=query,
        buffered_variables=len(plan.buffer_trees),
    )
    assert plan.root_scope is not None


def _synthetic_query(width: int) -> str:
    """A query whose normal form grows linearly with ``width``."""
    fields = ["name", "emailaddress", "phone", "homepage", "creditcard"]
    parts = "".join("{$p/" + fields[i % len(fields)] + "}" for i in range(width))
    return "<out>{ for $p in /site/people/person return <row>" + parts + "</row> }</out>"


@pytest.mark.parametrize("width", [2, 8, 32])
def test_rewrite_cost_scales_with_query_size(benchmark, width):
    dtd = xmark_dtd()
    expr = parse_query(_synthetic_query(width))

    def run():
        return rewrite_query(expr, dtd)

    flux = benchmark(run)
    record_row(benchmark, table="rewrite-cost", query=f"synthetic-{width}")
    assert flux is not None


def test_rewrite_is_negligible_compared_to_execution(benchmark):
    document = xmark_document(0.1)
    dtd = xmark_dtd()
    expr = parse_query(BENCHMARK_QUERIES["Q13"])

    def run():
        import time

        started = time.perf_counter()
        engine = FluxEngine(expr, dtd)
        compile_seconds = time.perf_counter() - started
        result = engine.execute(document, options=COUNT_ONLY)
        return compile_seconds, result.stats.elapsed_seconds

    compile_seconds, run_seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    record_row(
        benchmark,
        table="rewrite-cost",
        query="Q13-compile-vs-run",
        compile_seconds=round(compile_seconds, 5),
        run_seconds=round(run_seconds, 5),
    )
    assert compile_seconds < run_seconds
