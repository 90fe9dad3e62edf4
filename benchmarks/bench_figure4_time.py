"""Figure 4 (execution time): XMark Q1/Q8/Q11/Q13/Q20, three engines, four sizes.

Reproduces the execution-time columns of the paper's Figure 4.  The paper's
engines were FluX (the prototype), Galax 0.3.1 with projection, and the
anonymous commercial engine "AnonX"; here the stand-ins are the FluX engine,
the naive full-materialisation baseline and the projection baseline (see
DESIGN.md for the substitution rationale).

Expected shape (as in the paper):

* Q1/Q13/Q20 scale linearly for FluX and stay cheap,
* Q8/Q11 grow super-linearly for every engine (nested-loop join),
* the naive engine pays the full materialisation cost on every query.
"""

from __future__ import annotations

import pytest

from repro import FluxEngine, NaiveDomEngine, ProjectionDomEngine
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES

from _workload import COUNT_ONLY, FIGURE4_SCALES, record_row, record_summary, xmark_document

_QUERIES = sorted(BENCHMARK_QUERIES)

# The join queries are quadratic; run them on the two smaller documents only
# so the harness stays laptop-sized (the paper itself aborted Galax runs that
# exceeded 500 MB / tens of minutes).
_JOIN_LIMIT_SCALES = set(FIGURE4_SCALES[:2])


def _scales_for(query: str):
    if query in ("Q8", "Q11"):
        return [scale for scale in FIGURE4_SCALES if scale in _JOIN_LIMIT_SCALES]
    return list(FIGURE4_SCALES)


def _cases():
    cases = []
    for query in _QUERIES:
        for scale in _scales_for(query):
            cases.append((query, scale))
    return cases


@pytest.mark.parametrize("query,scale", _cases(), ids=lambda value: str(value))
def test_flux_engine_time(benchmark, query, scale):
    document = xmark_document(scale)
    engine = FluxEngine(BENCHMARK_QUERIES[query], xmark_dtd())

    def run():
        return engine.execute(document, options=COUNT_ONLY)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_row(
        benchmark,
        table="figure4",
        query=query,
        engine="flux",
        document_bytes=len(document),
        seconds=result.stats.elapsed_seconds,
        memory_bytes=result.stats.peak_buffered_bytes,
    )
    record_summary(
        benchmark,
        f"figure4-time-{query}",
        scale=scale,
        wall_seconds=result.stats.elapsed_seconds,
        peak_bytes=result.stats.peak_buffered_bytes,
    )


@pytest.mark.parametrize("query,scale", _cases(), ids=lambda value: str(value))
def test_naive_dom_time(benchmark, query, scale):
    document = xmark_document(scale)
    engine = NaiveDomEngine(BENCHMARK_QUERIES[query])

    def run():
        return engine.run(document, collect_output=False)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_row(
        benchmark,
        table="figure4",
        query=query,
        engine="naive-dom",
        document_bytes=len(document),
        seconds=result.elapsed_seconds,
        memory_bytes=result.peak_buffered_bytes,
    )


@pytest.mark.parametrize("query,scale", _cases(), ids=lambda value: str(value))
def test_projection_dom_time(benchmark, query, scale):
    document = xmark_document(scale)
    engine = ProjectionDomEngine(BENCHMARK_QUERIES[query])

    def run():
        return engine.run(document, collect_output=False)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_row(
        benchmark,
        table="figure4",
        query=query,
        engine="projection-dom",
        document_bytes=len(document),
        seconds=result.elapsed_seconds,
        memory_bytes=result.peak_buffered_bytes,
    )
