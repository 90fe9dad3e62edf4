"""Section-6 claim: the join queries buffer only a small projected fraction.

"Queries 8 and 11 perform a join on two subtrees (i.e. of people and
closed_auction resp. open_auction) and therefore inevitably have to buffer
elements.  Nevertheless, due to our effective projection scheme only a small
fraction of the original data is buffered."
"""

from __future__ import annotations

import pytest

from repro import FluxEngine, NaiveDomEngine
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES

from _workload import COUNT_ONLY, record_row, xmark_document


@pytest.mark.parametrize("query", ["Q8", "Q11"])
def test_join_queries_buffer_a_small_fraction(benchmark, query):
    document = xmark_document(0.1)
    engine = FluxEngine(BENCHMARK_QUERIES[query], xmark_dtd())

    def run():
        return engine.execute(document, options=COUNT_ONLY)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    fraction = result.stats.peak_buffered_bytes / len(document)
    record_row(
        benchmark,
        table="projection-fraction",
        query=query,
        document_bytes=len(document),
        peak_buffered_bytes=result.stats.peak_buffered_bytes,
        fraction_of_document=round(fraction, 4),
    )
    assert 0 < fraction < 0.4


@pytest.mark.parametrize("query", ["Q8", "Q11"])
def test_flux_buffers_far_less_than_the_naive_engine(benchmark, query):
    document = xmark_document(0.1)
    flux_engine = FluxEngine(BENCHMARK_QUERIES[query], xmark_dtd())
    naive_engine = NaiveDomEngine(BENCHMARK_QUERIES[query])

    def run():
        flux = flux_engine.execute(document, options=COUNT_ONLY)
        naive = naive_engine.run(document, collect_output=False)
        return flux, naive

    flux, naive = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = naive.peak_buffered_bytes / max(1, flux.stats.peak_buffered_bytes)
    record_row(
        benchmark,
        table="projection-fraction",
        query=f"{query}-vs-naive",
        naive_over_flux_memory_ratio=round(ratio, 2),
    )
    assert ratio > 2.0
