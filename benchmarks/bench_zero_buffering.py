"""Section-6 claims: Q1/Q13 run with zero buffering, Q20 holds one element.

Regenerates the in-text memory claims of the evaluation section:

* "Queries 1 and 13 are evaluated on-the-fly without any buffering because of
  the order constraints imposed by the DTD."
* "Query 20 has to buffer only a single element at a time, which leads to
  very low memory consumption."
"""

from __future__ import annotations

import pytest

from repro import FluxEngine
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmlstream.parser import parse_tree

from _workload import COUNT_ONLY, record_row, xmark_document


@pytest.mark.parametrize("query", ["Q1", "Q13"])
def test_streamable_queries_buffer_nothing(benchmark, query):
    document = xmark_document(0.2)
    engine = FluxEngine(BENCHMARK_QUERIES[query], xmark_dtd())

    def run():
        return engine.execute(document, options=COUNT_ONLY)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_row(
        benchmark,
        table="zero-buffering",
        query=query,
        peak_buffered_bytes=result.stats.peak_buffered_bytes,
        peak_buffered_events=result.stats.peak_buffered_events,
    )
    assert result.stats.peak_buffered_events == 0
    assert result.stats.peak_buffered_bytes == 0


def test_q20_buffers_one_person_at_a_time(benchmark):
    document = xmark_document(0.2)
    engine = FluxEngine(BENCHMARK_QUERIES["Q20"], xmark_dtd())

    def run():
        return engine.execute(document, options=COUNT_ONLY)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    root = parse_tree(document)
    people = root.select_path(("people", "person"))
    largest_person = max(len(person.to_events()) for person in people)
    record_row(
        benchmark,
        table="zero-buffering",
        query="Q20",
        peak_buffered_events=result.stats.peak_buffered_events,
        largest_person_events=largest_person,
    )
    assert 0 < result.stats.peak_buffered_events <= largest_person


def test_q1_memory_is_independent_of_document_size(benchmark):
    engine = FluxEngine(BENCHMARK_QUERIES["Q1"], xmark_dtd())
    documents = [xmark_document(scale) for scale in (0.05, 0.2, 0.4)]

    def run():
        return [engine.execute(document, options=COUNT_ONLY).stats for document in documents]

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    peaks = [entry.peak_buffered_bytes for entry in stats]
    record_row(benchmark, table="zero-buffering", query="Q1-scaling", peaks=peaks)
    assert peaks == [0, 0, 0]
