"""Appendix B: punctuation/validation overhead per input token.

The paper argues that generating on-first-past punctuation costs "one
validating DFA transition and one constant-time lookup per input token".
The bench compares plain parsing against parsing-plus-validation and against
a full FluX run of a streamable query, so the per-event overhead of the
schema machinery is visible.
"""

from __future__ import annotations

from repro import FluxEngine
from repro.dtd.validator import StreamValidator
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmlstream.parser import iter_events

from _workload import COUNT_ONLY, record_row, xmark_document


def test_plain_parsing_throughput(benchmark):
    document = xmark_document(0.1)

    def run():
        count = 0
        for _event in iter_events(document):
            count += 1
        return count

    events = benchmark(run)
    record_row(benchmark, table="validator", stage="parse-only", events=events)
    assert events > 0


def test_parsing_with_validation_throughput(benchmark):
    document = xmark_document(0.1)
    dtd = xmark_dtd()

    def run():
        validator = StreamValidator(dtd, expected_root="site")
        count = 0
        for event in iter_events(document):
            validator.feed(event)
            count += 1
        report = validator.finish()
        return count, report

    events, report = benchmark(run)
    record_row(benchmark, table="validator", stage="parse+validate", events=events)
    assert report.is_valid


def test_streaming_query_throughput(benchmark):
    document = xmark_document(0.1)
    engine = FluxEngine(BENCHMARK_QUERIES["Q13"], xmark_dtd())

    def run():
        return engine.execute(document, options=COUNT_ONLY)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    record_row(
        benchmark,
        table="validator",
        stage="flux-q13",
        events=result.stats.input_events,
    )
    assert result.stats.peak_buffered_events == 0
