"""Section-6 observation: nested-loop joins make Q8/Q11 grow super-linearly.

"The rapid increase in execution time is due to the fact that we compute
joins by naive nested loops at the moment."  The bench measures Q8 at two
document sizes and checks that the time ratio clearly exceeds the size ratio,
while the streamable Q13 stays roughly linear.
"""

from __future__ import annotations

from repro import FluxEngine
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES

from _workload import COUNT_ONLY, record_row, xmark_document

_SMALL_SCALE = 0.05
_LARGE_SCALE = 0.2


def _timed_run(query: str, document: str) -> float:
    engine = FluxEngine(BENCHMARK_QUERIES[query], xmark_dtd())
    return engine.execute(document, options=COUNT_ONLY).stats.elapsed_seconds


def test_join_query_time_grows_superlinearly(benchmark):
    small = xmark_document(_SMALL_SCALE)
    large = xmark_document(_LARGE_SCALE)

    def run():
        return _timed_run("Q8", small), _timed_run("Q8", large)

    small_time, large_time = benchmark.pedantic(run, rounds=1, iterations=1)
    size_ratio = len(large) / len(small)
    time_ratio = large_time / max(small_time, 1e-9)
    record_row(
        benchmark,
        table="join-scaling",
        query="Q8",
        size_ratio=round(size_ratio, 2),
        time_ratio=round(time_ratio, 2),
    )
    # Quadratic join: the time ratio must clearly exceed the size ratio.
    assert time_ratio > 1.5 * size_ratio


def test_streaming_query_time_grows_roughly_linearly(benchmark):
    small = xmark_document(_SMALL_SCALE)
    large = xmark_document(_LARGE_SCALE)

    def run():
        return _timed_run("Q13", small), _timed_run("Q13", large)

    small_time, large_time = benchmark.pedantic(run, rounds=1, iterations=1)
    size_ratio = len(large) / len(small)
    time_ratio = large_time / max(small_time, 1e-9)
    record_row(
        benchmark,
        table="join-scaling",
        query="Q13",
        size_ratio=round(size_ratio, 2),
        time_ratio=round(time_ratio, 2),
    )
    # Streaming evaluation: time grows roughly with the document size.
    assert time_ratio < 3.0 * size_ratio
