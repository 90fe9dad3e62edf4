"""Pipeline-stage ablation: what each stage of the push-based pipeline buys.

Not part of the paper's figures -- this bench quantifies the engineering
constant factors of the compiled pipeline on the XMark workload:

* ``projection`` vs ``no-projection``: the pre-executor projection filter
  (events of provably untouched subtrees never reach the executor),
* ``streaming``: the fragment-yielding output path (`stream`),
  which must cost the same as a collected run while never materializing
  the result.

All modes must produce byte-identical output; the bench asserts it.
"""

from __future__ import annotations

import pytest

from repro import FluxEngine
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES

from _workload import COUNT_ONLY, FIGURE4_SCALES, record_row, record_summary, xmark_document

_SCALE = FIGURE4_SCALES[min(1, len(FIGURE4_SCALES) - 1)]
_QUERIES = sorted(BENCHMARK_QUERIES)


@pytest.mark.parametrize("query", _QUERIES)
def test_projection_filter_throughput(benchmark, query):
    document = xmark_document(_SCALE)
    projected = FluxEngine(BENCHMARK_QUERIES[query], xmark_dtd())
    unfiltered = FluxEngine(BENCHMARK_QUERIES[query], xmark_dtd(), projection=False)
    assert projected.execute(document).output == unfiltered.execute(document).output

    result = benchmark.pedantic(
        lambda: projected.execute(document, options=COUNT_ONLY), rounds=1, iterations=1
    )
    baseline = unfiltered.execute(document, options=COUNT_ONLY)
    record_row(
        benchmark,
        table="pipeline",
        query=query,
        mode="projection",
        document_bytes=len(document),
        seconds=result.stats.elapsed_seconds,
        baseline_seconds=baseline.stats.elapsed_seconds,
    )
    record_summary(
        benchmark,
        f"pipeline-projection-{query}",
        scale=_SCALE,
        wall_seconds=result.stats.elapsed_seconds,
        peak_bytes=result.stats.peak_buffered_bytes,
    )


@pytest.mark.parametrize("query", _QUERIES)
def test_streaming_output_throughput(benchmark, query):
    document = xmark_document(_SCALE)
    engine = FluxEngine(BENCHMARK_QUERIES[query], xmark_dtd())
    collected = engine.execute(document).output

    def run():
        streaming_run = engine.stream(document)
        return "".join(streaming_run), streaming_run.stats

    streamed, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert streamed == collected
    record_row(
        benchmark,
        table="pipeline",
        query=query,
        mode="streaming",
        document_bytes=len(document),
        seconds=stats.elapsed_seconds,
    )
