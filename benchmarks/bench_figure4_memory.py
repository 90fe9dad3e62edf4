"""Figure 4 (maximum memory): peak buffered bytes per query, engine and size.

The paper reports maximum memory consumption next to each execution time; the
key qualitative findings are

* FluX buffers nothing for Q1 and Q13 regardless of document size,
* FluX buffers a constant-size fragment for Q20 (one person at a time),
* FluX buffers a small, linearly growing projected fraction for Q8/Q11,
* the DOM baselines buffer (a projection of) the whole document, growing
  linearly for every query.

The benchmark times the memory measurement run itself (cheap); the numbers of
interest are recorded in ``extra_info`` and printed by the terminal summary.
"""

from __future__ import annotations

import pytest

from repro import FluxEngine, NaiveDomEngine, ProjectionDomEngine
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES

from _workload import COUNT_ONLY, FIGURE4_SCALES, record_row, xmark_document

_MEMORY_SCALES = FIGURE4_SCALES[:3]


@pytest.mark.parametrize("query", sorted(BENCHMARK_QUERIES))
def test_flux_memory_across_sizes(benchmark, query):
    engine = FluxEngine(BENCHMARK_QUERIES[query], xmark_dtd())
    documents = [xmark_document(scale) for scale in _MEMORY_SCALES]

    def run():
        return [engine.execute(document, options=COUNT_ONLY).stats for document in documents]

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    peaks = [entry.peak_buffered_bytes for entry in stats]
    benchmark.extra_info["peak_bytes_by_size"] = peaks
    record_row(
        benchmark,
        table="figure4-memory",
        query=query,
        engine="flux",
        peaks=peaks,
        document_bytes=[len(document) for document in documents],
    )
    # Shape assertions mirroring the paper's claims.
    if query in ("Q1", "Q13"):
        assert all(peak == 0 for peak in peaks)
    if query == "Q20":
        assert max(peaks) < 0.05 * len(documents[-1])
    if query in ("Q8", "Q11"):
        assert all(0 < peak < 0.4 * len(document) for peak, document in zip(peaks, documents))


@pytest.mark.parametrize("engine_name", ["naive-dom", "projection-dom"])
def test_baseline_memory_across_sizes(benchmark, engine_name):
    query = BENCHMARK_QUERIES["Q1"]
    documents = [xmark_document(scale) for scale in _MEMORY_SCALES]
    factory = NaiveDomEngine if engine_name == "naive-dom" else ProjectionDomEngine
    engine = factory(query)

    def run():
        return [engine.run(document, collect_output=False) for document in documents]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    peaks = [result.peak_buffered_bytes for result in results]
    record_row(
        benchmark,
        table="figure4-memory",
        query="Q1",
        engine=engine_name,
        peaks=peaks,
        document_bytes=[len(document) for document in documents],
    )
    # Baseline memory grows with the document.
    assert peaks[-1] > peaks[0]
