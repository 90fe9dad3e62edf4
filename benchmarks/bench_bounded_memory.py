"""Bounded-memory execution: hard resident caps on large XMark documents.

Not part of the paper's figures -- this bench demonstrates the contract of
:mod:`repro.storage` on the benchmark workload:

* **cap** -- with ``memory_budget`` set to *half* the unbounded peak of a
  query, the resident high-water mark stays at or under the budget, the
  spill machinery visibly engages (spill counters > 0), and the output is
  byte-identical to the unbounded run.  Q8 is the interesting case: its
  join buffers dominate the unbounded peak; Q1/Q13 run with zero buffering
  and must sail through a tiny budget without ever touching disk.
* **tax** -- with a *generous* budget (several times the unbounded peak)
  nothing spills, and throughput stays within 15% of the unbounded
  engine: admission accounting and page bookkeeping are the only cost.

Rows land in ``BENCH_bounded_memory.json`` (budget, resident peak, spill
counts, per-query seconds) for the perf trajectory.
"""

from __future__ import annotations

import pytest

from repro import ExecutionOptions, FluxEngine
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES

from _workload import COUNT_ONLY, FIGURE4_SCALES, record_row, record_summary, xmark_document

_SCALE = FIGURE4_SCALES[-1]
_QUERIES = ("Q1", "Q8", "Q13")

#: The resident floor a degenerate budget bottoms out at.
_MIN_BUDGET = 4096

#: Below this document size, fixed per-run overheads drown the throughput
#: signal; the <15% tax is only asserted on meaningful inputs.
_MIN_DOCUMENT_BYTES = 100_000


@pytest.mark.parametrize("query", _QUERIES)
def test_budget_below_peak_caps_residency(benchmark, query):
    """Half-the-peak budget: resident <= budget, spills engaged, same bytes."""
    document = xmark_document(_SCALE)
    unbounded_engine = FluxEngine(BENCHMARK_QUERIES[query], xmark_dtd())
    unbounded = unbounded_engine.execute(document)
    peak = unbounded.stats.peak_buffered_bytes
    budget = max(peak // 2, _MIN_BUDGET)

    bounded_engine = FluxEngine(BENCHMARK_QUERIES[query], xmark_dtd())
    bounded = ExecutionOptions(memory_budget=budget)
    # Correctness outside the timed region: byte-identical output.
    assert bounded_engine.execute(document, options=bounded).output == unbounded.output

    result = benchmark.pedantic(
        lambda: bounded_engine.execute(document, options=bounded.replace(collect_output=False)),
        rounds=1,
        iterations=1,
    )
    stats = result.stats
    assert stats.peak_resident_bytes <= budget
    if budget < peak:
        # The budget actually binds (Q8): spilling must have engaged.
        assert stats.spill_count > 0
        assert stats.spilled_bytes_written > 0
    else:
        # Zero-buffering queries (Q1/Q13) never touch disk.
        assert stats.spill_count == 0

    record_row(
        benchmark,
        table="bounded_memory",
        query=query,
        mode="half-peak-budget",
        document_bytes=len(document),
        unbounded_peak_bytes=peak,
        budget_bytes=budget,
        peak_resident_bytes=stats.peak_resident_bytes,
        spill_count=stats.spill_count,
        spilled_bytes_written=stats.spilled_bytes_written,
        page_faults=stats.page_faults,
        seconds=stats.elapsed_seconds,
        unbounded_seconds=unbounded.stats.elapsed_seconds,
    )
    record_summary(
        benchmark,
        f"bounded-memory-{query}",
        scale=_SCALE,
        wall_seconds=stats.elapsed_seconds,
        peak_bytes=stats.peak_resident_bytes,
    )


def test_generous_budget_throughput_tax(benchmark):
    """A budget above the peak must cost <15% throughput and zero spills."""
    document = xmark_document(_SCALE)
    query = BENCHMARK_QUERIES["Q8"]
    unbounded_engine = FluxEngine(query, xmark_dtd())
    unbounded = unbounded_engine.execute(document, options=COUNT_ONLY)
    peak = unbounded.stats.peak_buffered_bytes
    budget = peak * 4 + 64 * 1024

    bounded_engine = FluxEngine(query, xmark_dtd())
    bounded = COUNT_ONLY.replace(memory_budget=budget)
    result = benchmark.pedantic(
        lambda: bounded_engine.execute(document, options=bounded), rounds=1, iterations=1
    )
    stats = result.stats
    assert stats.spill_count == 0
    assert stats.peak_resident_bytes == peak

    seconds = stats.elapsed_seconds
    baseline = unbounded.stats.elapsed_seconds
    record_row(
        benchmark,
        table="bounded_memory",
        query="Q8",
        mode="generous-budget",
        document_bytes=len(document),
        unbounded_peak_bytes=peak,
        budget_bytes=budget,
        peak_resident_bytes=stats.peak_resident_bytes,
        spill_count=stats.spill_count,
        spilled_bytes_written=stats.spilled_bytes_written,
        page_faults=stats.page_faults,
        seconds=seconds,
        unbounded_seconds=baseline,
    )
    if len(document) >= _MIN_DOCUMENT_BYTES:
        assert seconds <= baseline * 1.15 + 0.05, (
            f"paged buffers cost {seconds:.3f}s vs {baseline:.3f}s unbounded "
            f"(> 15% tax) with a budget that never spills"
        )
