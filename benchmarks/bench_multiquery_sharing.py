"""Multi-query sharing: one shared document pass vs. N sequential runs.

Not part of the paper's figures -- this bench quantifies the service-shape
scaling lever of :mod:`repro.multiquery`: tokenizing/coalescing/projecting
the document is the dominant shared cost (see the pipeline ablation), so a
registered query set served from one pass should beat running the same
compiled plans sequentially, while per-query output stays byte-identical
and per-query peak buffering is unchanged.

Two workloads:

* the full XMark benchmark set (Q1/Q8/Q11/Q13/Q20) -- correctness, peak
  parity and the honest speedup including the join-heavy Q8, whose
  executor work dominates and cannot be shared,
* a service mix of N=8 selective queries (Q1/Q13/Q20 variants over
  different persons and regions) -- the shared-scan economics the
  subsystem targets; here the speedup must clear 2x.

Sequential baselines reuse each registry entry's own pre-compiled engine,
so the comparison isolates the shared scan (no compile time on either
side).
"""

from __future__ import annotations

import pytest

from repro.multiquery import MultiQueryEngine, QueryRegistry
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES, QUERY_1, QUERY_13, QUERY_20

from _workload import COUNT_ONLY, FIGURE4_SCALES, record_row, xmark_document

_SCALE = FIGURE4_SCALES[-1]

#: Below this document size, fixed per-run overheads drown the shared-scan
#: signal; the speedup floor is only asserted on meaningful inputs.
_MIN_DOCUMENT_BYTES = 100_000


def _service_mix() -> dict:
    """N=8 selective queries: the many-users-same-stream service shape."""
    mix = {}
    for person in ("person0", "person1", "person2"):
        mix[f"Q1-{person}"] = QUERY_1.replace("person0", person)
    for region in ("australia", "asia", "europe", "africa"):
        mix[f"Q13-{region}"] = QUERY_13.replace("australia", region)
    mix["Q20"] = QUERY_20
    return mix


def _registry_for(queries: dict) -> QueryRegistry:
    registry = QueryRegistry(xmark_dtd())
    for name, query in queries.items():
        registry.register(name, query)
    return registry


def _sequential_seconds(registry: QueryRegistry, document: str) -> float:
    return sum(
        entry.engine.execute(document, options=COUNT_ONLY).stats.elapsed_seconds
        for entry in registry
    )


@pytest.mark.parametrize(
    "workload", ["xmark-set", "service-mix-n8"], ids=lambda w: w
)
def test_shared_scan_vs_sequential(benchmark, workload):
    document = xmark_document(_SCALE)
    queries = dict(BENCHMARK_QUERIES) if workload == "xmark-set" else _service_mix()
    registry = _registry_for(queries)
    engine = MultiQueryEngine(registry)

    # Correctness first: byte-identical output and peak-buffer parity with
    # the same compiled plans run solo.
    shared = engine.run(document)
    for entry in registry:
        solo = entry.engine.execute(document)
        assert shared[entry.name].output == solo.output, entry.name
        assert (
            shared[entry.name].stats.peak_buffered_bytes == solo.stats.peak_buffered_bytes
        ), entry.name
        assert (
            shared[entry.name].stats.peak_buffered_events == solo.stats.peak_buffered_events
        ), entry.name

    counting = MultiQueryEngine(registry, options=COUNT_ONLY)
    shared_run = benchmark.pedantic(lambda: counting.run(document), rounds=1, iterations=1)
    shared_seconds = shared_run.elapsed_seconds
    sequential_seconds = _sequential_seconds(registry, document)
    speedup = sequential_seconds / shared_seconds if shared_seconds else float("inf")

    record_row(
        benchmark,
        table="multiquery",
        workload=workload,
        queries=len(registry),
        document_bytes=len(document),
        sequential_seconds=sequential_seconds,
        shared_seconds=shared_seconds,
        speedup=speedup,
    )

    if workload == "service-mix-n8" and len(document) >= _MIN_DOCUMENT_BYTES:
        assert speedup >= 2.0, (
            f"shared pass over {len(registry)} queries only {speedup:.2f}x faster "
            f"than sequential ({shared_seconds:.3f}s vs {sequential_seconds:.3f}s)"
        )


def test_shared_scan_scaling_with_query_count(benchmark):
    """Speedup grows with N: each added query amortizes the same scan."""
    document = xmark_document(_SCALE)
    mix = _service_mix()
    rows = []
    for count in (2, 4, 6, 8):
        subset = dict(list(mix.items())[:count])
        registry = _registry_for(subset)
        engine = MultiQueryEngine(registry, options=COUNT_ONLY)
        shared = engine.run(document).elapsed_seconds
        sequential = _sequential_seconds(registry, document)
        rows.append((count, sequential, shared, sequential / shared if shared else 0.0))

    benchmark.pedantic(
        lambda: MultiQueryEngine(_registry_for(mix), options=COUNT_ONLY).run(document),
        rounds=1,
        iterations=1,
    )
    record_row(
        benchmark,
        table="multiquery-scaling",
        document_bytes=len(document),
        rows=rows,
    )
    # More registered queries must never make sharing *less* worthwhile
    # (asserted only where timings are large enough to be stable).
    if len(document) >= _MIN_DOCUMENT_BYTES:
        speedups = [row[3] for row in rows]
        assert speedups[-1] >= speedups[0]
