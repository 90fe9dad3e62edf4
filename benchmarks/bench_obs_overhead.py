"""Tracing overhead: :mod:`repro.obs` must be nearly free when disabled.

Three contenders per query, all running the same plan over the same XMark
document with output discarded:

* **baseline**: the stage functions composed by hand (``feed_batch`` ->
  ``materialize`` -> ``process_batch``) with no observer at all -- no
  ``use_tracing`` resolution, no spans, no run-telemetry fold; the closest
  living proxy for the pre-instrumentation engine,
* **disabled**: ``engine.execute`` with tracing off -- the code path every
  ordinary run takes: the one batch loop, charging the no-op observer,
* **enabled**: ``engine.execute`` with ``trace=True`` -- the same loop
  charging per-batch spans on every stage, plus the report assembly.

Timing is min-of-N with the three contenders tightly interleaved and GC
paused; extra rounds are added if a
noisy window pushes a ratio over its gate.  The gates are the ISSUE 7
acceptance criteria: disabled within **2%** of baseline, enabled within
**10%**.  Byte identity between the disabled and enabled runs is asserted
before anything is timed; rows land in ``BENCH_obs.json``.

ISSUE 8 adds the **flight recorder** gate: the always-on ring
(:data:`repro.obs.recorder.RECORDER`) against a patched-in
:class:`~repro.obs.recorder.NullFlightRecorder`, same interleaved
protocol, gated at <2% on the same queries.  The recorder has no
disabled mode in production -- this gate is what keeps it allowed to be
always-on.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro import FluxEngine
from repro.core.options import ExecutionOptions
from repro.engine.executor import StreamExecutor
from repro.fastpath import ByteScanner
from repro.pipeline.sinks import NullSink
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES

from _workload import FIGURE4_SCALES, record_row, record_summary, xmark_document

_SCALE = FIGURE4_SCALES[-1]
_QUERIES = ("Q1", "Q13")
_ROUNDS = 9
_MAX_EXTRA_ROUNDS = 18
_DISABLED_GATE = 0.02
_ENABLED_GATE = 0.10
_RECORDER_GATE = 0.02

_OFF = ExecutionOptions(collect_output=False, trace=False)
_ON = ExecutionOptions(collect_output=False, trace=True)


@pytest.fixture(autouse=True)
def _clean_obs_env(monkeypatch):
    """The gates compare trace-off against trace-on: the environment must
    not force either (``REPRO_OBS_JSON`` would also add file appends)."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_OBS_JSON", raising=False)


def _race(contenders, rounds):
    """Best-of-``rounds`` for every contender, interleaved, GC paused."""
    best = [float("inf")] * len(contenders)
    enabled = gc.isenabled()
    gc.disable()
    try:
        clock = time.perf_counter
        for _ in range(rounds):
            for index, fn in enumerate(contenders):
                gc.collect()
                t = clock()
                fn()
                best[index] = min(best[index], clock() - t)
    finally:
        if enabled:
            gc.enable()
    return best


@pytest.mark.parametrize("query", _QUERIES)
def test_tracing_overhead(benchmark, query):
    document = xmark_document(_SCALE)
    engine = FluxEngine(BENCHMARK_QUERIES[query], xmark_dtd())

    chunk = _OFF.chunk_size
    filtered = engine.projection_spec is not None

    def baseline():
        data = document.encode("utf-8")  # as ``execute`` does with a str
        executor = StreamExecutor(engine.plan, sink=NullSink(), count_input=not filtered)
        scanner = ByteScanner(engine.fanout.tags, engine.fanout.table())

        def batches():
            for at in range(0, len(data), chunk):
                yield scanner.feed_batch(data[at : at + chunk])
            yield scanner.close_batch()

        executor.begin()
        for batch in batches():
            if filtered and batch.seen:
                executor.stats.record_input(batch.seen, batch.cost)
            events = batch.materialize()
            if events:
                executor.process_batch(events)
        executor.finish()

    def disabled():
        engine.execute(document, options=_OFF)

    def enabled():
        engine.execute(document, options=_ON)

    # Identity gate, outside the timed region: tracing must not change the
    # output bytes or the logical buffering peaks.
    off = engine.execute(document, options=_OFF.replace(collect_output=True))
    on = engine.execute(document, options=_ON.replace(collect_output=True))
    assert on.output == off.output
    assert on.stats.peak_buffered_bytes == off.stats.peak_buffered_bytes
    assert off.trace is None and on.trace is not None

    benchmark.pedantic(disabled, rounds=1, iterations=1)
    contenders = (baseline, disabled, enabled)
    base_s, off_s, on_s = _race(contenders, _ROUNDS)
    extra = 0
    while extra < _MAX_EXTRA_ROUNDS and (
        off_s / base_s - 1.0 > _DISABLED_GATE or on_s / base_s - 1.0 > _ENABLED_GATE
    ):
        # A noisy window: keep folding in rounds, mins only sharpen.
        more = _race(contenders, 3)
        base_s = min(base_s, more[0])
        off_s = min(off_s, more[1])
        on_s = min(on_s, more[2])
        extra += 3

    disabled_overhead = off_s / base_s - 1.0
    enabled_overhead = on_s / base_s - 1.0
    record_row(
        benchmark,
        table="obs",
        query=query,
        document_bytes=len(document),
        baseline_seconds=base_s,
        disabled_seconds=off_s,
        enabled_seconds=on_s,
        disabled_overhead=disabled_overhead,
        enabled_overhead=enabled_overhead,
    )
    record_summary(
        benchmark,
        f"obs-overhead-{query}",
        scale=_SCALE,
        wall_seconds=off_s,
        peak_bytes=off.stats.peak_buffered_bytes,
        disabled_overhead=disabled_overhead,
        enabled_overhead=enabled_overhead,
    )
    assert disabled_overhead < _DISABLED_GATE, (
        f"disabled tracing costs {disabled_overhead:.1%} over the bare "
        f"composition (gate {_DISABLED_GATE:.0%})"
    )
    assert enabled_overhead < _ENABLED_GATE, (
        f"enabled tracing costs {enabled_overhead:.1%} over the bare "
        f"composition (gate {_ENABLED_GATE:.0%})"
    )


@pytest.mark.parametrize("query", _QUERIES)
def test_recorder_overhead(benchmark, query):
    """The always-on flight-recorder ring must cost <2% (ISSUE 8).

    Both contenders run the ordinary untraced engine; the only difference
    is whether ``repro.obs.recorder.RECORDER`` is the real ring or a
    :class:`~repro.obs.recorder.NullFlightRecorder`.  Executors bind the
    recorder at construction and every ``execute`` builds a fresh
    executor, so patching the module attribute switches the whole engine.
    """
    import repro.obs.recorder as recorder_mod
    from repro.obs.recorder import FlightRecorder, NullFlightRecorder

    document = xmark_document(_SCALE)
    engine = FluxEngine(BENCHMARK_QUERIES[query], xmark_dtd())
    null_ring, real_ring = NullFlightRecorder(), FlightRecorder()

    def recorder_off():
        recorder_mod.RECORDER = null_ring
        engine.execute(document, options=_OFF)

    def recorder_on():
        recorder_mod.RECORDER = real_ring
        engine.execute(document, options=_OFF)

    saved = recorder_mod.RECORDER
    try:
        reference = engine.execute(document, options=_OFF)
        benchmark.pedantic(recorder_on, rounds=1, iterations=1)
        contenders = (recorder_off, recorder_on)
        null_s, ring_s = _race(contenders, _ROUNDS)
        extra = 0
        while extra < _MAX_EXTRA_ROUNDS and ring_s / null_s - 1.0 > _RECORDER_GATE:
            more = _race(contenders, 3)
            null_s = min(null_s, more[0])
            ring_s = min(ring_s, more[1])
            extra += 3
    finally:
        recorder_mod.RECORDER = saved

    overhead = ring_s / null_s - 1.0
    record_row(
        benchmark,
        table="obs",
        query=query,
        document_bytes=len(document),
        null_recorder_seconds=null_s,
        recorder_seconds=ring_s,
        recorder_overhead=overhead,
    )
    record_summary(
        benchmark,
        f"recorder-overhead-{query}",
        scale=_SCALE,
        wall_seconds=ring_s,
        peak_bytes=reference.stats.peak_buffered_bytes,
        recorder_overhead=overhead,
    )
    assert overhead < _RECORDER_GATE, (
        f"the flight-recorder ring costs {overhead:.1%} over a null "
        f"recorder (gate {_RECORDER_GATE:.0%})"
    )
