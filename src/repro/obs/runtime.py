"""Always-on run telemetry: process-wide totals over every engine run.

Tracing is opt-in and per-run; *telemetry* is neither.  Every run --
traced or not, pull or push -- folds its finished
``RunStatistics`` into the global registry exactly once, from the
engine's finish path.  The cost is a handful of integer adds per *run*
(not per event or batch), which is why this can stay always-on.

The instruments registered here are the engine-layer slice of the
registry; the storage governor, the session (plan cache, shared
multi-query passes), the continuous feeds, the subscription hub and the
conformance oracle register their own counters at their own layer.  Everything meets in :func:`repro.obs.metrics.global_registry`
and comes out through :func:`repro.obs.export.prometheus_text`.
"""

from __future__ import annotations

from typing import Sequence

from .metrics import global_registry

_registry = global_registry()

RUNS_TOTAL = _registry.counter("repro.runs.total", "Finished engine runs")
RUNS_TRACED = _registry.counter("repro.runs.traced", "Runs executed with tracing on")
RUNS_PUSH = _registry.counter("repro.runs.push", "Runs driven through push-mode feeds")
INPUT_EVENTS = _registry.counter("repro.run.input_events.total", "Parser events consumed")
INPUT_BYTES = _registry.counter("repro.run.input_bytes.total", "Document bytes consumed")
OUTPUT_EVENTS = _registry.counter("repro.run.output_events.total", "Events emitted to sinks")
OUTPUT_BYTES = _registry.counter("repro.run.output_bytes.total", "Serialized bytes emitted to sinks")
SPILL_COUNT = _registry.counter("repro.run.spills.total", "Buffer pages spilled by the governor")
SPILL_BYTES = _registry.counter("repro.run.spill_bytes.total", "Encoded bytes written to spill storage")
PAGE_FAULTS = _registry.counter("repro.run.page_faults.total", "Spilled pages read back")
RUN_SECONDS = _registry.histogram("repro.run.seconds", "Wall time per run (seconds)")


def record_runs(seats: Sequence, *, traced: bool = False, push: bool = False) -> None:
    """Fold one finished run's seats into the global totals: each seat
    counts as a run, and each counter takes one add of the seats' sum
    (the seats of one run share its wall time)."""
    runs = len(seats)
    RUNS_TOTAL.inc(runs)
    if traced:
        RUNS_TRACED.inc(runs)
    if push:
        RUNS_PUSH.inc(runs)
    INPUT_EVENTS.inc(sum(stats.input_events for stats in seats))
    INPUT_BYTES.inc(sum(stats.input_bytes for stats in seats))
    OUTPUT_EVENTS.inc(sum(stats.output_events for stats in seats))
    OUTPUT_BYTES.inc(sum(stats.output_bytes for stats in seats))
    SPILL_COUNT.inc(sum(stats.spill_count for stats in seats))
    SPILL_BYTES.inc(sum(stats.spilled_bytes_written for stats in seats))
    PAGE_FAULTS.inc(sum(stats.page_faults for stats in seats))
    if runs:
        RUN_SECONDS.observe(seats[0].elapsed_seconds, runs)
