"""Per-run observability state: the :class:`Observer` and its report.

One observer flows through a whole run -- engine setup hands it to the
document pass and the run handle -- so every layer charges time and volume
to the same place.  An enabled :class:`Observer` owns:

* a :class:`~repro.obs.tracer.Tracer` for the span tree,
* a ``stages`` dict of :class:`StageStats` -- the per-stage aggregate
  (seconds, batches, events, bytes) that the CLI table and the JSON
  exporter print.

There is one batch loop per run shape and it always charges the observer
it was handed; a run without tracing is handed :data:`NULL_OBSERVER`,
whose spans and stage rows are throwaway no-ops (a few calls per batch).

Byte columns are backfilled at :meth:`Observer.finish` from the run's
``RunStatistics``: the scan/materialize stages consume the document
(``input_bytes``), execute produces ``output_bytes``.  Charging
them per-batch instead would put additions on the hot path for numbers
the statistics object already tracks.

``trace=None`` in :class:`~repro.core.options.ExecutionOptions` defers to
the ``REPRO_TRACE`` environment variable; setting ``REPRO_OBS_JSON`` to a
path implies tracing and appends a JSON-lines dump of every finished run
there.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from .tracer import NULL_TRACER, Tracer

#: Canonical stage ordering for reports.
STAGE_ORDER = ("scan", "materialize", "execute")


def use_tracing(requested: Optional[bool]) -> bool:
    """Resolve an ``ExecutionOptions.trace`` request against the environment.

    ``REPRO_TRACE=1``/``0`` overrides the option; an explicit
    ``True``/``False`` option decides next; a set ``REPRO_OBS_JSON`` implies
    tracing for undecided (``None``) runs so the dump has spans to carry.
    """
    env = os.environ.get("REPRO_TRACE")
    if env is not None and env != "":
        return env != "0"
    if requested is not None:
        return bool(requested)
    return bool(os.environ.get("REPRO_OBS_JSON"))


class StageStats:
    """Aggregate cost of one pipeline stage across a whole run."""

    __slots__ = ("name", "seconds", "batches", "events", "bytes")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.batches = 0
        self.events = 0
        self.bytes = 0

    def charge(self, seconds: float, events: int = 0) -> None:
        self.seconds += seconds
        self.batches += 1
        self.events += events

    def to_dict(self) -> dict:
        return {
            "stage": self.name,
            "seconds": self.seconds,
            "batches": self.batches,
            "events": self.events,
            "bytes": self.bytes,
        }


class Observer:
    """Enabled observability state for one run (tracer + stage aggregates)."""

    __slots__ = ("tracer", "stages", "mode")
    enabled = True

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self.stages: Dict[str, StageStats] = {}
        self.mode = "pull"

    def stage(self, name: str) -> StageStats:
        """Get-or-create the aggregate row for stage ``name``."""
        stats = self.stages.get(name)
        if stats is None:
            stats = StageStats(name)
            self.stages[name] = stats
        return stats

    def clock(self) -> float:
        """The tracer's clock, so stage charges and spans agree."""
        return self.tracer._clock()

    def finish(self, stats) -> "TraceReport":
        """Seal the run: backfill byte columns and build the report.

        ``stats`` is the run's ``RunStatistics``.  The scan-side stages
        (scan/materialize) each process the document's input bytes; execute
        accounts for the produced output bytes.
        """
        for name, stage in self.stages.items():
            stage.bytes = stats.output_bytes if name == "execute" else stats.input_bytes
        return TraceReport(
            stages=[self.stages[name] for name in STAGE_ORDER if name in self.stages],
            spans=list(self.tracer.records),
            wall_seconds=stats.elapsed_seconds,
            mode=self.mode,
        )


class NullObserver:
    """The disabled observer: one shared instance; charges go nowhere."""

    __slots__ = ()
    enabled = False
    tracer = NULL_TRACER
    stages: dict = {}
    mode = "pull"

    def stage(self, name: str) -> StageStats:
        return StageStats(name)

    def finish(self, stats) -> None:
        return None


NULL_OBSERVER = NullObserver()


class TraceReport:
    """The per-run trace deliverable: stage breakdown plus the span tree."""

    __slots__ = ("stages", "spans", "wall_seconds", "mode")

    def __init__(
        self,
        stages: List[StageStats],
        spans: list,
        wall_seconds: float,
        mode: str = "pull",
    ):
        self.stages = stages
        self.spans = spans
        self.wall_seconds = wall_seconds
        self.mode = mode

    @property
    def stage_seconds(self) -> float:
        """Sum of per-stage time; close to ``wall_seconds`` by design."""
        return sum(stage.seconds for stage in self.stages)

    def table(self) -> str:
        """The human per-stage breakdown printed by ``repro run --trace``."""
        headers = ("stage", "seconds", "% wall", "batches", "events", "bytes")
        rows = []
        wall = self.wall_seconds or 0.0
        for stage in self.stages:
            share = (100.0 * stage.seconds / wall) if wall > 0 else 0.0
            rows.append(
                (
                    stage.name,
                    f"{stage.seconds:.6f}",
                    f"{share:.1f}",
                    f"{stage.batches:,}",
                    f"{stage.events:,}",
                    f"{stage.bytes:,}",
                )
            )
        rows.append(
            (
                "total",
                f"{self.stage_seconds:.6f}",
                f"{(100.0 * self.stage_seconds / wall) if wall > 0 else 0.0:.1f}",
                "",
                "",
                "",
            )
        )
        widths = [
            max(len(headers[col]), *(len(row[col]) for row in rows))
            for col in range(len(headers))
        ]
        lines = [
            "  ".join(
                headers[col].ljust(widths[col]) if col == 0 else headers[col].rjust(widths[col])
                for col in range(len(headers))
            ),
            "  ".join("-" * widths[col] for col in range(len(headers))),
        ]
        for row in rows:
            lines.append(
                "  ".join(
                    row[col].ljust(widths[col]) if col == 0 else row[col].rjust(widths[col])
                    for col in range(len(headers))
                )
            )
        lines.append(f"wall: {wall:.6f}s  mode: {self.mode}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "mode": self.mode,
            "stages": [stage.to_dict() for stage in self.stages],
            "spans": [span.to_dict() for span in self.spans],
        }
