"""Per-run stage table, read off the run's spans.

Every batch loop of a run opens spans on the tracer it was handed -- a
:class:`~repro.obs.tracer.Tracer` for a traced run,
:data:`~repro.obs.tracer.NULL_TRACER` otherwise: ``scan`` and
``materialize`` and ``execute`` per batch, and ``execute`` around the
executors' ``begin``/``finish`` -- all in
:class:`~repro.engine.engine.RunHandle`.  A span that processed a batch
carries its event count as the ``events`` counter.  The spans are the only
record of stage time: :func:`stage_table` sums them into one
:class:`StageStats` row per stage, and :class:`TraceReport`, the CLI table,
the JSON-lines header and ``/progress`` all read that table.

Byte columns are filled in from the run's ``RunStatistics`` when the table
is built: the scan/materialize stages consume the document
(``input_bytes``), execute produces ``output_bytes``.

``trace=None`` in :class:`~repro.core.options.ExecutionOptions` defers to
the ``REPRO_TRACE`` environment variable; setting ``REPRO_OBS_JSON`` to a
path implies tracing and appends a JSON-lines dump of every finished run
there.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

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

    def to_dict(self) -> dict:
        return {
            "stage": self.name,
            "seconds": self.seconds,
            "batches": self.batches,
            "events": self.events,
            "bytes": self.bytes,
        }


def stage_table(spans, input_bytes: int = 0, output_bytes: int = 0) -> List[StageStats]:
    """The per-stage rows of a span list, in :data:`STAGE_ORDER`.

    A stage's seconds sum every span of its name (open spans count 0.0);
    each span with an ``events`` counter is one batch of that many events.
    Stages without a span get no row.
    """
    rows: Dict[str, StageStats] = {}
    for span in spans:
        if span.name not in STAGE_ORDER:
            continue
        row = rows.get(span.name)
        if row is None:
            row = rows[span.name] = StageStats(span.name)
            row.bytes = output_bytes if span.name == "execute" else input_bytes
        row.seconds += span.seconds
        events = span.counters.get("events")
        if events is not None:
            row.batches += 1
            row.events += events
    return [rows[name] for name in STAGE_ORDER if name in rows]


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
