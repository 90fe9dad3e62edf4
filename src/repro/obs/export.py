"""Exporters: JSON-lines trace dumps and Prometheus-style text exposition.

Three consumers, three formats:

* :func:`trace_to_jsonl` / :func:`append_jsonl` -- one JSON object per
  line; the first line is the run header (stage table, wall time), the
  remaining lines are span records.  ``REPRO_OBS_JSON=path`` makes the
  engine append every finished run here.
* :func:`prometheus_text` -- the classic ``# HELP``/``# TYPE`` text
  exposition over a :class:`~repro.obs.metrics.MetricsRegistry`, ready
  for the future subscription service to serve on a scrape endpoint.
* The human CLI table lives on the report itself
  (:meth:`~repro.obs.observer.TraceReport.table`).
"""

from __future__ import annotations

import json
import os
from typing import List

from .metrics import MetricsRegistry


def trace_to_jsonl(report, run: int = 0) -> str:
    """Serialize one run's trace as JSON-lines (header line, then spans)."""
    header = {
        "record": "run",
        "run": run,
        "wall_seconds": report.wall_seconds,
        "mode": report.mode,
        "stages": [stage.to_dict() for stage in report.stages],
    }
    lines = [json.dumps(header, sort_keys=True)]
    for span in report.spans:
        row = span.to_dict()
        row["record"] = "span"
        row["run"] = run
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + "\n"


def append_jsonl(path: str, report, run: int = 0) -> None:
    """Append one run's JSON-lines trace to ``path`` (the env-var sink).

    The append is atomic (write-temp-then-rename): a run crashing -- or the
    process dying -- mid-dump can never leave ``path`` truncated inside a
    JSON line.  Readers either see the file before the append or after it,
    whole lines only.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = handle.read()
    except FileNotFoundError:
        existing = ""
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(existing)
        handle.write(trace_to_jsonl(report, run=run))
    os.replace(tmp, path)


def _sanitize(name: str) -> str:
    """Metric names use dots internally; Prometheus wants underscores."""
    return name.replace(".", "_").replace("-", "_")


def escape_label_value(value) -> str:
    """Escape one label value per the Prometheus text exposition format:
    backslash, double-quote and newline must be backslash-escaped inside
    the ``label="..."`` quotes."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP lines escape backslash and newline (a raw newline would start
    a bogus new exposition line)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for instrument in registry.collect():
        name = _sanitize(instrument.name)
        if instrument.help:
            lines.append(f"# HELP {name} {_escape_help(instrument.help)}")
        lines.append(f"# TYPE {name} {instrument.kind}")
        if instrument.kind == "histogram":
            for bound, cumulative in instrument.cumulative():
                le = escape_label_value(_format_value(bound))
                lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {instrument.count}')
            lines.append(f"{name}_sum {_format_value(instrument.sum)}")
            lines.append(f"{name}_count {instrument.count}")
        else:
            lines.append(f"{name} {_format_value(instrument.value)}")
    return "\n".join(lines) + "\n"
