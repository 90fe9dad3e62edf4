"""Observability: span tracing, a metrics registry, and exporters.

Zero-dependency measurement substrate for the engine (ISSUE 7).  Three
pieces compose:

* :mod:`repro.obs.tracer` -- per-run span trees with monotonic timings
  and a one-attribute-lookup disabled path,
* :mod:`repro.obs.metrics` -- the process-wide registry of counters,
  gauges and explicit-bucket histograms every layer registers into,
* :mod:`repro.obs.export` -- JSON-lines trace dumps, Prometheus-style
  text exposition, and (on the report object) the human CLI table.

:mod:`repro.obs.runtime` keeps always-on totals over every finished run;
per-run tracing is requested with ``ExecutionOptions(trace=True)``, the
``REPRO_TRACE`` environment variable, or ``repro run --trace``.

ISSUE 8 adds the diagnostics layer on top of that substrate:

* :mod:`repro.obs.attrib` -- per-owner buffer attribution: every live,
  peak and spilled byte is charged to a ``(scope, variable)`` owner with
  the plan-level reason it is buffered (``repro run --explain-buffers``),
* :mod:`repro.obs.recorder` -- the always-on flight-recorder ring and the
  ``*.crash.json`` forensic dumps (``repro inspect``),
* :mod:`repro.obs.serve` -- the ``/metrics`` + ``/progress`` live
  inspection HTTP endpoint (``--serve-metrics``, ``ensure_server(port)``).
"""

from .attrib import BufferAttribution, OwnerLedger, describe_reason, format_attribution
from .export import append_jsonl, escape_label_value, prometheus_text, trace_to_jsonl
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from .observer import StageStats, TraceReport, stage_table, use_tracing
from .recorder import (
    CRASH_SCHEMA,
    RECORDER,
    FlightRecorder,
    dump_crash,
    inspect_crash,
)
from .runtime import record_runs
from .serve import MetricsServer, ensure_server, progress_snapshot, shutdown_servers
from .tracer import NULL_TRACER, NullTracer, SpanRecord, Tracer, validate_span_tree

__all__ = [
    "BufferAttribution",
    "CRASH_SCHEMA",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_TRACER",
    "NullTracer",
    "OwnerLedger",
    "RECORDER",
    "SpanRecord",
    "StageStats",
    "TraceReport",
    "Tracer",
    "append_jsonl",
    "describe_reason",
    "dump_crash",
    "ensure_server",
    "escape_label_value",
    "format_attribution",
    "global_registry",
    "inspect_crash",
    "progress_snapshot",
    "prometheus_text",
    "record_runs",
    "shutdown_servers",
    "stage_table",
    "trace_to_jsonl",
    "use_tracing",
    "validate_span_tree",
]
