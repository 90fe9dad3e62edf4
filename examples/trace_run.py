"""Trace a run: the per-stage breakdown behind ``repro run --trace``.

Runs XMark Q8 (the join query, so the execute stage actually buffers) on
a generated document with tracing enabled and shows the three deliverables
of :mod:`repro.obs`:

* the per-stage time/bytes/events table (what ``--trace`` prints),
* the raw span tree the table is aggregated from,
* the process-wide metrics registry in Prometheus text exposition.

Run with::

    python examples/trace_run.py          # default scale 0.1 (~62 KB)
    python examples/trace_run.py 0.05     # custom scale
"""

import sys

from repro import FluxSession, ExecutionOptions, NullSink, global_registry, prometheus_text
from repro.xmark.dtd import xmark_dtd
from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES


def main(scale: float) -> None:
    document = generate_document(config_for_scale(scale, seed=97))
    print(f"generated XMark document at scale {scale}: {len(document)} bytes")

    session = FluxSession(xmark_dtd(), options=ExecutionOptions(trace=True))
    result = session.prepare(BENCHMARK_QUERIES["Q8"]).execute(
        document, sink=NullSink()
    )

    print("\n--- per-stage breakdown (Q8) ---")
    print(result.trace.table())

    print("\n--- first spans of the trace ---")
    for span in result.trace.spans[:8]:
        indent = "  " if span.parent >= 0 else ""
        print(f"{indent}{span.name:<10} {span.seconds * 1e6:9.1f} us")
    print(f"({len(result.trace.spans)} spans total)")

    print("\n--- process-wide metrics (excerpt) ---")
    for line in prometheus_text(global_registry()).splitlines():
        if line.startswith("repro_runs") or line.startswith("repro_run_input"):
            print(line)


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.1)
