"""Explain a run's buffers: what ``repro run --explain-buffers`` shows.

The paper's headline figure is one number -- ``peak_buffered_bytes`` --
but ISSUE 8's attribution layer breaks it down by *owner*: which variable
buffered, in which scope, and the plan-level reason the scheduler could
not stream it.  This example runs XMark Q8 (the join query) twice:

* unbounded: the attribution table sums *exactly* to the peak,
* with the budget halved: the same owners now show spilled bytes, and
  the spill attribution sums exactly to ``spilled_bytes_written``.

Run with::

    python examples/explain_buffers.py          # default scale 0.1 (~62 KB)
    python examples/explain_buffers.py 0.05     # custom scale
"""

import sys

from repro import ExecutionOptions, FluxSession, NullSink
from repro.obs.attrib import format_attribution
from repro.xmark.dtd import xmark_dtd
from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES


def main(scale: float) -> None:
    document = generate_document(config_for_scale(scale, seed=97))
    print(f"generated XMark document at scale {scale}: {len(document)} bytes")

    session = FluxSession(xmark_dtd())
    q8 = session.prepare(BENCHMARK_QUERIES["Q8"])
    stats = q8.execute(document, sink=NullSink()).stats
    print("\n--- Q8 unbounded: who owns the peak? ---")
    print(format_attribution(stats))
    attributed = stats.attribution.total_at_peak_bytes()
    assert attributed == stats.peak_buffered_bytes, "attribution is exact"

    # Q1 streams everything: the table degenerates to a one-line proof.
    q1_stats = session.prepare(BENCHMARK_QUERIES["Q1"]).execute(
        document, sink=NullSink()
    ).stats
    print("\n--- Q1: a fully streaming query ---")
    print(format_attribution(q1_stats))

    # Halve the budget: the same owners spill, and every spilled byte is
    # attributed too.
    budget = max(32, stats.peak_buffered_bytes // 2)
    bounded = q8.execute(
        document, sink=NullSink(), options=ExecutionOptions(memory_budget=budget)
    ).stats
    print(f"\n--- Q8 with a {budget}B budget: spills attributed ---")
    print(format_attribution(bounded))
    print(
        f"spilled_bytes_written = {bounded.spilled_bytes_written}B; "
        f"attributed spills = {bounded.attribution.total_spilled_bytes()}B (exact)"
    )


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.1)
