"""Ablation: what the schema-based scheduling actually buys.

Two design choices called out in the paper are ablated here:

* **Scheduling (Figure 2) vs. no scheduling (Example 3.4).**  Every XQuery⁻
  query is trivially expressible as ``{ps $ROOT: on-first past(*) return α}``,
  i.e. "buffer the (projected) document, then evaluate".  Comparing that
  trivial FluX query against the scheduled one isolates the benefit of the
  event-handler scheduling itself.
* **For-loop fusion (Section 7).**  The ``{$b/publisher/name}
  {$b/publisher/address}`` example needs no buffering once the two singleton
  loops are fused, but buffers the publisher subtree when fusion is disabled.
"""

from __future__ import annotations

import pytest

from repro import FluxEngine
from repro.dtd.parser import parse_dtd
from repro.flux.ast import OnFirstHandler, ProcessStream
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xquery.normalize import normalize
from repro.xquery.parser import parse_query

from _workload import record_row, xmark_document


def _trivial_flux(query_source: str) -> ProcessStream:
    """Example 3.4: wrap the whole (normalised) query in on-first past(*)."""
    normalized = normalize(parse_query(query_source))
    return ProcessStream("$ROOT", [OnFirstHandler(None, normalized)])


@pytest.mark.parametrize("query", ["Q1", "Q13", "Q20"])
def test_scheduling_vs_trivial_past_star(benchmark, query):
    document = xmark_document(0.1)
    dtd = xmark_dtd()
    scheduled_engine = FluxEngine(BENCHMARK_QUERIES[query], dtd)
    trivial_engine = FluxEngine(_trivial_flux(BENCHMARK_QUERIES[query]), dtd)

    def run():
        scheduled = scheduled_engine.execute(document)
        trivial = trivial_engine.execute(document)
        return scheduled, trivial

    scheduled, trivial = benchmark.pedantic(run, rounds=1, iterations=1)
    assert scheduled.output == trivial.output
    record_row(
        benchmark,
        table="scheduling-ablation",
        query=query,
        scheduled_peak_bytes=scheduled.stats.peak_buffered_bytes,
        trivial_peak_bytes=trivial.stats.peak_buffered_bytes,
    )
    # The trivial plan buffers the projected document; the scheduled plan
    # buffers (almost) nothing for these queries.
    assert scheduled.stats.peak_buffered_bytes < trivial.stats.peak_buffered_bytes / 5


PUBLISHER_DTD = """
<!ELEMENT bib (book)*>
<!ELEMENT book (publisher?,title*)>
<!ELEMENT publisher (name,address)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT address (#PCDATA)>
<!ELEMENT title (#PCDATA)>
"""

PUBLISHER_QUERY = """
<out>
{ for $b in $ROOT/bib/book return
  <r> {$b/publisher/name} {$b/publisher/address} </r> }
</out>
"""


def _publisher_document(books: int) -> str:
    parts = ["<bib>"]
    for index in range(books):
        parts.append(
            "<book><publisher>"
            f"<name>Publisher {index}</name><address>Street {index}</address>"
            "</publisher><title>Book</title></book>"
        )
    parts.append("</bib>")
    return "".join(parts)


def test_loop_fusion_removes_publisher_buffering(benchmark):
    dtd = parse_dtd(PUBLISHER_DTD).with_root("bib")
    document = _publisher_document(400)
    fused_engine = FluxEngine(PUBLISHER_QUERY, dtd, apply_simplifications=True)
    unfused_engine = FluxEngine(PUBLISHER_QUERY, dtd, apply_simplifications=False)

    def run():
        fused = fused_engine.execute(document)
        unfused = unfused_engine.execute(document)
        return fused, unfused

    fused, unfused = benchmark.pedantic(run, rounds=1, iterations=1)
    assert fused.output == unfused.output
    record_row(
        benchmark,
        table="scheduling-ablation",
        query="section7-publisher",
        fused_peak_bytes=fused.stats.peak_buffered_bytes,
        unfused_peak_bytes=unfused.stats.peak_buffered_bytes,
    )
    # Section 7: after fusing the two singleton loops no buffering is needed;
    # without fusion the publisher subtree of one book at a time is buffered.
    assert fused.stats.peak_buffered_bytes == 0
    assert unfused.stats.peak_buffered_bytes > 0
