"""Example 3.4: the trivial FluX embedding versus the scheduled one.

Every XQuery⁻ query α is equivalent to ``{ps $ROOT: on-first past(*) return α}``
(Example 3.4 of the paper) -- this is the "buffer the projected document, then
evaluate" plan.  These tests check that

* the trivial plan produces the same results as the scheduled plan and the
  in-memory reference (so the buffered execution path is exercised for whole
  queries, not just for fragments), and
* the scheduled plan buffers dramatically less, which is the paper's point,
* the Section-7 for-loop fusion removes the last buffer of its example.
"""

import pytest

from repro import FluxSession, NaiveDomEngine, NullSink
from repro.dtd.parser import parse_dtd
from repro.flux.ast import OnFirstHandler, ProcessStream
from repro.flux.rewrite import rewrite_to_flux
from repro.xquery.normalize import normalize
from repro.xquery.parser import parse_query
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.usecases import BIB_DTD_UNORDERED, XMP_INTRO, XMP_Q2, generate_bibliography

def trivial_flux(query_source: str) -> ProcessStream:
    """The Example-3.4 embedding of a query."""
    return ProcessStream("$ROOT", [OnFirstHandler(None, normalize(parse_query(query_source)))])


@pytest.mark.parametrize("name", ["Q1", "Q13", "Q20", "Q8"])
def test_trivial_and_scheduled_plans_agree_on_xmark(name, small_xmark_document):
    query = BENCHMARK_QUERIES[name]
    session = FluxSession(xmark_dtd())
    scheduled = session.prepare(query).execute(small_xmark_document)
    trivial = session.prepare(trivial_flux(query)).execute(small_xmark_document)
    reference = NaiveDomEngine(query).run(small_xmark_document)
    assert scheduled.output == trivial.output == reference.output


@pytest.mark.parametrize("name", ["Q1", "Q13", "Q20"])
def test_scheduling_reduces_buffering_substantially(name, small_xmark_document):
    query = BENCHMARK_QUERIES[name]
    session = FluxSession(xmark_dtd())
    scheduled = session.prepare(query).execute(small_xmark_document, sink=NullSink())
    trivial = session.prepare(trivial_flux(query)).execute(
        small_xmark_document, sink=NullSink()
    )
    assert trivial.stats.peak_buffered_bytes > 0
    assert scheduled.stats.peak_buffered_bytes <= trivial.stats.peak_buffered_bytes / 5


def test_trivial_plan_buffers_only_the_projection(small_xmark_document):
    # Even the trivial plan benefits from the Π projection: it holds much less
    # than the naive engine's full document tree.
    query = BENCHMARK_QUERIES["Q1"]
    trivial = FluxSession(xmark_dtd()).prepare(trivial_flux(query)).execute(
        small_xmark_document, sink=NullSink()
    )
    naive = NaiveDomEngine(query).run(small_xmark_document, collect_output=False)
    assert trivial.stats.peak_buffered_bytes < naive.peak_buffered_bytes / 3


def test_trivial_plan_on_bibliography_matches_reference():
    document = generate_bibliography(25, seed=8, ordered=False)
    dtd = parse_dtd(BIB_DTD_UNORDERED).with_root("bib")
    for query in (XMP_INTRO, XMP_Q2):
        trivial = FluxSession(dtd).prepare(trivial_flux(query)).execute(document)
        reference = NaiveDomEngine(query).run(document)
        assert trivial.output == reference.output


def test_loop_fusion_removes_publisher_buffering():
    # Section 7: ``{$b/publisher/name} {$b/publisher/address}`` needs no
    # buffer once the two singleton loops over ``publisher`` are fused;
    # unfused, one book's publisher subtree at a time is buffered.
    dtd = parse_dtd(
        "<!ELEMENT bib (book)*> <!ELEMENT book (publisher?,title*)>"
        "<!ELEMENT publisher (name,address)> <!ELEMENT name (#PCDATA)>"
        "<!ELEMENT address (#PCDATA)> <!ELEMENT title (#PCDATA)>"
    ).with_root("bib")
    query = (
        "<out>{ for $b in $ROOT/bib/book return"
        " <r> {$b/publisher/name} {$b/publisher/address} </r> }</out>"
    )
    document = "<bib>" + "".join(
        f"<book><publisher><name>Publisher {i}</name><address>Street {i}</address>"
        "</publisher><title>Book</title></book>"
        for i in range(40)
    ) + "</bib>"
    fused = FluxSession(dtd).prepare(query).execute(document)
    unfusable = rewrite_to_flux(parse_query(query), dtd, apply_simplifications=False).flux
    unfused = FluxSession(dtd).prepare(unfusable).execute(document)
    assert fused.output == unfused.output == NaiveDomEngine(query).run(document).output
    assert fused.stats.peak_buffered_bytes == 0
    assert unfused.stats.peak_buffered_bytes > 0
