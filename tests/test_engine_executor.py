"""Unit tests for the streaming executor on small, hand-checkable documents."""

import pytest

from repro.pipeline.sinks import NullSink
from repro.dtd.parser import parse_dtd
from repro.core.session import FluxSession
from repro.engine.engine import FluxEngine
from repro.engine.plan import compile_plan
from repro.flux.errors import UnsafeQueryError
from repro.flux.parser import parse_flux
from repro.baselines import NaiveDomEngine
from repro.xmark.usecases import (
    BIB_ARTICLES_DTD_ORDERED,
    BIB_ARTICLES_DTD_UNORDERED,
    BIB_DTD_ORDERED,
    BIB_DTD_UNORDERED,
    BIB_DTD_USECASES,
    BIB_Q1_DTD_ORDERED,
    BIB_Q1_DTD_UNORDERED,
    XMP_INTRO,
    XMP_Q1,
    XMP_Q2,
    XMP_Q3,
    generate_bibliography,
    generate_q1_bibliography,
)


def _dtd(source):
    return parse_dtd(source).with_root("bib")


DOC = (
    "<bib>"
    "<book><title>Streams</title><author>Koch</author><author>Scherzinger</author>"
    "<publisher>VLDB</publisher><price>10</price></book>"
    "<book><title>Buffers</title><author>Schweikardt</author>"
    "<publisher>Addison-Wesley</publisher><price>20</price></book>"
    "</bib>"
)


def test_intro_query_output_matches_reference():
    prepared = FluxSession(_dtd(BIB_DTD_USECASES)).prepare(XMP_INTRO)
    result = prepared.execute(DOC)
    expected = NaiveDomEngine(XMP_INTRO).run(DOC).output
    assert result.output == expected
    assert result.stats.peak_buffered_events == 0


def test_intro_query_weak_dtd_buffers_one_book_of_authors():
    weak_doc = (
        "<bib>"
        "<book><author>A1</author><title>T1</title><author>A2</author></book>"
        "<book><title>T2</title><author>B1</author></book>"
        "</bib>"
    )
    prepared = FluxSession(_dtd(BIB_DTD_UNORDERED)).prepare(XMP_INTRO)
    result = prepared.execute(weak_doc)
    expected = NaiveDomEngine(XMP_INTRO).run(weak_doc).output
    assert result.output == expected
    # Only the authors of a single book are ever buffered (2 authors, 3
    # events each).
    assert 0 < result.stats.peak_buffered_events <= 6
    # ... however many books there are: the peak follows the largest book,
    # not the file.
    for books in (50, 200):
        many = generate_bibliography(books, seed=29, ordered=False)
        assert 0 < prepared.execute(many).stats.peak_buffered_bytes < 1000


def test_document_order_is_preserved_for_interleaved_children():
    # Titles are copied on the fly, authors are replayed from the buffer at
    # the end of each book -- exactly the intro scenario of the paper.
    weak_doc = (
        "<bib><book>"
        "<author>First Author</author>"
        "<title>The Title</title>"
        "<author>Second Author</author>"
        "</book></bib>"
    )
    prepared = FluxSession(_dtd(BIB_DTD_UNORDERED)).prepare(XMP_INTRO)
    output = prepared.execute(weak_doc).output
    assert output == (
        "<results><result><title>The Title</title>"
        "<author>First Author</author><author>Second Author</author>"
        "</result></results>"
    )


def test_conditional_output_with_on_the_fly_flags():
    doc = generate_q1_bibliography(30, seed=5, ordered=True)
    prepared = FluxSession(_dtd(BIB_Q1_DTD_ORDERED)).prepare(XMP_Q1)
    result = prepared.execute(doc)
    assert result.output == NaiveDomEngine(XMP_Q1).run(doc).output
    # Titles are streamed; the publisher condition lives in flags.  Only the
    # year element (whose own value the condition needs) is held, one book at
    # a time -- never more than a single tiny element.
    assert result.stats.peak_buffered_events <= 3
    assert result.stats.peak_condition_bytes > 0


def test_conditional_output_with_buffering_for_weak_dtd():
    doc = generate_q1_bibliography(30, seed=6, ordered=False)
    prepared = FluxSession(_dtd(BIB_Q1_DTD_UNORDERED)).prepare(XMP_Q1)
    result = prepared.execute(doc)
    assert result.output == NaiveDomEngine(XMP_Q1).run(doc).output
    assert result.stats.peak_buffered_events > 0


def test_join_query_streams_articles_under_ordered_dtd():
    doc = generate_bibliography(20, articles=10, seed=9)
    dtd = _dtd(BIB_ARTICLES_DTD_ORDERED)
    prepared = FluxSession(dtd).prepare(XMP_Q3)
    result = prepared.execute(doc)
    assert result.output == NaiveDomEngine(XMP_Q3).run(doc).output
    # Example 4.6: under (book*, article*) only books are buffered and
    # articles stream; under (book|article)* both kinds are buffered.
    weak = FluxSession(_dtd(BIB_ARTICLES_DTD_UNORDERED)).prepare(XMP_Q3).execute(doc)
    assert weak.output == result.output
    assert 0 < result.stats.peak_buffered_bytes < weak.stats.peak_buffered_bytes


def test_title_author_pairs_under_both_dtds():
    ordered_doc = (
        "<bib>"
        "<book><author>A</author><author>B</author><title>T1</title><title>T2</title></book>"
        "</bib>"
    )
    expected = NaiveDomEngine(XMP_Q2).run(ordered_doc).output
    result = FluxSession(_dtd(BIB_DTD_ORDERED)).prepare(XMP_Q2).execute(ordered_doc)
    assert result.output == expected
    weak = FluxSession(_dtd(BIB_DTD_UNORDERED)).prepare(XMP_Q2).execute(ordered_doc)
    assert weak.output == expected


def test_handwritten_flux_query_executes():
    flux = parse_flux(
        """
        <results>
        { ps $ROOT: on bib as $bib return
          { ps $bib: on book as $b return
            { ps $b: on title as $t return {$t};
                     on author as $a return {$a} } } }
        </results>
        """
    )
    prepared = FluxSession(_dtd(BIB_DTD_USECASES)).prepare(flux)
    result = prepared.execute(DOC)
    assert result.output.startswith("<results><title>Streams</title>")
    assert result.output.endswith("</results>")
    assert result.stats.peak_buffered_events == 0


def test_unsafe_handwritten_query_is_rejected():
    flux = parse_flux(
        """
        { ps $ROOT: on bib as $bib return
          { ps $bib: on book as $b return
            { ps $b: on-first past(title) return { for $a in $b/author return {$a} } } } }
        """
    )
    with pytest.raises(UnsafeQueryError):
        FluxEngine(flux, _dtd(BIB_DTD_UNORDERED))


def test_null_sink_still_counts_bytes():
    prepared = FluxSession(_dtd(BIB_DTD_USECASES)).prepare(XMP_INTRO)
    result = prepared.execute(DOC, sink=NullSink())
    assert result.output is None
    assert result.stats.output_bytes > 0


def test_executor_accepts_reference_tokenizer_events():
    from repro.engine.executor import StreamExecutor
    from repro.xmlstream.parser import parse_events

    engine = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_USECASES))
    events = parse_events(DOC, document_events=False)
    executor = StreamExecutor(engine.plan)
    executor.begin()
    executor.process_batch(events)
    assert executor.finish() == NaiveDomEngine(XMP_INTRO).run(DOC).output


def test_input_statistics_are_recorded():
    prepared = FluxSession(_dtd(BIB_DTD_USECASES)).prepare(XMP_INTRO)
    result = prepared.execute(DOC)
    assert result.stats.input_events > 10
    assert result.stats.input_bytes > 50
    assert result.stats.elapsed_seconds >= 0


def test_describe_buffers_lists_buffered_variables():
    engine_streaming = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_USECASES))
    assert engine_streaming.describe_buffers() == "(no buffers required)"
    engine_buffering = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_UNORDERED))
    assert "author" in engine_buffering.describe_buffers()


def test_compile_plan_rejects_foreign_outer_variable():
    from repro.flux.errors import UnschedulableQueryError

    flux = parse_flux("{ ps $other: on-first past(*) return <x/> }")
    with pytest.raises(UnschedulableQueryError):
        compile_plan(flux, _dtd(BIB_DTD_USECASES))


def test_unbalanced_event_stream_is_rejected():
    from repro.engine.executor import StreamExecutor
    from repro.xmlstream.events import StartElement

    engine = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_USECASES))
    executor = StreamExecutor(engine.plan)
    executor.begin()
    executor.process_batch([StartElement("bib"), StartElement("book")])
    with pytest.raises(ValueError):
        executor.finish()


def test_flux_source_rendering_is_stable():
    engine = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_UNORDERED))
    source = engine.flux_source()
    assert "on-first past(author,title)" in source
    assert "on title as" in source
