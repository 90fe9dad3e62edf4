"""Sections 1 / 4.3: the effect of order constraints on buffering.

Regenerates the paper's running-example comparisons on the bibliography
domain: the same query buffers much less (often nothing) under a DTD with
order constraints than under the weak DTD.
"""

from __future__ import annotations

import pytest

from repro import FluxEngine
from repro.dtd.parser import parse_dtd
from repro.xmark.usecases import (
    BIB_ARTICLES_DTD_ORDERED,
    BIB_ARTICLES_DTD_UNORDERED,
    BIB_DTD_UNORDERED,
    BIB_DTD_USECASES,
    XMP_INTRO,
    XMP_Q3,
    generate_bibliography,
)

from _workload import COUNT_ONLY, record_row


def _dtd(source):
    return parse_dtd(source).with_root("bib")


def test_intro_query_buffering_weak_vs_ordered_dtd(benchmark):
    # The intro example: titles and authors per book.  Under the use-cases DTD
    # (titles before authors) nothing is buffered; under the weak DTD the
    # authors of one book at a time are buffered.
    weak_doc = generate_bibliography(300, seed=13, ordered=False)
    ordered_doc = generate_bibliography(300, seed=13, ordered=True)
    weak_engine = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_UNORDERED))
    ordered_engine = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_USECASES))

    def run():
        weak = weak_engine.execute(weak_doc, options=COUNT_ONLY)
        ordered = ordered_engine.execute(ordered_doc, options=COUNT_ONLY)
        return weak, ordered

    weak, ordered = benchmark.pedantic(run, rounds=1, iterations=1)
    record_row(
        benchmark,
        table="usecase-buffers",
        query="intro",
        weak_dtd_peak_bytes=weak.stats.peak_buffered_bytes,
        ordered_dtd_peak_bytes=ordered.stats.peak_buffered_bytes,
    )
    assert ordered.stats.peak_buffered_bytes == 0
    assert weak.stats.peak_buffered_bytes > 0
    # Only one book's authors are buffered at a time, never the whole file.
    assert weak.stats.peak_buffered_bytes < 0.05 * len(weak_doc)


def test_join_query_buffering_weak_vs_ordered_dtd(benchmark):
    # Example 4.6: under (book*, article*) only books are buffered and
    # articles stream; under (book|article)* both element kinds are buffered.
    document = generate_bibliography(150, articles=150, seed=17)
    weak_engine = FluxEngine(XMP_Q3, _dtd(BIB_ARTICLES_DTD_UNORDERED))
    ordered_engine = FluxEngine(XMP_Q3, _dtd(BIB_ARTICLES_DTD_ORDERED))

    def run():
        weak = weak_engine.execute(document, options=COUNT_ONLY)
        ordered = ordered_engine.execute(document, options=COUNT_ONLY)
        return weak, ordered

    weak, ordered = benchmark.pedantic(run, rounds=1, iterations=1)
    record_row(
        benchmark,
        table="usecase-buffers",
        query="XMP-Q3",
        weak_dtd_peak_bytes=weak.stats.peak_buffered_bytes,
        ordered_dtd_peak_bytes=ordered.stats.peak_buffered_bytes,
    )
    assert 0 < ordered.stats.peak_buffered_bytes < weak.stats.peak_buffered_bytes


@pytest.mark.parametrize("books", [50, 200])
def test_weak_dtd_buffer_stays_bounded_by_one_book(benchmark, books):
    document = generate_bibliography(books, seed=29, ordered=False)
    engine = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_UNORDERED))

    def run():
        return engine.execute(document, options=COUNT_ONLY)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_row(
        benchmark,
        table="usecase-buffers",
        query=f"intro-{books}-books",
        peak_bytes=result.stats.peak_buffered_bytes,
    )
    # Memory does not scale with the number of books (only with the largest
    # single book), which is the whole point of the scheduling.
    assert result.stats.peak_buffered_bytes < 1000
