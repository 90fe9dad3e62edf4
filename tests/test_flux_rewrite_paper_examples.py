"""The rewrite algorithm reproduces the paper's worked examples (Section 4.3).

Each test re-runs ``rewrite`` on a query/DTD pair the paper discusses and
asserts the *structure* of the resulting FluX query: which handlers exist,
in which order, with which ``past`` sets, and which parts of the query are
executed in a streaming fashion versus from buffers.
"""

import pytest

from repro.dtd.parser import parse_dtd
from repro.flux.ast import OnFirstHandler, OnHandler, ProcessStream, SimpleFlux
from repro.flux.rewrite import rewrite_to_flux
from repro.flux.safety import is_safe
from repro.xquery.ast import ForExpr
from repro.xquery.parser import parse_query
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
)


def _dtd(source):
    return parse_dtd(source).with_root("bib")


def _handler_kinds(block):
    return [
        ("on", handler.label) if isinstance(handler, OnHandler) else ("on-first", handler.symbols)
        for handler in block.handlers
    ]


# ---------------------------------------------------------------------------
# Section 1: the intro example


def test_intro_example_weak_dtd_buffers_only_authors():
    flux = rewrite_to_flux(parse_query(XMP_INTRO), _dtd(BIB_DTD_UNORDERED)).flux
    assert isinstance(flux, ProcessStream)
    kinds = _handler_kinds(flux)
    assert kinds[0] == ("on-first", frozenset())
    assert kinds[1] == ("on", "bib")
    assert kinds[2] == ("on-first", frozenset({"bib"}))

    bib_block = flux.handlers[1].body
    book_handler = bib_block.handlers[0]
    assert isinstance(book_handler, OnHandler) and book_handler.label == "book"
    book_block = book_handler.body
    # Titles are streamed; authors are delayed by on-first past(title, author).
    labels = _handler_kinds(book_block)
    assert ("on", "title") in labels
    delayed = [
        h
        for h in book_block.handlers
        if isinstance(h, OnFirstHandler) and isinstance(h.body, ForExpr)
    ]
    assert len(delayed) == 1
    assert delayed[0].symbols == frozenset({"title", "author"})
    # The delayed part iterates over the buffered authors.
    assert delayed[0].body.path == ("author",)


def test_intro_example_usecases_dtd_needs_no_buffering():
    from repro.engine.projection import buffer_trees

    flux = rewrite_to_flux(parse_query(XMP_INTRO), _dtd(BIB_DTD_USECASES)).flux
    bib_block = flux.handlers[1].body
    book_block = bib_block.handlers[0].body
    kinds = _handler_kinds(book_block)
    # Both titles and authors are handled by streaming "on" handlers, and no
    # handler body iterates over buffered data: nothing is ever buffered.
    assert ("on", "title") in kinds
    assert ("on", "author") in kinds
    assert not any(
        isinstance(h, OnFirstHandler) and isinstance(h.body, ForExpr)
        for h in book_block.handlers
    )
    assert buffer_trees(flux) == {}


# ---------------------------------------------------------------------------
# Example 4.4: XMP Q2


def test_example_4_4_weak_dtd_produces_f2():
    flux = rewrite_to_flux(parse_query(XMP_Q2), _dtd(BIB_DTD_UNORDERED)).flux
    assert _handler_kinds(flux) == [
        ("on-first", frozenset()),
        ("on", "bib"),
        ("on-first", frozenset({"bib"})),
    ]
    book_block = flux.handlers[1].body.handlers[0].body
    assert _handler_kinds(book_block) == [("on-first", frozenset({"author", "title"}))]
    body = book_block.handlers[0].body
    assert isinstance(body, ForExpr) and body.path == ("title",)


def test_example_4_4_ordered_dtd_produces_f2_prime():
    flux = rewrite_to_flux(parse_query(XMP_Q2), _dtd(BIB_DTD_ORDERED)).flux
    book_block = flux.handlers[1].body.handlers[0].body
    # Titles are processed by an "on" handler whose body delays only until the
    # title subtree is complete (past(*)), then joins against buffered authors.
    assert len(book_block.handlers) == 1
    title_handler = book_block.handlers[0]
    assert isinstance(title_handler, OnHandler) and title_handler.label == "title"
    nested = title_handler.body
    assert isinstance(nested, ProcessStream) and nested.var == title_handler.var
    assert len(nested.handlers) == 1
    inner = nested.handlers[0]
    assert isinstance(inner, OnFirstHandler) and inner.is_past_all
    assert isinstance(inner.body, ForExpr) and inner.body.path == ("author",)


# ---------------------------------------------------------------------------
# Example 4.5: XMP Q1


def test_example_4_5_weak_dtd_produces_f1():
    flux = rewrite_to_flux(parse_query(XMP_Q1), _dtd(BIB_Q1_DTD_UNORDERED)).flux
    book_block = flux.handlers[1].body.handlers[0].body
    kinds = _handler_kinds(book_block)
    assert kinds == [
        ("on-first", frozenset({"publisher", "year"})),
        ("on-first", frozenset({"publisher", "year"})),
        ("on-first", frozenset({"publisher", "year", "title"})),
        ("on-first", frozenset({"publisher", "year", "title"})),
    ]


def test_example_4_5_ordered_dtd_streams_titles():
    flux = rewrite_to_flux(parse_query(XMP_Q1), _dtd(BIB_Q1_DTD_ORDERED)).flux
    book_block = flux.handlers[1].body.handlers[0].body
    kinds = _handler_kinds(book_block)
    # The title loop now becomes an "on title" handler; titles are never buffered.
    assert ("on", "title") in kinds
    title_handler = next(h for h in book_block.handlers if isinstance(h, OnHandler))
    assert isinstance(title_handler.body, SimpleFlux)


# ---------------------------------------------------------------------------
# Example 4.6: the join query Q3


def test_example_4_6_weak_dtd_buffers_books_and_articles():
    flux = rewrite_to_flux(parse_query(XMP_Q3), _dtd(BIB_ARTICLES_DTD_UNORDERED)).flux
    bib_block = flux.handlers[1].body
    assert _handler_kinds(bib_block) == [("on-first", frozenset({"book", "article"}))]


def test_example_4_6_ordered_dtd_streams_articles():
    flux = rewrite_to_flux(parse_query(XMP_Q3), _dtd(BIB_ARTICLES_DTD_ORDERED)).flux
    bib_block = flux.handlers[1].body
    assert len(bib_block.handlers) == 1
    article_handler = bib_block.handlers[0]
    assert isinstance(article_handler, OnHandler) and article_handler.label == "article"
    nested = article_handler.body
    assert isinstance(nested, ProcessStream)
    assert len(nested.handlers) == 1
    inner = nested.handlers[0]
    assert isinstance(inner, OnFirstHandler)
    # The paper's F3': on-first past(author) inside each article.
    assert inner.symbols == frozenset({"author"})


# ---------------------------------------------------------------------------
# All rewrites are safe (Theorem 4.3)


@pytest.mark.parametrize(
    "query, dtd_source",
    [
        (XMP_INTRO, BIB_DTD_UNORDERED),
        (XMP_INTRO, BIB_DTD_USECASES),
        (XMP_Q1, BIB_Q1_DTD_UNORDERED),
        (XMP_Q1, BIB_Q1_DTD_ORDERED),
        (XMP_Q2, BIB_DTD_UNORDERED),
        (XMP_Q2, BIB_DTD_ORDERED),
        (XMP_Q3, BIB_ARTICLES_DTD_UNORDERED),
        (XMP_Q3, BIB_ARTICLES_DTD_ORDERED),
    ],
)
def test_all_paper_rewrites_are_safe(query, dtd_source):
    dtd = _dtd(dtd_source)
    flux = rewrite_to_flux(parse_query(query), dtd).flux
    assert is_safe(flux, dtd)
