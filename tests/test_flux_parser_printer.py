"""Unit tests for the FluX concrete-syntax parser and pretty printer."""

import pytest

from repro.flux.ast import OnFirstHandler, OnHandler, ProcessStream, SimpleFlux
from repro.flux.errors import FluxParseError
from repro.flux.parser import parse_flux
from repro.flux.rewrite import rewrite_to_flux
from repro.flux.serialize import flux_to_source
from repro.dtd.parser import parse_dtd
from repro.xquery.ast import ForExpr, VarOutputExpr
from repro.xquery.parser import parse_query
from repro.xmark.usecases import BIB_DTD_UNORDERED, XMP_Q2

INTRO_FLUX = """
<results>
{ process-stream $ROOT: on bib as $bib return
  { process-stream $bib: on book as $book return
    <result>
    { process-stream $book:
      on title as $t return {$t};
      on-first past(title,author) return
        { for $a in $book/author return {$a} } }
    </result> } }
</results>
"""


def test_parse_intro_flux_query_structure():
    flux = parse_flux(INTRO_FLUX)
    assert isinstance(flux, ProcessStream)
    assert flux.var == "$ROOT"
    assert flux.pre == "<results>"
    assert flux.post == "</results>"
    bib_handler = flux.handlers[0]
    assert isinstance(bib_handler, OnHandler) and bib_handler.label == "bib"
    book_handler = bib_handler.body.handlers[0]
    assert isinstance(book_handler, OnHandler) and book_handler.label == "book"
    inner = book_handler.body
    assert inner.pre == "<result>" and inner.post == "</result>"
    on_title, on_first = inner.handlers
    assert isinstance(on_title, OnHandler) and on_title.label == "title"
    assert isinstance(on_title.body, SimpleFlux)
    assert on_title.body.expr == VarOutputExpr("$t")
    assert isinstance(on_first, OnFirstHandler)
    assert on_first.symbols == frozenset({"title", "author"})
    assert isinstance(on_first.body, ForExpr)


def test_parse_shorthand_ps_and_star():
    flux = parse_flux("{ ps $ROOT: on-first past(*) return <hello/> }")
    handler = flux.handlers[0]
    assert isinstance(handler, OnFirstHandler)
    assert handler.is_past_all


def test_parse_empty_past_set():
    flux = parse_flux("{ ps $ROOT: on-first past() return <hello/> }")
    assert flux.handlers[0].symbols == frozenset()


def test_plain_xquery_parses_as_simple_flux():
    flux = parse_flux("<results> {$x} </results>")
    assert isinstance(flux, SimpleFlux)


def test_nested_on_handlers_parse_recursively():
    flux = parse_flux(
        "{ ps $ROOT: on a as $a return { ps $a: on b as $b return {$b} } }"
    )
    inner = flux.handlers[0].body
    assert isinstance(inner, ProcessStream) and inner.var == "$a"


def test_reject_two_ps_blocks_at_the_same_level():
    with pytest.raises(FluxParseError):
        parse_flux("{ ps $x: on a as $a return {$a} } { ps $y: on b as $b return {$b} }")


def test_reject_handlerless_block():
    with pytest.raises(FluxParseError):
        parse_flux("{ ps $x: }")


def test_reject_missing_return():
    with pytest.raises(FluxParseError):
        parse_flux("{ ps $x: on a as $a }")


def test_reject_expression_next_to_ps_block():
    with pytest.raises(FluxParseError):
        parse_flux("{$y} { ps $x: on a as $a return {$a} }")


def test_printer_parser_round_trip_on_rewritten_query():
    dtd = parse_dtd(BIB_DTD_UNORDERED).with_root("bib")
    flux = rewrite_to_flux(parse_query(XMP_Q2), dtd).flux
    printed = flux_to_source(flux)
    reparsed = parse_flux(printed)
    assert flux_to_source(reparsed) == printed


def test_printer_uses_longhand_when_requested():
    flux = parse_flux("{ ps $ROOT: on-first past() return <x/> }")
    assert "process-stream" in flux_to_source(flux, shorthand=False)
    assert "ps $ROOT" in flux_to_source(flux, shorthand=True)
