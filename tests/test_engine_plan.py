"""Unit tests for the plan compiler (scope specs, handlers, punctuation tables)."""

import pytest

from repro.dtd.parser import parse_dtd
from repro.engine.plan import (
    CompiledOn,
    CompiledOnFirst,
    build_value_trie,
    compile_plan,
)
from repro.flux.errors import UnschedulableQueryError
from repro.flux.parser import parse_flux
from repro.flux.rewrite import rewrite_to_flux
from repro.xquery.parser import parse_query
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import QUERY_1, QUERY_8, QUERY_20
from repro.xmark.usecases import BIB_DTD_UNORDERED, BIB_DTD_USECASES, XMP_INTRO


def _dtd(source):
    return parse_dtd(source).with_root("bib")


def _plan(query_source, dtd):
    return compile_plan(rewrite_to_flux(parse_query(query_source), dtd).flux, dtd)


def test_plan_structure_of_intro_query():
    plan = _plan(XMP_INTRO, _dtd(BIB_DTD_USECASES))
    root = plan.root_scope
    assert root.var == "$ROOT"
    assert root.element_type == "#ROOT"
    assert root.automaton is not None
    bib_handler = next(h for h in root.handlers if isinstance(h, CompiledOn))
    assert bib_handler.label == "bib"
    assert bib_handler.nested is not None
    book_handler = bib_handler.nested.handlers[0]
    assert isinstance(book_handler, CompiledOn)
    book_scope = book_handler.nested
    copies = [h for h in book_scope.handlers if isinstance(h, CompiledOn) and h.copy is not None]
    assert {h.label for h in copies} == {"title", "author"}
    assert all(h.copy.copy_var is not None for h in copies)


def test_plan_with_buffers_for_weak_dtd():
    plan = _plan(XMP_INTRO, _dtd(BIB_DTD_UNORDERED))
    assert plan.buffer_trees
    book_var = next(iter(plan.buffer_trees))
    assert plan.buffer_trees[book_var].children["author"].marked
    assert "author" in plan.describe_buffers()


def test_past_tables_reflect_the_dtd():
    plan = _plan(XMP_INTRO, _dtd(BIB_DTD_UNORDERED))
    root = plan.root_scope
    closing = [h for h in root.handlers if isinstance(h, CompiledOnFirst) and h.symbols == frozenset({"bib"})]
    assert len(closing) == 1
    table = closing[0].past_table
    assert table is not None
    # Not past at the initial state; past after the single bib child.
    assert table[0] is False
    assert any(value for state, value in table.items() if state != 0)
    assert not closing[0].fires_initially()


def test_empty_past_set_fires_initially():
    plan = _plan(XMP_INTRO, _dtd(BIB_DTD_USECASES))
    opening = [h for h in plan.root_scope.handlers if isinstance(h, CompiledOnFirst)][0]
    assert opening.symbols == frozenset()
    assert opening.fires_initially()


def test_q1_plan_has_condition_value_paths_but_no_buffers():
    plan = _plan(QUERY_1, xmark_dtd())
    assert plan.buffer_trees == {}
    assert any(("person_id",) in paths for paths in plan.value_paths.values())


def test_q20_plan_has_root_marked_scope():
    plan = _plan(QUERY_20, xmark_dtd())
    assert len(plan.buffer_trees) == 1
    tree = next(iter(plan.buffer_trees.values()))
    assert tree.marked


def test_q8_plan_buffers_on_the_site_scope():
    plan = _plan(QUERY_8, xmark_dtd())
    assert len(plan.buffer_trees) == 1
    var = next(iter(plan.buffer_trees))
    tree = plan.buffer_trees[var]
    assert set(tree.children) == {"people", "closed_auctions"}


def test_value_trie_structure():
    trie = build_value_trie(frozenset({("a", "b"), ("a", "c"), ("d",)}))
    assert set(trie.children) == {"a", "d"}
    assert trie.children["a"].children["b"].terminal_path == ("a", "b")
    assert trie.children["d"].terminal_path == ("d",)
    assert build_value_trie(frozenset()) is None


def test_unsafe_query_is_rejected_unless_disabled():
    from repro.flux.errors import UnsafeQueryError

    dtd = _dtd(BIB_DTD_UNORDERED)
    unsafe = parse_flux(
        "{ ps $ROOT: on bib as $bib return { ps $bib: on book as $b return "
        "{ ps $b: on-first past(title) return { for $a in $b/author return {$a} } } } }"
    )
    with pytest.raises(UnsafeQueryError):
        compile_plan(unsafe, dtd)
    plan = compile_plan(unsafe, dtd, require_safe=False)
    assert plan.root_scope is not None


def test_nested_process_stream_variable_mismatch_is_rejected():
    from repro.flux.ast import OnHandler, ProcessStream, OnFirstHandler
    from repro.xquery.ast import TextExpr

    dtd = _dtd(BIB_DTD_USECASES)
    bad = ProcessStream(
        "$ROOT",
        [OnHandler("bib", "$bib", ProcessStream("$other", [OnFirstHandler(frozenset(), TextExpr("x"))]))],
    )
    with pytest.raises(UnschedulableQueryError):
        compile_plan(bad, dtd, require_safe=False)


def test_simple_top_level_query_compiles_to_a_degenerate_plan():
    from repro.flux.ast import SimpleFlux
    from repro.xquery.ast import TextExpr

    dtd = _dtd(BIB_DTD_USECASES)
    plan = compile_plan(SimpleFlux(TextExpr("<hello/>")), dtd)
    assert len(plan.root_scope.handlers) == 1
    assert plan.root_scope.handlers[0].fires_initially()
