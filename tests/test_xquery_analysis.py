"""Unit tests for the static analyses over XQuery⁻ expressions."""

from repro.xquery.analysis import (
    WHOLE,
    binding_environment,
    condition_paths,
    dependencies,
    expression_size,
    free_variables,
    iter_subexpressions,
    path_references,
    rename_variable,
    uses_whole_variable,
    variables_bound,
)
from repro.xquery.ast import ForExpr, PathRef, ROOT_VARIABLE, VarOutputExpr
from repro.xquery.parser import parse_query

INTRO_QUERY = """
<results>
{ for $b in $ROOT/bib/book return
  <result> {$b/title} {$b/author} </result> }
</results>
"""

JOIN_QUERY = """
{ for $bib in $ROOT/bib return
  { for $article in $bib/article return
    { for $book in $bib/book
      where $article/author = $book/editor
      return <result> {$article/author} </result> } } }
"""


def test_free_variables_of_query_is_root_only():
    expr = parse_query(INTRO_QUERY)
    assert free_variables(expr) == {ROOT_VARIABLE}


def test_free_variables_inside_loop_body():
    expr = parse_query(INTRO_QUERY)
    loop = next(sub for sub in iter_subexpressions(expr) if isinstance(sub, ForExpr))
    assert free_variables(loop.body) == {"$b"}


def test_variables_bound_collects_all_loop_variables():
    expr = parse_query(JOIN_QUERY)
    assert variables_bound(expr) == {"$bib", "$article", "$book"}


def test_condition_paths_reports_both_sides_of_a_join():
    expr = parse_query(JOIN_QUERY)
    refs = set(condition_paths(expr))
    assert PathRef("$article", ("author",)) in refs
    assert PathRef("$book", ("editor",)) in refs


def test_dependencies_of_paper_example():
    # Example 3.5 / Section 4.2: inside the book scope, the title-loop body
    # depends on 'author' (it iterates over $b/author).
    expr = parse_query(
        "{ for $t in $b/title return { for $a in $b/author return <r> {$t} {$a} </r> } }"
    )
    assert dependencies("$b", expr.body) == {"author"}
    assert dependencies("$b", expr) == {"title", "author"}
    assert dependencies("$t", expr) == frozenset()


def test_dependencies_include_condition_paths():
    expr = parse_query(
        '{ if $b/publisher = "X" and $b/year > 1991 then <hit/> }'
    )
    assert dependencies("$b", expr) == {"publisher", "year"}


def test_a_condition_on_a_bare_variable_depends_on_all_of_it():
    expr = parse_query('{ if $b = "X" and $b/year > 1991 then <hit/> }')
    assert dependencies("$b", expr) == {WHOLE, "year"}


def test_path_references_kinds():
    expr = parse_query(JOIN_QUERY)
    kinds = {(var, path, kind) for var, path, kind in path_references(expr)}
    assert ("$bib", ("article",), "for") in kinds
    assert ("$bib", ("book",), "for") in kinds
    assert ("$article", ("author",), "condition") in kinds
    assert ("$article", ("author",), "output") in kinds


def test_uses_whole_variable():
    expr = parse_query("{ for $p in $ROOT/site/people/person return {$p} }")
    assert uses_whole_variable(expr, "$p")
    assert not uses_whole_variable(expr, "$ROOT")


def test_rename_variable_renames_bindings_and_uses():
    expr = parse_query("{ for $x in $y/a return { if $x/b = 1 then {$x} } }")
    renamed = rename_variable(expr, "$x", "$z")
    assert variables_bound(renamed) == {"$z"}
    assert uses_whole_variable(renamed, "$z")
    assert not uses_whole_variable(renamed, "$x")
    assert dependencies("$z", renamed.body) == {"b"}


def test_rename_variable_renames_source_references():
    expr = parse_query("{ for $a in $x/item return {$a} }")
    renamed = rename_variable(expr, "$x", "$y")
    assert isinstance(renamed, ForExpr) and renamed.source == "$y"


def test_binding_environment_maps_variables_to_paths():
    expr = parse_query(JOIN_QUERY)
    env = binding_environment(expr, ROOT_VARIABLE)
    assert env["$bib"] == (ROOT_VARIABLE, ("bib",))
    assert env["$article"] == ("$bib", ("article",))
    assert env["$book"] == ("$bib", ("book",))


def test_expression_size_counts_nodes():
    small = parse_query("{$x}")
    large = parse_query(INTRO_QUERY)
    assert expression_size(small) == 1
    assert expression_size(large) > expression_size(small)


def test_iter_subexpressions_contains_every_var_output():
    expr = parse_query(INTRO_QUERY)
    outputs = [sub for sub in iter_subexpressions(expr) if isinstance(sub, VarOutputExpr)]
    assert outputs == []  # {$b/title} is a PathOutput, not a VarOutput
    refs = [sub for sub, in zip(iter_subexpressions(expr))]
    assert len(refs) == expression_size(expr)
