"""Unit tests for the in-memory reference semantics."""

import pytest

from repro.xmlstream.parser import parse_tree
from repro.xquery.errors import XQueryEvaluationError
from repro.xquery.parser import parse_condition, parse_query
from repro.xquery.semantics import (
    compare_existential,
    document_environment,
    evaluate_condition,
    evaluate_query,
    evaluate_to_string,
)

DOC = """
<bib>
  <book><title>TCP</title><author>Stevens</author><year>1994</year>
        <publisher>Addison-Wesley</publisher><price>65</price></book>
  <book><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author>
        <year>2000</year><publisher>Morgan Kaufmann</publisher><price>39</price></book>
</bib>
"""


@pytest.fixture(scope="module")
def bib_root():
    return parse_tree(DOC)


def test_fixed_string_output(bib_root):
    assert evaluate_to_string(parse_query("<results/>"), bib_root) == "<results/>"


def test_path_output_serialises_subtrees(bib_root):
    out = evaluate_to_string(parse_query("{ $ROOT/bib/book/title }"), bib_root)
    assert out == "<title>TCP</title><title>Data on the Web</title>"


def test_for_loop_with_condition(bib_root):
    query = """
    { for $b in $ROOT/bib/book where $b/year > 1995 return {$b/title} }
    """
    assert evaluate_to_string(parse_query(query), bib_root) == "<title>Data on the Web</title>"


def test_string_equality_condition(bib_root):
    query = '{ for $b in $ROOT/bib/book where $b/publisher = "Addison-Wesley" return {$b/title} }'
    assert evaluate_to_string(parse_query(query), bib_root) == "<title>TCP</title>"


def test_nested_loops_produce_pairs(bib_root):
    query = """
    { for $b in $ROOT/bib/book return
        { for $a in $b/author return <p> {$b/title} {$a} </p> } }
    """
    out = evaluate_to_string(parse_query(query), bib_root)
    assert out.count("<p>") == 3
    assert "<author>Buneman</author>" in out


def test_exists_and_empty_conditions(bib_root):
    assert (
        evaluate_to_string(
            parse_query("{ for $b in $ROOT/bib/book where exists $b/author return <y/> }"),
            bib_root,
        )
        == "<y/><y/>"
    )
    assert (
        evaluate_to_string(
            parse_query("{ for $b in $ROOT/bib/book where empty($b/editor) return <y/> }"),
            bib_root,
        )
        == "<y/><y/>"
    )


def test_numeric_vs_string_comparison(bib_root):
    env = document_environment(bib_root)
    assert evaluate_condition(parse_condition("$ROOT/bib/book/price > 50"), env)
    assert not evaluate_condition(parse_condition("$ROOT/bib/book/price > 100"), env)
    assert evaluate_condition(parse_condition('$ROOT/bib/book/title = "TCP"'), env)


def test_existential_comparison_semantics():
    assert compare_existential(["1", "2"], "=", ["2", "5"])
    assert not compare_existential(["1", "2"], "=", ["3"])
    assert compare_existential(["abc"], "<", ["abd"])
    assert compare_existential([], "=", []) is False


# Numbers are the xs:double lexical form only: what ``float()`` accepts
# beyond it compares as a string (one test per spelling).


def test_underscore_digits_are_not_a_number():
    assert not compare_existential(["1_000"], "=", ["1000"])


def test_non_ascii_digits_are_not_a_number():
    assert not compare_existential(["١٢"], "=", ["12"])


def test_lowercase_nan_is_a_string_equal_to_itself():
    assert compare_existential(["nan"], "=", ["nan"])


def test_nan_is_a_number_equal_to_nothing():
    assert not compare_existential(["NaN"], "=", ["NaN"])
    assert not compare_existential(["NaN"], "<", ["1"])


def test_inf_spellings_are_numbers():
    assert compare_existential(["INF"], ">", ["1e308"])
    assert compare_existential(["-INF"], "<", ["-1e308"])


def test_float_only_infinity_spellings_are_strings():
    assert not compare_existential(["Infinity"], "=", ["INF"])
    assert not compare_existential(["+INF"], "=", ["INF"])


def test_double_lexical_forms_compare_numerically():
    assert compare_existential([" 1 "], "=", ["1.0"])
    assert compare_existential(["1e0"], "=", ["+1."])
    assert compare_existential([".5"], "=", ["5E-1"])
    assert compare_existential(["-0"], "=", ["0"])


def test_non_finite_numbers_format_in_the_double_lexical_form():
    from repro.xquery.semantics import _format_number

    assert [_format_number(v) for v in (float("inf"), float("-inf"), float("nan"))] == [
        "INF",
        "-INF",
        "NaN",
    ]


def test_scaled_path_condition(bib_root):
    env = document_environment(bib_root)
    # 65 > 1.5 * 39 = 58.5 holds for the (TCP, Data on the Web) pair.
    assert evaluate_condition(parse_condition("$ROOT/bib/book/price > (1.5 * $ROOT/bib/book/price)"), env)
    assert not evaluate_condition(parse_condition("$ROOT/bib/book/price > (2 * $ROOT/bib/book/price)"), env)


def test_unbound_variable_raises(bib_root):
    with pytest.raises(XQueryEvaluationError):
        evaluate_to_string(parse_query("{ $missing }"), bib_root)


def test_evaluate_query_with_explicit_root_binding(bib_root):
    # evaluate_query binds $ROOT directly to the given node, so paths start
    # below it (here: book directly under the bound node).
    out = evaluate_query(parse_query("{ $ROOT/book/title }"), bib_root)
    assert out.startswith("<title>TCP</title>")


def test_not_condition(bib_root):
    query = '{ for $b in $ROOT/bib/book where not($b/publisher = "Addison-Wesley") return {$b/title} }'
    assert evaluate_to_string(parse_query(query), bib_root) == "<title>Data on the Web</title>"


def test_or_condition(bib_root):
    query = '{ for $b in $ROOT/bib/book where $b/year = 1994 or $b/year = 2000 return <hit/> }'
    assert evaluate_to_string(parse_query(query), bib_root) == "<hit/><hit/>"


def test_output_order_follows_document_order(bib_root):
    out = evaluate_to_string(parse_query("{ $ROOT/bib/book/author }"), bib_root)
    assert out.index("Stevens") < out.index("Abiteboul") < out.index("Buneman")


# ---------------------------------------------------------------------------
# Error paths: bad inputs must raise precisely, never mis-evaluate


def test_unbound_variable_in_path_output_raises(bib_root):
    with pytest.raises(XQueryEvaluationError):
        evaluate_to_string(parse_query("{ $missing/title }"), bib_root)


def test_unbound_variable_in_condition_raises(bib_root):
    env = document_environment(bib_root)
    with pytest.raises(XQueryEvaluationError):
        evaluate_condition(parse_condition("$missing/year > 1991"), env)
    with pytest.raises(XQueryEvaluationError):
        evaluate_condition(parse_condition("exists $missing/title"), env)


def test_unbound_variable_in_for_source_raises(bib_root):
    with pytest.raises(XQueryEvaluationError):
        evaluate_to_string(parse_query("{ for $b in $missing/book return { $b } }"), bib_root)


def test_non_expression_raises_type_error(bib_root):
    from repro.xquery.semantics import _evaluate

    with pytest.raises(TypeError):
        _evaluate("not-an-expression", {}, [])


def test_non_condition_raises_type_error(bib_root):
    env = document_environment(bib_root)
    with pytest.raises(TypeError):
        evaluate_condition("not-a-condition", env)


def test_non_operand_raises_type_error(bib_root):
    from repro.xquery.ast import ComparisonCondition, StringLiteral
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Bogus:
        pass

    env = document_environment(bib_root)
    condition = ComparisonCondition.__new__(ComparisonCondition)
    object.__setattr__(condition, "left", Bogus())
    object.__setattr__(condition, "op", "=")
    object.__setattr__(condition, "right", StringLiteral("x"))
    with pytest.raises(TypeError):
        evaluate_condition(condition, env)


def test_invalid_comparison_operator_raises():
    from repro.xquery.ast import ComparisonCondition
    from repro.xquery.semantics import _apply_op

    with pytest.raises(ValueError):
        ComparisonCondition(left=None, op="<>", right=None)
    with pytest.raises(ValueError):
        _apply_op(1, "~", 2)
    assert not compare_existential([], "=", ["x"])  # empty sequence: no pair, no error


def test_condition_on_missing_paths_is_false_not_an_error(bib_root):
    """Paths that select nothing atomise to the empty sequence: every
    existential comparison is simply false -- never an exception."""
    env = document_environment(bib_root)
    assert not evaluate_condition(parse_condition("$ROOT/bib/isbn = 1"), env)
    assert not evaluate_condition(parse_condition("exists $ROOT/bib/isbn"), env)
    assert evaluate_condition(parse_condition("empty($ROOT/bib/isbn)"), env)


# ---------------------------------------------------------------------------
# Unsafe queries must raise at planning time, not mis-plan into wrong output


def test_unsafe_flux_query_raises_at_compile_time():
    from repro.dtd.parser import parse_dtd
    from repro.engine.engine import FluxEngine
    from repro.flux.errors import UnsafeQueryError
    from repro.flux.ast import OnFirstHandler, OnHandler, ProcessStream, SimpleFlux

    dtd = parse_dtd(
        """
        <!ELEMENT bib (book)*>
        <!ELEMENT book ((title|author)*,price)>
        <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)> <!ELEMENT price (#PCDATA)>
        """
    ).with_root("bib")
    # Hand-written FluX referencing price from past(title,author): price may
    # still arrive, so Definition 3.6 is violated.
    unsafe = ProcessStream(
        "$ROOT",
        [
            OnHandler(
                "bib",
                "$bib",
                ProcessStream(
                    "$bib",
                    [
                        OnHandler(
                            "book",
                            "$b",
                            ProcessStream(
                                "$b",
                                [
                                    OnFirstHandler(
                                        frozenset({"title", "author"}),
                                        parse_query("{ for $p in $b/price return {$p} }"),
                                    )
                                ],
                            ),
                        )
                    ],
                ),
            )
        ],
    )
    with pytest.raises(UnsafeQueryError):
        FluxEngine(unsafe, dtd)


def test_ancestor_subtree_output_raises_unschedulable():
    from repro.dtd.parser import parse_dtd
    from repro.engine.engine import FluxEngine
    from repro.flux.errors import FluxError

    dtd = parse_dtd(
        "<!ELEMENT bib (book)*> <!ELEMENT book (title)> <!ELEMENT title (#PCDATA)>"
    ).with_root("bib")
    # {$bib} output from inside the book scope: the ancestor subtree cannot
    # be complete while we are still streaming through it.
    with pytest.raises(FluxError):
        FluxEngine("{ for $b in $ROOT/bib/book return { $bib } }", dtd)
