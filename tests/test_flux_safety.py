"""Unit tests for the Definition-3.6 safety checker."""

from repro.dtd.parser import parse_dtd
from repro.flux.ast import OnFirstHandler, OnHandler, ProcessStream, SimpleFlux
from repro.flux.parser import parse_flux
from repro.flux.rewrite import rewrite_query
from repro.flux.safety import check_safety, is_safe
from repro.xquery.parser import parse_query
from repro.xmark.usecases import BIB_DTD_UNORDERED, BIB_DTD_USECASES

WEAK = parse_dtd(BIB_DTD_UNORDERED).with_root("bib")
ORDERED = parse_dtd(BIB_DTD_USECASES).with_root("bib")


def _book_scope(handlers):
    """Wrap a list of book-level handlers into a complete FluX query."""
    return ProcessStream(
        "$ROOT",
        [
            OnHandler(
                "bib",
                "$bib",
                ProcessStream("$bib", [OnHandler("book", "$b", ProcessStream("$b", handlers))]),
            )
        ],
    )


def test_paper_intro_query_is_safe_for_weak_dtd():
    query = _book_scope(
        [
            OnHandler("title", "$t", SimpleFlux(parse_query("{$t}"))),
            OnFirstHandler(
                frozenset({"title", "author"}),
                parse_query("{ for $a in $b/author return {$a} }"),
            ),
        ]
    )
    assert is_safe(query, WEAK)


def test_unsafe_when_dependency_not_covered_by_past_set():
    # The paper's running example: replacing author by price (which may still
    # arrive) makes the query unsafe for <!ELEMENT book ((title|author)*,price)>.
    dtd = parse_dtd(
        """
        <!ELEMENT bib (book)*>
        <!ELEMENT book ((title|author)*,price)>
        <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)> <!ELEMENT price (#PCDATA)>
        """
    ).with_root("bib")
    query = _book_scope(
        [
            OnHandler("title", "$t", SimpleFlux(parse_query("{$t}"))),
            OnFirstHandler(
                frozenset({"title", "author"}),
                parse_query("{ for $p in $b/price return {$p} }"),
            ),
        ]
    )
    violations = check_safety(query, dtd)
    assert violations
    assert any("price" in violation.message for violation in violations)


def test_on_handler_unsafe_when_dependency_not_ordered_before_label():
    # Streaming titles while the body still needs authors is unsafe when the
    # DTD does not order authors before titles.
    query = _book_scope(
        [
            OnHandler(
                "title",
                "$t",
                ProcessStream(
                    "$t",
                    [OnFirstHandler(None, parse_query("{ for $a in $b/author return {$a} {$t} }"))],
                ),
            )
        ]
    )
    assert not is_safe(query, WEAK)
    # With titles ordered before authors the same query is still unsafe, but
    # with authors ordered before titles (Example 4.4's second DTD) it is safe.
    ordered_authors_first = parse_dtd(
        "<!ELEMENT bib (book)*> <!ELEMENT book (author*,title*)>"
        " <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>"
    ).with_root("bib")
    assert is_safe(query, ordered_authors_first)


def test_whole_variable_output_requires_past_of_all_symbols():
    # {$b} may only be output once every child symbol of book is past.
    safe = _book_scope([OnFirstHandler(None, parse_query("{$b}"))])
    assert is_safe(safe, ORDERED)
    unsafe = _book_scope([OnFirstHandler(frozenset({"title"}), parse_query("{$b}"))])
    violations = check_safety(unsafe, ORDERED)
    assert violations


def test_whole_output_of_foreign_variable_is_unsafe():
    query = _book_scope([OnFirstHandler(None, parse_query("{$bib}"))])
    assert not is_safe(query, ORDERED)


def test_simple_on_handler_must_copy_its_own_variable():
    query = _book_scope([OnHandler("title", "$t", SimpleFlux(parse_query("{$b}")))])
    violations = check_safety(query, ORDERED)
    assert any("instead of the bound variable" in violation.message for violation in violations)


def test_safety_of_handwritten_example_5_1():
    # Example 5.1 of the paper (publishers whose CEO has published articles).
    dtd = parse_dtd(
        """
        <!ELEMENT bib (book*,article*)>
        <!ELEMENT book (publisher*)>
        <!ELEMENT publisher (name,ceo?)>
        <!ELEMENT article (author*)>
        <!ELEMENT author (#PCDATA)>
        <!ELEMENT name (#PCDATA)>
        <!ELEMENT ceo (#PCDATA)>
        """
    ).with_root("bib")
    query = parse_flux(
        """
        { ps $ROOT: on bib as $bib return
          { ps $bib: on article as $article return
            { ps $article: on-first past(author) return
              { for $book in $bib/book return
                { for $p in $book/publisher return
                  { if $article/author = $book/publisher/ceo then {$p} } } } } } }
        """
    )
    assert is_safe(query, dtd)


def test_rewrite_output_is_always_safe_even_for_weak_dtds():
    from repro.xmark.usecases import XMP_Q1, XMP_Q2, XMP_Q3

    for source in (XMP_Q1, XMP_Q2, XMP_Q3):
        flux = rewrite_query(parse_query(source), WEAK)
        assert is_safe(flux, WEAK), source


def test_violations_carry_context():
    unsafe = _book_scope([OnFirstHandler(frozenset({"title"}), parse_query("{$b}"))])
    violation = check_safety(unsafe, ORDERED)[0]
    assert violation.variable == "$b"
    assert "on-first" in violation.handler
    assert str(violation)


def test_a_condition_on_the_bare_scope_variable_needs_past_all():
    """Comparing ``$b`` itself reads all of it: only ``past(*)`` covers that,
    and neither a smaller past set nor an ``on`` handler does."""
    condition = parse_query('{ if $b = "X" then <hit/> }')
    early = _book_scope([OnFirstHandler(frozenset({"title", "author"}), condition)])
    assert [violation.handler for violation in check_safety(early, ORDERED)] == [
        "on-first past(author,title)"
    ]
    assert is_safe(_book_scope([OnFirstHandler(None, condition)]), ORDERED)
    streamed = _book_scope(
        [OnHandler("title", "$t", SimpleFlux(parse_query('{ if $b = "X" then {$t} }')))]
    )
    assert not is_safe(streamed, ORDERED)
    rewritten = rewrite_query(
        parse_query('<r>{ for $b in $ROOT/bib/book return { if $b = "X" then <hit/> } }</r>'), ORDERED
    )
    assert is_safe(rewritten, ORDERED)
