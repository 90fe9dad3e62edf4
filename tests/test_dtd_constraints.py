"""Unit and property tests for order constraints, Past, first-past, cardinalities."""

from hypothesis import given, settings, strategies as st

from repro.dtd.ast import enumerate_words
from repro.dtd.constraints import OrderConstraints
from repro.dtd.glushkov import INITIAL_STATE, build_glushkov
from repro.dtd.parser import parse_content_model, parse_dtd


def constraints_of(model: str) -> OrderConstraints:
    return OrderConstraints(build_glushkov(parse_content_model(model)))


# ---------------------------------------------------------------------------
# Ord


def test_paper_example_2_1_order_constraints():
    oc = constraints_of("(a*,b,c*,(d|e*),a*)")
    assert oc.ord("b", "c")
    assert oc.ord("c", "d")
    assert oc.ord("c", "e")
    assert not oc.ord("a", "c")
    # Transitivity noted in the paper: Ord(b, d) follows.
    assert oc.ord("b", "d")


def test_ord_on_interleaved_content_is_false():
    oc = constraints_of("((title|author)*)")
    assert not oc.ord("title", "author")
    assert not oc.ord("author", "title")


def test_ord_on_fixed_sequence():
    oc = constraints_of("(title,(author+|editor+),publisher,price)")
    assert oc.ord("title", "author")
    assert oc.ord("author", "publisher")
    assert oc.ord("title", "price")
    assert not oc.ord("publisher", "title")


def test_ord_is_vacuously_true_for_foreign_symbols():
    oc = constraints_of("(title,author*)")
    assert oc.ord("missing", "title")
    assert oc.ord("title", "missing")


def test_ord_useful_requires_the_anchor_to_occur():
    # Example 4.6: Ord_article(author, book) must NOT discharge the
    # dependency on author because 'book' cannot occur below an article.
    oc = constraints_of("(title,author+,journal)")
    assert oc.ord("author", "book")          # formal relation: vacuously true
    assert not oc.ord_useful("author", "book")  # scheduling relation: not useful
    assert oc.ord_useful("missing", "book")     # absent dependency: dischargeable
    assert oc.ord_useful("title", "author")


def test_ord_with_repeated_symbol():
    oc = constraints_of("(a,b,a)")
    assert not oc.ord("a", "a")
    assert not oc.ord("a", "b")
    assert not oc.ord("b", "a")
    oc2 = constraints_of("(a,b)")
    assert oc2.ord("a", "a")  # at most one a: vacuously ordered against itself


# ---------------------------------------------------------------------------
# Past / PastTable


def test_past_after_final_occurrence():
    oc = constraints_of("(a,b)")
    auto = oc.automaton
    state_a = auto.step(INITIAL_STATE, "a")
    state_b = auto.step(state_a, "b")
    assert oc.past(state_a, "a")
    assert not oc.past(state_a, "b")
    assert oc.past(state_b, "a")
    assert oc.past(state_b, "b")


def test_past_with_loop_is_not_past():
    oc = constraints_of("(a*)")
    auto = oc.automaton
    state_a = auto.step(INITIAL_STATE, "a")
    assert not oc.past(state_a, "a")


def test_past_table_conjunction():
    oc = constraints_of("(a,b,c)")
    auto = oc.automaton
    table = oc.past_table({"a", "b"})
    state_a = auto.step(INITIAL_STATE, "a")
    state_b = auto.step(state_a, "b")
    assert not table[INITIAL_STATE]
    assert not table[state_a]
    assert table[state_b]


def test_past_table_empty_set_is_always_true():
    oc = constraints_of("(a,b)")
    table = oc.past_table(frozenset())
    assert all(table.values())


# ---------------------------------------------------------------------------
# Cardinalities


def test_at_most_one_and_at_least_one():
    oc = constraints_of("(title,author*,price?)")
    assert oc.at_most_one("title")
    assert oc.at_most_one("price")
    assert not oc.at_most_one("author")
    assert oc.at_least_one("title")
    assert not oc.at_least_one("author")
    assert not oc.at_least_one("price")
    assert oc.exactly_one("title")
    assert not oc.exactly_one("price")


def test_cardinalities_with_choice():
    oc = constraints_of("((author+|editor+))")
    assert not oc.at_most_one("author")
    assert not oc.at_least_one("author")  # an editor-only word avoids authors
    assert not oc.at_least_one("editor")


def test_cardinality_of_foreign_symbol():
    oc = constraints_of("(a,b)")
    assert oc.at_most_one("zzz")
    assert not oc.at_least_one("zzz")


def test_dtd_level_accessors(bib_dtd_usecases, xmark_schema):
    assert bib_dtd_usecases.ord("book", "title", "author")
    assert not bib_dtd_usecases.ord("book", "author", "title")
    # Every XMark content model preprocesses; Q1's schedule rests on this one.
    assert all(xmark_schema.constraints(name) for name in xmark_schema.element_names)
    assert xmark_schema.ord("person", "person_id", "name")
    constraints = bib_dtd_usecases.constraints("book")
    assert constraints.at_most_one("title")
    assert constraints.at_most_one("publisher")


# ---------------------------------------------------------------------------
# Property tests against brute-force enumeration


_MODELS = (
    "(a*,b,c*,(d|e*),a*)",
    "(a,b,c)",
    "((a|b)*,c)",
    "(a?,b*,c+)",
    "((a|b|c)*)",
    "(a,(b|c)*,a?)",
    "(title,(author+|editor+),publisher)",
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_MODELS), st.data())
def test_ord_matches_brute_force_on_enumerated_words(model, data):
    particle = parse_content_model(model)
    oc = OrderConstraints(build_glushkov(particle))
    words = list(enumerate_words(particle, max_length=5))
    symbols = sorted(particle.symbols())
    first = data.draw(st.sampled_from(symbols))
    second = data.draw(st.sampled_from(symbols))
    # Brute force: Ord(first, second) iff no enumerated word has a `first`
    # occurring after a `second`.
    violated = any(
        i < j
        for word in words
        for i, x in enumerate(word)
        for j, y in enumerate(word)
        if x == second and y == first
    )
    assert oc.ord(first, second) == (not violated)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_MODELS), st.data())
def test_first_past_never_fires_too_early(model, data):
    """Where the past table holds after a prefix u -- the state the executor
    reaches by stepping the automaton over u -- no enumerated completion of
    u may contain a symbol of S."""
    particle = parse_content_model(model)
    oc = OrderConstraints(build_glushkov(particle))
    words = list(enumerate_words(particle, max_length=5))
    if not words:
        return
    word = data.draw(st.sampled_from(words))
    symbols = sorted(particle.symbols())
    watch = frozenset(data.draw(st.sets(st.sampled_from(symbols), min_size=1, max_size=2)))
    table = oc.past_table(watch)
    state = INITIAL_STATE
    for length in range(len(word) + 1):
        if length:
            state = oc.automaton.step(state, word[length - 1])
        assert state is not None, word
        if not table[state]:
            continue
        prefix = word[:length]
        for other in words:
            if other[:length] == prefix:
                assert not any(symbol in watch for symbol in other[length:]), (word, length)


def test_at_most_one_matches_brute_force():
    for model in _MODELS:
        particle = parse_content_model(model)
        oc = OrderConstraints(build_glushkov(particle))
        words = list(enumerate_words(particle, max_length=5))
        for symbol in particle.symbols():
            repeated = any(word.count(symbol) > 1 for word in words)
            if oc.at_most_one(symbol):
                assert not repeated


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_MODELS), st.data())
def test_erased_automaton_decides_as_the_element_automaton(model, data):
    """Stepped on the observed children of a valid word only, the erased
    automaton accepts the word, and after each observed child its table
    says what the element's automaton's table says there."""
    particle = parse_content_model(model)
    oc = OrderConstraints(build_glushkov(particle))
    observed = frozenset(data.draw(st.sets(st.sampled_from(sorted(particle.symbols())), min_size=1)))
    watch = data.draw(st.sets(st.sampled_from(sorted(observed))))
    full = oc.past_table(watch)
    erased = oc.erased(observed, [full])
    if erased is None:
        return
    automaton, (table,) = erased
    assert table[INITIAL_STATE] == full[INITIAL_STATE]
    for word in enumerate_words(particle, max_length=5):
        state = erased_state = INITIAL_STATE
        for symbol in word:
            state = oc.automaton.step(state, symbol)
            if symbol in observed:
                erased_state = automaton.step(erased_state, symbol)
                assert automaton.state_symbol(erased_state) == symbol
                assert table[erased_state] == full[state], (word, symbol)
        assert automaton.is_accepting(erased_state), word


def test_erasure_refuses_when_an_unobserved_child_decides():
    oc = constraints_of("((h,r,b)|(r,c))")
    # After r, only the unobserved h says whether a b may still come.
    assert oc.erased(frozenset({"r", "b"}), [oc.past_table({"b"})]) is None
    automaton, (table,) = oc.erased(frozenset({"h", "r", "b"}), [oc.past_table({"b"})])
    assert table[automaton.step(INITIAL_STATE, "r")] is True
