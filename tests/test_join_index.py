"""Indexed joins in on-first bodies (``JoinGuard`` + the executor's sorted key index).

* (a) the index never drops a match: for every indexed operator, both
  operand orientations and ``ScaledPath`` operands, over hostile values, the
  candidates it admits contain every node the reference evaluator's
  brute force accepts, in document order;
* (b) guard analysis indexes the Q8 and Q11 shapes and nothing it must not;
* (c) deterministic comparison counts on XMark: one compiled comparison
  (``_existential``) per emitted result, not one per (outer, inner) pair,
  nor one per ``if`` that repeats the guard.
"""

import itertools
import random

import pytest

import repro.engine.xquery_exec as xquery_exec
from repro.engine.buffers import BufferManager
from repro.core.session import FluxSession
from repro.engine.engine import FluxEngine
from repro.engine.plan import join_guards
from repro.engine.projection import build_buffer_tree
from repro.engine.xquery_exec import compile_handler
from repro.xmark.dtd import xmark_dtd
from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmlstream.parser import parse_events, parse_tree
from repro.xmlstream.serializer import serialize_events
from repro.xquery.parser import parse_query
from repro.xquery.semantics import evaluate_condition, evaluate_query

HOSTILE = (
    "1", " 1 ", "1.0", "1e0", "+1.", "01", "-0", "0", "2", "10", "12", ".5", "-1e-3",
    "1000", "1_000", "١٢", "INF", "-INF", "+INF", "NaN", "nan", "Infinity", "",
    " ", "abc", "abc ", "ABC", "ü", "\t7\n",
)  # fmt: skip

OPS = ("=", "<", "<=", ">", ">=")

CONDITIONS = (
    "$t/k {op} $o/v",  # loop variable on the left
    "$o/v {op} $t/k",  # ... and on the right
    "$t/k {op} (2 * $o/v)",  # ScaledPath on the outer side
    "(0.5 * $t/k) {op} $o/v",  # ScaledPath on the loop side
)


def _element(name, values):
    return "".join(f"<{name}>{value}</{name}>" for value in values)


class _Scope:
    """What a compiled body reads of a scope activation."""

    def __init__(self, element_name, buffer):
        self.element_name = element_name
        self.buffer = buffer
        self.value_store = {}
        self.memo = None


#: Every scope buffer here holds its scope element (``{$x}`` is output).
MARKED = build_buffer_tree({(): True})


def _buffered(var, text):
    """``(binding, tree)``: ``text`` as a root-marked scope buffer and as the reference tree."""
    buffer = BufferManager().create_buffer(var)
    buffer.extend(parse_events(text, document_events=False))
    tree = parse_tree(text)
    return _Scope(tree.name, buffer), tree


def _run(loop, joins, scopes, sink):
    """Run ``loop`` as one handler execution over ``scopes`` (variable -> binding)."""
    run = compile_handler(loop, dict.fromkeys(scopes, MARKED), joins)
    run({var: [binding] for var, binding in scopes.items()}, sink)


@pytest.fixture(scope="module")
def hostile_trees():
    rng = random.Random(7)
    # Zero to three keys per item: a missing key and several keys both occur.
    items = "".join(
        f"<item>{_element('k', rng.sample(HOSTILE, rng.randint(0, 3)))}</item>" for _ in range(60)
    )
    container = _buffered("$c", f"<c>{items}</c>")
    outers = [_buffered("$o", f"<o>{_element('v', values)}</o>") for values in (
        *([value] for value in HOSTILE),
        (),
        ("1", "abc"),
        ("NaN", "INF"),
        (" 12 ", "ü", "-INF"),
    )]  # fmt: skip
    return container, outers


class _ListSink:
    def __init__(self):
        self.parts = []

    def write_text(self, text):
        self.parts.append(text)

    def write_events(self, events):
        self.parts.append(serialize_events(events))

    def text(self):
        return "".join(self.parts)


class _RecordingIndex(xquery_exec._JoinIndex):
    """Records each probe: the loop's nodes and the candidates admitted."""

    probes = []

    def probe(self, op, atoms):
        candidates = super().probe(op, atoms)
        self.probes.append((self.nodes, candidates))
        return candidates


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("template", CONDITIONS)
def test_index_candidates_are_a_superset_of_brute_force_matches(
    hostile_trees, template, op, monkeypatch
):
    (container, container_tree), outers = hostile_trees
    condition = template.format(op=op)
    loop = parse_query(f"{{ for $t in $c/item where {condition} return {{$t}} }}")
    joins = join_guards(loop)
    assert list(joins) == [id(loop)], condition
    monkeypatch.setattr(xquery_exec, "_JoinIndex", _RecordingIndex)
    item_trees = container_tree.select_path(("item",))
    for outer, outer_tree in outers:
        _RecordingIndex.probes = []
        sink = _ListSink()
        _run(loop, joins, {"$c": container, "$o": outer}, sink)
        ((items, candidates),) = _RecordingIndex.probes
        assert len(items) == len(item_trees)
        positions = [next(i for i, item in enumerate(items) if item is node) for node in candidates]
        assert positions == sorted(set(positions)), "candidates out of document order"
        matches = {
            i
            for i, item in enumerate(item_trees)
            if evaluate_condition(loop.where, {"$t": item, "$o": outer_tree})
        }
        assert matches <= set(positions), (condition, outer_tree.text_content())
        # And the loop's output is byte-identical to the reference evaluator.
        expected = evaluate_query(loop, container_tree, root_var="$c", environment={"$o": outer_tree})
        assert sink.text() == expected


def test_index_is_built_once_per_source_binding(monkeypatch):
    container, _ = _buffered("$c", "<c>%s</c>" % "".join(f"<item><k>{n}</k></item>" for n in range(9)))
    outers, _ = _buffered("$os", "<os>%s</os>" % "".join(f"<o><v>{n}</v></o>" for n in range(6)))
    query = parse_query(
        "{ for $o in $os/o return { for $t in $c/item where $t/k = $o/v return {$t} } }"
    )
    joins = join_guards(query)
    assert len(joins) == 1
    builds = []
    real = xquery_exec._JoinIndex

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(xquery_exec, "_JoinIndex", counting)
    sink = _ListSink()
    _run(query, joins, {"$c": container, "$os": outers}, sink)
    assert len(builds) == 1
    assert sink.text() == "".join(f"<item><k>{n}</k></item>" for n in range(6))


# ---------------------------------------------------------------------------
# (b) guard analysis


def _guard_lines(source):
    return [guard.describe() for guard in join_guards(parse_query(source)).values()]


def test_q8_and_q11_are_indexed():
    q8 = FluxEngine(BENCHMARK_QUERIES["Q8"], xmark_dtd()).plan.describe_joins()
    assert q8 == (
        "join index: for $t in $__v_closed_auctions_5/closed_auction"
        " on $p/person_id = $t/buyer/buyer_person"
    )
    q11 = FluxEngine(BENCHMARK_QUERIES["Q11"], xmark_dtd()).plan.describe_joins()
    assert q11 == (
        "join index: for $o in $__v_open_auctions_5/open_auction"
        " on $p/profile/profile_income > 5000 * $o/initial"
    )


def test_guard_from_where_conjunct_and_nested_for():
    assert _guard_lines(
        "{ for $t in $c/item where (exists $t/z and $o/v <= $t/k) return {$t} }"
    ) == ["join index: for $t in $c/item on $o/v <= $t/k"]
    # The guard lifts through a nested for that does not bind it.
    assert _guard_lines(
        "{ for $t in $c/item return { for $u in $t/z return { if $t/k = $o/v then {$u} } } }"
    ) == ["join index: for $t in $c/item on $o/v = $t/k"]


def test_equality_is_preferred_over_a_range_guard():
    assert _guard_lines(
        "{ for $t in $c/item where ($t/k < $o/w and $t/k = $o/v) return {$t} }"
    ) == ["join index: for $t in $c/item on $o/v = $t/k"]


@pytest.mark.parametrize(
    "source",
    [
        # a body item outside the guard emits for every binding
        "{ for $t in $c/item return { if $t/k = $o/v then {$t} } <sep/> }",
        # != is not indexed
        "{ for $t in $c/item where $t/k != $o/v return {$t} }",
        # a comparison with a literal
        '{ for $t in $c/item where $t/k = "x" return {$t} }',
        # the other operand is bound inside the loop
        "{ for $t in $c/item return { for $u in $t/z where $t/k = $u/v return {$u} } }",
        # both operands on the loop variable
        "{ for $t in $c/item where $t/k = $t/z return {$t} }",
        # a disjunction is no guard
        "{ for $t in $c/item where ($t/k = $o/v or exists $t/z) return {$t} }",
    ],
)
def test_loops_that_are_not_indexed(source):
    assert not any(line.startswith("join index: for $t ") for line in _guard_lines(source))


def test_guards_must_agree_across_sequence_items():
    assert _guard_lines(
        "{ for $t in $c/item return { if $t/k = $o/v then <a/> } { if $t/k = $o/w then <b/> } }"
    ) == []
    assert _guard_lines(
        "{ for $t in $c/item return { if $t/k = $o/v then <a/> } { if $o/v = $t/k then <b/> } }"
    ) == ["join index: for $t in $c/item on $o/v = $t/k"]


# ---------------------------------------------------------------------------
# (c) deterministic counts on XMark


@pytest.fixture(scope="module")
def xmark_documents():
    return {scale: generate_document(config_for_scale(scale)) for scale in (0.1, 0.2)}


def _count_comparisons(monkeypatch, query, document):
    calls = itertools.count()
    real = xquery_exec._existential

    def counting(*args):
        next(calls)
        return real(*args)

    monkeypatch.setattr(xquery_exec, "_existential", counting)
    output = FluxSession(xmark_dtd()).prepare(BENCHMARK_QUERIES[query]).execute(document).output
    monkeypatch.undo()
    return next(calls), output


@pytest.mark.parametrize("scale, expected", [(0.1, 22), (0.2, 44)])
def test_q8_compares_once_per_result(monkeypatch, xmark_documents, scale, expected):
    # A nested loop made 1,980 / 7,920 comparisons here, and the indexed
    # loop 66 / 132 before the guard its three ``if``s repeat was memoised.
    calls, output = _count_comparisons(monkeypatch, "Q8", xmark_documents[scale])
    assert calls == output.count("<result>") == expected


@pytest.mark.parametrize("scale, expected", [(0.1, 5), (0.2, 66)])
def test_q11_compares_once_per_emitted_id(monkeypatch, xmark_documents, scale, expected):
    # The parent's nested loop made 660 / 2,640 comparisons here.
    calls, output = _count_comparisons(monkeypatch, "Q11", xmark_documents[scale])
    assert calls == output.count("<open_auction_id>") == expected


@pytest.mark.parametrize("scale", [0.1, 0.2])
def test_q1_compares_once_per_person(monkeypatch, xmark_documents, scale):
    # Its ``where`` repeats in three handlers of the person scope: the first
    # evaluation is kept on that person's activation, and dies with it.
    document = xmark_documents[scale]
    calls, output = _count_comparisons(monkeypatch, "Q1", document)
    assert calls == document.count("<person>") > 10
    assert output.count("<result>") == 1
