"""Frames that carry a second entry of one kind, against the reference.

Two loops over one path in one scope, two conditions on one path, a loop
filtered by a sibling path, two loops in a nested scope, a value path
compared across two scopes, one path copied twice, and one path captured
or compared by two scopes (the outer ``$a``'s ``d/b`` and the inner
``$d``'s ``b``): each puts two captures, accumulators, scopes or copies on
one frame.  Each query runs
pulled and pushed at strides 1 and 7 and must be byte-identical to
:class:`~repro.baselines.NaiveDomEngine`.
"""

import random

import pytest

from repro import FluxSession
from repro.baselines import NaiveDomEngine
from repro.core.api import load_dtd
from repro.xmlstream.parser import parse_tree

DTD = (
    "<!ELEMENT r (a*)> <!ELEMENT a (b*, c?, d?)> <!ELEMENT d (b*)>"
    " <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>"
)

QUERIES = {
    "two-loops": (
        "<o>{ for $a in $ROOT/r/a return"
        " <x>{ for $b in $a/b return $b }{ for $b in $a/b return <y>{$b}</y> }</x> }</o>"
    ),
    "two-conditions": (
        "<o>{ for $a in $ROOT/r/a return"
        " <x>{ if $a/b = \"x1\" then <p>{$a/c}</p> }{ if exists $a/b then <q>{$a/c}</q> }</x> }</o>"
    ),
    "filtered-loop": (
        "<o>{ for $a in $ROOT/r/a return { for $b in $a/b where $a/c = \"y2\" return $b } }</o>"
    ),
    "nested-two-loops": (
        "<o>{ for $a in $ROOT/r/a return { for $d in $a/d return"
        " <d>{ for $b in $d/b return $b }{ for $b in $d/b return <z>{$b}</z> }</d> } }</o>"
    ),
    "value-across-scopes": (
        "<o>{ for $a in $ROOT/r/a return { for $d in $a/d return"
        " { if $d/b = $a/c then <m>{$d/b}</m> } } }</o>"
    ),
    "copied-twice": "<o>{ for $a in $ROOT/r/a return <x>{$a/b}{$a/b}</x> }</o>",
    "two-captures": (
        "<o>{ for $a in $ROOT/r/a return <x>{ for $d in $a/d return"
        " <d>{ for $b in $d/b where $b = $d/b return $b }</d> }"
        "{ if $a/d/b = $a/c then <h/> }</x> }</o>"
    ),
    "two-accumulators": (
        "<o>{ for $a in $ROOT/r/a return <x>{ for $d in $a/d return"
        " <d>{ if $d/b = \"x1\" then <m/> }</d> }"
        "{ if $a/d/b = \"y1\" then <h/> }</x> }</o>"
    ),
}


def _text(rng) -> str:
    return f"{rng.choice('xyz')}{rng.randint(0, 2)}"


def _document(rng) -> str:
    parts = []
    for _ in range(rng.randint(0, 3)):
        inner = "".join(f"<b>{_text(rng)}</b>" for _ in range(rng.randint(0, 3)))
        if rng.random() < 0.6:
            inner += f"<c>{_text(rng)}</c>"
        if rng.random() < 0.6:
            inner += "<d>" + "".join(f"<b>{_text(rng)}</b>" for _ in range(rng.randint(0, 3))) + "</d>"
        parts.append(f"<a>{inner}</a>")
    return "<r>" + "".join(parts) + "</r>"


@pytest.fixture(scope="module")
def documents():
    rng = random.Random(18)
    return [_document(rng) for _ in range(24)]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_repeated_entries_on_one_frame_match_the_reference(documents, name):
    query = QUERIES[name]
    prepared = FluxSession(load_dtd(DTD, root_element="r")).prepare(query)
    for document in documents:
        expected = NaiveDomEngine(query).run_tree(parse_tree(document)).output
        assert prepared.execute(document).output == expected, document
        data = document.encode("utf-8")
        for stride in (1, 7):
            with prepared.open_run() as run:
                for start in range(0, len(data), stride):
                    run.feed(data[start : start + stride])
            assert run.result.output == expected, (stride, document)
