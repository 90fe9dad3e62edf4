"""A recursive content model against the reference, with and without end pointers.

``<!ELEMENT a (b*, c?, a?)>`` nests ``a`` in itself, which neither the XMark
DTD nor the fuzz generator's layered grammars do.  Each query runs pulled
and pushed at strides 1 and 7, once with every buffer walked by end
pointers (``_SKIP_MIN`` 0) and once with none, and must be byte-identical to
:class:`~repro.baselines.NaiveDomEngine`.  The queries cover paths through
nested same-name elements (``$x/a/a/b``), nested loops and handlers that
read a buffer mid-element, while the ``a`` that made them fire is still
open at its end.
"""

import random

import pytest

import repro.engine.xquery_exec as xquery_exec
from repro import FluxSession
from repro.baselines import NaiveDomEngine
from repro.core.api import load_dtd
from repro.xmlstream.events import EndElement, StartElement
from repro.xmlstream.parser import parse_tree

DTD = "<!ELEMENT a (b*, c?, a?)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>"

QUERIES = {
    "deep-path": "<o>{ for $x in $ROOT/a return <r>{$x/a/a/b}{$x/b}</r> }</o>",
    "deep-exists": "<o>{ for $x in $ROOT/a return { if exists $x/a/c then {$x/b} } }</o>",
    "nested-loops": (
        "<o>{ for $x in $ROOT/a return { for $y in $x/a return"
        " { for $z in $y/a where $z/c = $x/c return <z>{$z/b}</z> } } }</o>"
    ),
    "loop-over-deep-path": (
        "<o>{ for $x in $ROOT/a return { for $y in $x/a/a return <y>{$y/b}{$y/c}</y> }{$x/c} }</o>"
    ),
    "whole-elements": (
        "<o>{ for $x in $ROOT/a return { for $y in $x/a return"
        " { if $y/b = $x/b then {$x} } } }</o>"
    ),
    # The first handler fires when the child ``a`` starts: the buffer then
    # ends in that ``a``'s start tag, which the second one reads later.
    "open-at-read": (
        "<o>{ for $x in $ROOT/a return <r>{ if exists $x/c then {$x/b} }</r>"
        "{ if $x/a/c = $x/c then {$x/a/b} } }</o>"
    ),
    "open-at-read-deep": (
        "<o>{ for $x in $ROOT/a return <r>{ if exists $x/c then {$x/b} }</r>"
        "{ if exists $x/a/a/c then {$x/a/b} } }</o>"
    ),
}


def _document(rng, depth=0):
    parts = [f"<b>{rng.choice('xyz')}{rng.randint(0, 3)}</b>" for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.6:
        parts.append(f"<c>{rng.choice('xyz')}{rng.randint(0, 3)}</c>")
    if depth < 7 and rng.random() < 0.8:
        parts.append(_document(rng, depth + 1))
    return "<a>" + "".join(parts) + "</a>"


@pytest.fixture(scope="module")
def documents():
    rng = random.Random(16)
    return [_document(rng) for _ in range(8)]


@pytest.fixture(scope="module")
def session():
    return FluxSession(load_dtd(DTD, root_element="a"))


def _pushed(prepared, data: bytes, stride: int) -> str:
    run = prepared.open_run()
    for start in range(0, len(data), stride):
        run.feed(data[start : start + stride])
    return run.finish().output


@pytest.mark.parametrize("skip_min", [0, 1 << 62], ids=["end-pointers", "scans"])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_recursive_schema_matches_the_reference(session, documents, monkeypatch, name, skip_min):
    monkeypatch.setattr(xquery_exec, "_SKIP_MIN", skip_min)
    walked = []
    real = xquery_exec._end_pointers

    def recording(events):
        ends = real(events)
        # More start tags than end tags: an element is still open at the read.
        opened = sum(event.__class__ is StartElement for event in events)
        walked.append(opened > sum(event.__class__ is EndElement for event in events))
        return ends

    monkeypatch.setattr(xquery_exec, "_end_pointers", recording)
    query = QUERIES[name]
    prepared = session.prepare(query)
    for document in documents:
        expected = NaiveDomEngine(query).run_tree(parse_tree(document)).output
        data = document.encode("utf-8")
        assert prepared.execute(document).output == expected, document
        for stride in (1, 7):
            assert _pushed(prepared, data, stride) == expected, (stride, document)
    assert bool(walked) == (skip_min == 0)
    if skip_min == 0 and name.startswith("open-at-read"):
        assert any(walked), "no handler read a buffer with an element still open"
