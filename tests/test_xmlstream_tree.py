"""Unit tests for the in-memory tree and event/tree conversions."""

import pytest

from repro.xmlstream.events import Characters, EndElement, StartElement
from repro.xmlstream.parser import parse_tree
from repro.xmlstream.serializer import serialize_events
from repro.xmlstream.tree import XMLNode, events_to_tree, tree_to_events


def test_parse_tree_builds_children_in_order():
    root = parse_tree("<bib><book><title>A</title></book><book><title>B</title></book></bib>")
    titles = root.select_path(["book", "title"])
    assert [node.text_content() for node in titles] == ["A", "B"]


def test_select_path_empty_path_returns_self():
    root = parse_tree("<a><b/></a>")
    assert root.select_path([]) == [root]


def test_select_path_missing_step_is_empty():
    root = parse_tree("<a><b/></a>")
    assert root.select_path(["c"]) == []


def test_text_content_concatenates_descendants():
    root = parse_tree("<a>x<b>y</b>z</a>", strip_whitespace=False)
    assert root.text_content() == "xyz"


def test_tree_to_events_round_trip():
    text = "<a><b>x</b><c><d>y</d></c></a>"
    root = parse_tree(text)
    events = tree_to_events(root)
    assert serialize_events(events) == text


def test_events_to_tree_rejects_unbalanced_events():
    with pytest.raises(ValueError):
        events_to_tree([StartElement("a"), EndElement("b")])
    with pytest.raises(ValueError):
        events_to_tree([StartElement("a")])


def test_events_to_tree_handles_forest_with_fragment_wrapper():
    events = [
        StartElement("a"),
        EndElement("a"),
        StartElement("b"),
        Characters("x"),
        EndElement("b"),
    ]
    root = events_to_tree(events)
    assert root.name == "#fragment"
    assert [child.name for child in root.child_elements()] == ["a", "b"]


def test_events_to_tree_empty_stream_is_none():
    assert events_to_tree([]) is None


def test_manual_node_construction_and_serialization():
    node = XMLNode("result", [XMLNode("title", ["Streams"]), "and more"])
    assert serialize_events(node.to_events()) == "<result><title>Streams</title>and more</result>"


def test_children_named_filters_by_name():
    root = parse_tree("<a><b/><c/><b/></a>")
    assert len(root.children_named("b")) == 2
    assert len(root.children_named("c")) == 1
