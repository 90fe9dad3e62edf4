"""Unit tests for the SAX-style event model."""

from _reference import expand_raw

from repro.xmlstream.events import (
    Characters,
    EndDocument,
    EndElement,
    RawContent,
    StartDocument,
    StartElement,
    is_element_event,
)
from repro.xmlstream.serializer import serialize_event, serialize_events


def test_start_element_attribute_dict():
    event = StartElement.with_attributes("person", {"id": "person0", "role": "buyer"})
    assert event.attribute_dict() == {"id": "person0", "role": "buyer"}
    assert event.name == "person"


def test_start_element_attributes_are_sorted_and_hashable():
    event_a = StartElement.with_attributes("a", {"x": "1", "y": "2"})
    event_b = StartElement.with_attributes("a", {"y": "2", "x": "1"})
    assert event_a == event_b
    assert hash(event_a) == hash(event_b)


def test_events_are_immutable():
    event = StartElement("book")
    try:
        event.name = "article"
        raised = False
    except Exception:
        raised = True
    assert raised


def test_cost_in_bytes_is_positive_for_element_events():
    assert StartElement("title").cost_in_bytes() > 0
    assert EndElement("title").cost_in_bytes() > 0
    assert Characters("hello").cost_in_bytes() == 5


def test_cost_in_bytes_accounts_for_attributes():
    plain = StartElement("person")
    with_attrs = StartElement.with_attributes("person", {"id": "person0"})
    assert with_attrs.cost_in_bytes() > plain.cost_in_bytes()


def test_document_events_have_zero_cost():
    assert StartDocument().cost_in_bytes() == 0
    assert EndDocument().cost_in_bytes() == 0


def test_is_element_event():
    assert is_element_event(StartElement("a"))
    assert is_element_event(EndElement("a"))
    assert not is_element_event(Characters("x"))
    assert not is_element_event(StartDocument())


def test_events_equality_by_value():
    assert StartElement("a") == StartElement("a")
    assert EndElement("a") != EndElement("b")
    assert Characters("x") == Characters("x")


def test_raw_content_stands_for_the_events_it_serialises():
    text = "<title>a <em>b</em></title>tail<note></note>"
    raw = RawContent(text, 9)
    events = expand_raw(raw)
    assert len(events) == raw.count
    assert serialize_events(events) == serialize_event(raw) == text
    assert sum(event.cost_in_bytes() for event in events) == raw.cost_in_bytes()
    assert raw.characters() == "".join(e.text for e in events if isinstance(e, Characters))
