"""Unit and property tests for the reference event stream (expat-based)."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.xmlstream.errors import XMLSyntaxError, XMLWellFormednessError
from repro.xmlstream.events import (
    Characters,
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
)
from repro.xmlstream.parser import iter_events, parse_events
from repro.xmlstream.serializer import serialize_events


def events_of(text, **kwargs):
    return parse_events(text, document_events=False, **kwargs)


def test_simple_document():
    events = events_of("<a><b>hello</b></a>")
    assert events == [
        StartElement("a"),
        StartElement("b"),
        Characters("hello"),
        EndElement("b"),
        EndElement("a"),
    ]


def test_attributes_are_reported():
    events = events_of('<person id="p0" kind="x"/>')
    start = events[0]
    assert isinstance(start, StartElement)
    assert start.attribute_dict() == {"id": "p0", "kind": "x"}
    assert events[1] == EndElement("person")


def test_self_closing_tag_produces_start_and_end():
    assert events_of("<a><b/></a>") == [
        StartElement("a"),
        StartElement("b"),
        EndElement("b"),
        EndElement("a"),
    ]


def test_whitespace_stripping_default():
    events = events_of("<a>\n  <b>x</b>\n</a>")
    assert Characters("\n  ") not in events
    assert Characters("x") in events


def test_whitespace_preserved_when_requested():
    events = events_of("<a> <b>x</b></a>", strip_whitespace=False)
    assert Characters(" ") in events


def test_entities_are_decoded():
    events = events_of("<a>x &amp; y &lt;z&gt; &#65;&#x42;</a>")
    assert events[1] == Characters("x & y <z> AB")


def test_unknown_entity_raises():
    with pytest.raises(XMLSyntaxError):
        events_of("<a>&unknown;</a>")


def test_declared_entities_are_not_part_of_the_data_model():
    with pytest.raises(XMLSyntaxError, match="entity declaration"):
        events_of('<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>')
    with pytest.raises(XMLSyntaxError, match="unknown entity &e;"):
        events_of('<!DOCTYPE a SYSTEM "a.dtd"><a>&e;</a>')


def test_attributes_keep_document_order_and_skip_dtd_defaults():
    text = '<!DOCTYPE a [<!ATTLIST a d CDATA "dflt">]><a z="1" b="2"/>'
    assert events_of(text)[0] == StartElement("a", (("z", "1"), ("b", "2")))


def test_comments_and_pis_are_skipped():
    events = events_of("<?xml version='1.0'?><!-- hi --><a><!-- there --><b/></a>")
    assert events[0] == StartElement("a")
    assert len(events) == 4


def test_doctype_with_internal_subset_is_skipped():
    text = "<!DOCTYPE bib [ <!ELEMENT bib (book)*> ]><bib><book/></bib>"
    events = events_of(text)
    assert events[0] == StartElement("bib")


def test_cdata_is_reported_as_characters():
    events = events_of("<a><![CDATA[1 < 2 & 3]]></a>")
    assert events[1] == Characters("1 < 2 & 3")


def test_mismatched_tags_raise():
    with pytest.raises(XMLWellFormednessError):
        events_of("<a><b></a></b>")


def test_unclosed_element_raises():
    with pytest.raises(XMLWellFormednessError):
        events_of("<a><b>")


def test_multiple_roots_raise():
    with pytest.raises(XMLWellFormednessError):
        events_of("<a/><b/>")


def test_text_outside_root_raises():
    with pytest.raises(XMLWellFormednessError):
        events_of("<a/> hello")
    # Before the root, expat calls it a syntax error.
    with pytest.raises(XMLSyntaxError):
        events_of(b"hello <a/>")


def test_empty_document_raises():
    with pytest.raises(XMLWellFormednessError):
        events_of(b"   ")


def test_malformed_attribute_raises():
    with pytest.raises(XMLSyntaxError):
        events_of("<a b=c></a>")


def test_errors_carry_absolute_byte_offsets():
    with pytest.raises(XMLWellFormednessError) as raised:
        events_of("<a><b></c></a>")
    assert raised.value.offset == 8  # expat points at the end tag's name
    with pytest.raises(XMLWellFormednessError, match="invalid UTF-8") as raised:
        list(iter_events("<a>é".encode("utf-8") + b"\xff</a>", chunk_size=1))
    assert raised.value.offset == 5


def test_document_events_frame_the_stream():
    events = list(iter_events("<a/>"))
    assert events == [StartDocument(), StartElement("a"), EndElement("a"), EndDocument()]


def test_every_source_kind_reads_the_same_events(tmp_path):
    text = "<bib><book><title>T &amp; Café</title><author>X</author></book></bib>"
    path = tmp_path / "doc.xml"
    path.write_text(text, encoding="utf-8")
    single = parse_events(text)
    assert parse_events(text.encode("utf-8")) == single
    assert parse_events(str(path)) == single
    assert parse_events(path) == single
    assert parse_events(io.BytesIO(text.encode("utf-8"))) == single
    assert parse_events(io.StringIO(text)) == single
    # An iterable of str chunks, cut every seven characters.
    assert parse_events(text[i : i + 7] for i in range(0, len(text), 7)) == single


# ---------------------------------------------------------------------------
# Property tests: serialize/parse round trips


_names = st.sampled_from(["a", "b", "c", "item", "person", "title"])
_texts = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=" &<>'\""),
    min_size=1,
    max_size=20,
).filter(lambda s: s.strip())


@st.composite
def _element(draw, depth=0):
    name = draw(_names)
    children = []
    if depth < 3:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            if draw(st.booleans()) and depth < 2:
                children.append(draw(_element(depth + 1)))
            else:
                children.append(draw(_texts))
    return (name, children)


def _to_xml(node):
    name, children = node
    inner = []
    for child in children:
        if isinstance(child, tuple):
            inner.append(_to_xml(child))
        else:
            inner.append(
                child.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            )
    return f"<{name}>{''.join(inner)}</{name}>"


@settings(max_examples=60, deadline=None)
@given(_element())
def test_parse_serialize_round_trip(tree):
    text = _to_xml(tree)
    events = parse_events(text, strip_whitespace=False, document_events=False)
    rendered = serialize_events(events)
    reparsed = parse_events(rendered, strip_whitespace=False, document_events=False)
    assert reparsed == events


@settings(max_examples=40, deadline=None)
@given(_element(), st.integers(min_value=1, max_value=13))
def test_chunked_parsing_is_chunk_size_independent(tree, chunk_size):
    text = _to_xml(tree)
    whole = parse_events(text, strip_whitespace=False, document_events=False)
    chunks = [text[i : i + chunk_size] for i in range(0, len(text), chunk_size)]
    assert parse_events(chunks, strip_whitespace=False, document_events=False) == whole
    cut = iter_events(
        text.encode("utf-8"), strip_whitespace=False, document_events=False, chunk_size=chunk_size
    )
    assert list(cut) == whole
