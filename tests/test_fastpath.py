"""The document stages: byte scanner, SoA batches, the fanout's flat table.

The scanner is tested *differentially* against the expat reference stream
of :mod:`repro.xmlstream` (``_reference.reference_events``), with and
without ``expand_attrs``:

* scanner <-> reference round trips on handcrafted documents (entities,
  CDATA, comments, PIs, DOCTYPE, self-closing tags, attributes,
  multi-byte UTF-8, NBSP-only text, padded tag names) and on randomized
  documents, including the pre-drop input accounting,
* the flat integer transition table versus the projection automaton it
  caches, on randomized tag streams, and its layout never torn by a
  concurrent widening,
* byte feeds split at every small stride (including mid-multibyte-UTF-8
  and inside attribute values) versus one whole-document chunk,
* file ingest, including a file truncated while a run reads it,
* invalid UTF-8 as a typed, located error in pull, push and hub runs, and
  a truncated UTF-8 tail raised by ``close_batch`` itself,
* bounded behaviour on adversarial unbounded tag vocabularies: the
  TagTable overflow path, through one- and two-slot fanouts,
* well-formed XML the scanner once got wrong: ``>`` inside a quoted
  attribute value, XML 1.0 line-end and attribute-value normalisation, and
  non-ASCII element names.
"""

import os
import pathlib
import random
import subprocess
import sys

import pytest
from _reference import coalesce_text, project_events, reference_events

import repro
from repro.core import FluxSession
from repro.fastpath import ByteScanner, TagTable
from repro.fastpath.batch import KIND_MASK, STATE_SHIFT, TAG_MASK, TAG_SHIFT
from repro.fastpath.markup import decode_entities
from repro.pipeline.fanout import DynamicFanout
from repro.serve import SubscriptionHub
from repro.xmlstream.attributes import expand_attributes
from repro.xmlstream.errors import XMLWellFormednessError
from repro.xmlstream.events import Characters, EndElement, StartElement
from repro.xmlstream.source import iter_byte_chunks

BIB_DTD = """
<!ELEMENT bib (book)*>
<!ELEMENT book (title,author+,publisher,price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"""

TITLES = "<titles>{ for $b in $ROOT/bib/book return {$b/title} }</titles>"
AUTHORS = "<authors>{ for $b in $ROOT/bib/book return {$b/author} }</authors>"

#: Attribute-heavy: entities and non-ASCII in values, empty values, a
#: self-closing attribute carrier, an attribute already prefixed by its
#: element's name.
ATTR_DOC = (
    '<bib lang="en">'
    '<book id="b&amp;1" note="café &#233;" empty=""><title book_x="y">T</title>'
    '<author ref="a1"/><publisher>V</publisher><price cur="EUR">5</price></book>'
    "</bib>"
)

DOC = (
    "<bib>"
    "<book><title>Café Str&amp;eams</title><author>Koch</author>"
    "<publisher>V</publisher><price>5</price></book>"
    "<book><title><![CDATA[raw <x>]]></title><author>B&#233;</author>"
    "<author>Z</author><publisher>W</publisher><price>7</price></book>"
    "</bib>"
)


# ---------------------------------------------------------------------------
# Helpers


EXPAND = pytest.mark.parametrize("expand", [False, True], ids=["plain", "expand_attrs"])


def solo_fanout(spec=None, tags=None):
    """A one-slot fanout: keep-everything unless ``spec`` filters."""
    fanout = DynamicFanout()
    if tags is not None:
        fanout.tags = tags  # a capped table, before any run interns a tag
    fanout.attach(spec)
    return fanout


def solo_scanner(fanout=None, **kwargs):
    return ByteScanner(fanout if fanout is not None else solo_fanout(), **kwargs)


def scan(document, chunk_size=64 * 1024, fanout=None, expand=False):
    """The scanner's flat event stream plus its pre-drop ``(seen, cost)``
    accounting, through a keep-all one-slot fanout unless one is given."""
    scanner = solo_scanner(fanout, expand_attrs=expand)
    data = document.encode("utf-8") if isinstance(document, str) else document
    flat = []
    seen = cost = 0
    batches = map(scanner.feed_batch, iter_byte_chunks(data, chunk_size))
    for batch in [*batches, scanner.close_batch()]:
        flat.extend(batch.materialize())
        seen += batch.seen
        cost += batch.cost
    return flat, (seen, cost)


def scanned_events(document, **kwargs):
    return scan(document, **kwargs)[0]


def assert_scan_matches_reference(document, **kwargs):
    """Events equal the reference stream's; so does the input accounting.

    Byte totals are only comparable where raw and decoded sizes coincide:
    raw text is counted in UTF-8 bytes, and an unexpanded attribute-bearing
    tag by its raw body."""
    expand = kwargs.get("expand", False)
    events, (seen, cost) = scan(document, **kwargs)
    expected = reference_events(document, expand)
    assert events == expected, document
    assert seen == len(expected), document
    if document.isascii() and (expand or "=" not in document):
        assert cost == sum(event.cost_in_bytes() for event in expected), document


# ---------------------------------------------------------------------------
# Scanner round trips


HANDCRAFTED_DOCUMENTS = [
    "<a/>",
    "<a></a>",
    "<a>text</a>",
    "<a>one &amp; two &lt;three&gt; &#233;</a>",
    "<a><![CDATA[raw <markup> & entities stay ]]></a>",
    "<a><!-- comment --><b/><!-- another --></a>",
    "<?xml version='1.0'?><a><?pi data?></a>",
    "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x</a>",
    '<a key="v1" other="two words">body</a>',
    "<a ><b\t></b\n></a >",
    "<a>café 日本語 \U0001f600</a>",
    "<a> </a>",
    "<a>  pad  <b> mid </b>  tail  </a>",
    "<root><a.b-c:d/><_x/><a1/></root>",
    '<a attr="with &amp; entity &#65;"/>',
    '<a empty="" blank=" " a_own="kept"><b k="v"/>tail</a>',
    "<a  k = 'single'  j=\"double\" ><a_k>real child</a_k></a>",
    '<a k="café"><b j="&#233;&lt;"/></a>',
    "<a>x<b/>y<b/>z</a>",
    "<a><b><c><d><e>deep</e></d></c></b></a>",
    "<a>t1<!-- c -->t2</a>",
    '<a><café>x</café><naïve k="v"/><ü/></a>',
]


@EXPAND
@pytest.mark.parametrize("document", HANDCRAFTED_DOCUMENTS)
def test_scanner_round_trip_handcrafted(document, expand):
    assert_scan_matches_reference(document, expand=expand)


@EXPAND
@pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64])
def test_scanner_round_trip_tiny_chunks(chunk_size, expand):
    assert_scan_matches_reference(DOC, chunk_size=chunk_size, expand=expand)
    assert_scan_matches_reference(ATTR_DOC, chunk_size=chunk_size, expand=expand)


def _random_document(rng):
    """A random well-formed document over a mixed (partly fresh) vocabulary."""
    vocabulary = ["alpha", "beta", "gamma", "x-y", "ns:tag"]
    texts = ["plain", "a &amp; b", "café", " ", "  ", "&#65;BC", ""]
    pieces = ["<root>"]
    depth = 0
    for _ in range(rng.randrange(4, 60)):
        action = rng.random()
        if action < 0.4:
            name = rng.choice(vocabulary)
            if rng.random() < 0.15:
                name = f"fresh{rng.randrange(1000)}"
            if rng.random() < 0.3:
                pieces.append(f'<{name} k="v{rng.randrange(10)}"/>')
            elif rng.random() < 0.4:
                pieces.append(f"<{name}/>")
            else:
                pieces.append(f"<{name}>")
                depth += 1
                vocabulary.append(name)
        elif action < 0.7:
            pieces.append(rng.choice(texts))
        elif action < 0.8 and depth > 0:
            name = vocabulary.pop()
            pieces.append(f"</{name}>")
            depth -= 1
        elif action < 0.9:
            pieces.append("<!-- comment -->")
        else:
            pieces.append("<![CDATA[raw <data>]]>")
    while depth > 0:
        pieces.append(f"</{vocabulary.pop()}>")
        depth -= 1
    pieces.append("</root>")
    return "".join(pieces)


@EXPAND
def test_scanner_round_trip_randomized(expand):
    rng = random.Random(20260807)
    for _ in range(50):
        assert_scan_matches_reference(_random_document(rng), expand=expand)


@EXPAND
def test_scanner_round_trip_shared_table_across_documents(expand):
    # One fanout's tag and flat tables serve many documents (warm reuse).
    fanout = solo_fanout()
    rng = random.Random(99)
    for _ in range(10):
        assert_scan_matches_reference(_random_document(rng), fanout=fanout, expand=expand)


# ---------------------------------------------------------------------------
# Scanner errors and push-mode protocol


def test_scanner_rejects_mismatched_and_unclosed_tags():
    with pytest.raises(XMLWellFormednessError):
        scanned_events("<a><b></a></b>")
    with pytest.raises(XMLWellFormednessError):
        scanned_events("<a><b></b>")
    with pytest.raises(XMLWellFormednessError):
        scanned_events("   ")
    with pytest.raises(XMLWellFormednessError):
        scanned_events("<a></a><b></b>")


#: One text node in three segments, split by a CDATA section and a comment.
SPLIT_TEXT_DOC = "<a>x<![CDATA[ c ]]>y<!-- z -->w<b>v</b></a>"

#: ``>`` inside quoted attribute values, in both quote styles and next to
#: the other quote character, on elements TITLES keeps (``book``, ``title``)
#: and drops (``author``).
QUOTED_GT_DOC = (
    '<bib><book id="b>1" note=\'say "a>b"\'><title k="1 > 0">T</title>'
    '<author ref="x>y"/><author>A</author><publisher>P</publisher>'
    "<price>5</price></book></bib>"
)

#: Literal line ends in text, CDATA and attribute values, next to their
#: character references (which are kept as written).
LINE_END_DOC = (
    '<a k="x\ty\nz&#9;" j="p\r\nq"><b>x\r\ny\rz<![CDATA[c\r\nd]]>e&#13;</b></a>'
)


@EXPAND
@pytest.mark.parametrize(
    "document",
    [DOC, ATTR_DOC, SPLIT_TEXT_DOC, QUOTED_GT_DOC, LINE_END_DOC],
    ids=["text", "attributes", "split-text", "quoted-gt", "line-ends"],
)
@pytest.mark.parametrize("stride", [1, 2, 3, 5, 7])
def test_push_mode_byte_feeds_match_pull(stride, document, expand):
    # Stride 1 cuts everywhere: inside attribute values, between a closing
    # quote and ``>``, inside entity references, mid-multibyte-UTF-8, and
    # between the segments of one text node.
    fed, counts = scan(document, chunk_size=stride, expand=expand)
    if document in (SPLIT_TEXT_DOC, LINE_END_DOC):
        # A text node whose segments land in different batches materializes
        # in pieces, one per batch, but is still counted as one node.
        fed = coalesce_text(fed)
    assert fed == reference_events(document, expand)
    assert counts == scan(document, expand=expand)[1]


def test_pending_bytes_flags_partial_utf8_tail():
    scanner = solo_scanner()
    data = "<a>café</a>".encode("utf-8")
    cut = data.index(b"\xc3") + 1  # mid-sequence
    scanner.feed_batch(data[:cut])
    assert scanner.pending_bytes
    scanner.feed_batch(data[cut:])
    assert not scanner.pending_bytes
    scanner.close_batch()


@pytest.mark.parametrize(
    "token",
    [b"x" * 50, b"<!--" + b"-" * 50 + b"-->", b"<b k='" + b"v" * 50 + b"'/>"],
    ids=["text", "comment", "tag"],
)
def test_a_token_across_many_chunks_is_scanned_once(monkeypatch, token):
    """A chunk that cannot end the pending token (no ``<`` after text, no
    ``>`` after markup) is held unscanned: the token is searched and copied
    once, not once per chunk, and the events are those of one whole feed."""
    drains = []
    drain = ByteScanner._drain
    monkeypatch.setattr(
        ByteScanner, "_drain", lambda self, *args: drains.append(1) or drain(self, *args)
    )
    data = b"<a>" + token + "é</a>".encode("utf-8")
    scanner = solo_scanner()
    # Long enough to tell the token's kind, then one byte at a time.
    events = scanner.feed_batch(data[:12]).materialize()
    for at in range(12, len(data) - 5):
        events += scanner.feed_batch(data[at : at + 1]).materialize()
    assert scanner.pending_bytes  # the tail ends inside ``é``
    events += scanner.feed_batch(data[-5:]).materialize() + scanner.close_batch().materialize()
    assert len(drains) <= 5  # one per chunk would be 60
    assert coalesce_text(events) == scan(data)[0]


@pytest.mark.parametrize(
    "data, offset",
    [(b"<a><b>x</b><b>\xc3", 14), (b"<a><b>x</b><b\xc3", 13)],
    ids=["in-text", "in-tag"],
)
def test_close_batch_raises_truncated_tail_at_the_cut_sequence(data, offset):
    """The scanner alone raises the truncated-document error every run
    shape reports (``test_error_parity.py``), at the cut sequence's first
    byte."""
    scanner = solo_scanner()
    scanner.feed_batch(data)
    with pytest.raises(XMLWellFormednessError) as excinfo:
        scanner.close_batch()
    assert str(excinfo.value).startswith(
        "truncated document: incomplete UTF-8 sequence at end of input"
    )
    assert excinfo.value.offset == offset


# ---------------------------------------------------------------------------
# SoA word packing


def test_soa_word_packing_round_trip():
    for kind in range(6):
        for tid in (0, 1, 77, TAG_MASK):
            for state in (0, 3, 1 << 20):
                word = kind | (tid << TAG_SHIFT) | (state << STATE_SHIFT)
                assert word & KIND_MASK == kind
                assert (word >> TAG_SHIFT) & TAG_MASK == tid
                assert word >> STATE_SHIFT == state


# ---------------------------------------------------------------------------
# The fanout's flat table versus the projection automaton it caches


@EXPAND
def test_flat_table_matches_projection_automaton_on_random_streams(expand):
    with FluxSession(BIB_DTD, root_element="bib") as session:
        spec = session.prepare(TITLES).engine.projection_spec
        assert spec is not None
        fanout = solo_fanout(spec)  # warm across documents
        rng = random.Random(7)
        for _ in range(30):
            books = []
            for _ in range(rng.randrange(0, 6)):
                authors = "".join(
                    f'<author n="{rng.randrange(3)}">a{rng.randrange(10)}</author>'
                    for _ in range(rng.randrange(1, 3))
                )
                books.append(
                    f'<book id="b{rng.randrange(9)}"><title>t{rng.randrange(100)} &amp; more</title>'
                    f"{authors}<publisher>p</publisher>"
                    f"<price>{rng.randrange(50)}</price></book>"
                )
            document = f"<bib>{''.join(books)}</bib>"
            reference = reference_events(document, expand)
            events, (seen, cost) = scan(document, fanout=fanout, expand=expand)
            assert events == project_events(spec, reference), document
            # Input accounting is pre-drop: the whole document, not the survivors.
            assert seen == len(reference)
            assert cost == sum(event.cost_in_bytes() for event in reference)


class _WidensAfterLoad(DynamicFanout):
    """A fanout whose flat table widens right after the scanner loads it:
    what another run's miss on a tag id past the stride does when the
    thread switch falls between two reads."""

    armed = False

    def __getattribute__(self, name):
        value = super().__getattribute__(name)
        # Any name the table could be loaded by, so that a reader loading
        # the cells and the stride one at a time is caught between the two.
        if name in ("layout", "cells", "stride") and super().__getattribute__("armed"):
            self.armed = False
            for index in range(100):
                tid = self.tags.intern(b"wide%d" % index)
            self.resolve(0, tid)
        return value


def test_a_widening_between_table_loads_never_tears_the_layout():
    # Rows 0 and 1 (``bib``) exist when the second chunk starts, with row 1
    # open: a stride from after the widening paired with cells from before
    # it would index past the old array.
    with FluxSession(BIB_DTD, root_element="bib") as session:
        spec = session.prepare(TITLES).engine.projection_spec
    fanout = _WidensAfterLoad()
    fanout.attach(spec)
    scanner = ByteScanner(fanout)
    data = DOC.encode("utf-8")
    cut = len(b"<bib>")
    events = scanner.feed_batch(data[:cut]).materialize()
    fanout.armed = True
    events += scanner.feed_batch(data[cut:]).materialize()
    events += scanner.close_batch().materialize()
    assert not fanout.armed and fanout.layout[1] > 64
    assert events == scanned_events(DOC, fanout=solo_fanout(spec))


#: Plain documents whose input bytes are exactly their UTF-8 length: text
#: is counted as read, before line-end normalisation, in bytes not
#: characters.
CRLF_DOC = "<bib><book><title>A\r\nB</title></book></bib>"
NON_ASCII_DOC = "<bib><book><title>\u00e9\u00e9</title></book></bib>"
ALL = "<all>{$ROOT}</all>"


def _input(stats):
    return stats.input_events, stats.input_bytes


@EXPAND
def test_execution_input_statistics_match_reference_stream(expand):
    with FluxSession(BIB_DTD, root_element="bib") as session:
        for document in (DOC, ATTR_DOC, CRLF_DOC, NON_ASCII_DOC):
            reference = reference_events(document, expand)
            projected, unprojected = (
                session.prepare(TITLES, projection=projection)
                .execute(document, expand_attrs=expand)
                .stats
                for projection in (True, False)
            )
            # One pass, one input count: projection does not change it.
            assert _input(unprojected) == _input(projected)
            assert projected.input_events == len(reference)
            if document in (CRLF_DOC, NON_ASCII_DOC):
                assert projected.input_bytes == len(document.encode("utf-8"))
            # The scanner charges an *unexpanded* attribute tag its raw
            # body, entities undecoded.
            elif expand or document is DOC:
                assert projected.input_bytes == sum(e.cost_in_bytes() for e in reference)


@EXPAND
def test_every_member_of_a_pass_reports_the_same_input(expand):
    # A projected member and a keep-everything member share one pass.
    with FluxSession(BIB_DTD, root_element="bib") as session:
        prepared = session.prepare_many({"titles": TITLES, "all": ALL})
        for document in (DOC, ATTR_DOC, CRLF_DOC, NON_ASCII_DOC):
            run = prepared.execute(document, expand_attrs=expand)
            solo = session.prepare(TITLES).execute(document, expand_attrs=expand)
            assert _input(run["titles"].stats) == _input(solo.stats)
            assert _input(run["all"].stats) == _input(solo.stats)


# ---------------------------------------------------------------------------
# File ingest


def test_file_ingest(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(DOC, encoding="utf-8")
    chunk_size = 7
    assert path.stat().st_size % chunk_size  # the last chunk is a short one
    with FluxSession(BIB_DTD, root_element="bib") as session:
        prepared = session.prepare(TITLES)
        expected = prepared.execute(DOC).output
        assert prepared.execute(str(path)).output == expected
        assert prepared.execute(path, chunk_size=chunk_size).output == expected


#: Streams Q1 over a ~1.2 MB XMark file and cuts the file to 100,000 bytes
#: after the second fragment, when the run has read past that point.
_TRUNCATE_WHILE_READING = """
import os, sys
from repro import FluxSession
from repro.xmark.dtd import xmark_dtd
from repro.xmark.generator import config_for_scale, write_document
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmlstream.errors import XMLWellFormednessError

path = sys.argv[1]
write_document(path, config_for_scale(2.0))
fragments = FluxSession(xmark_dtd()).prepare(BENCHMARK_QUERIES["Q1"]).stream(path)
try:
    for count, _ in enumerate(fragments, 1):
        if count == 2:
            os.truncate(path, 100_000)
except XMLWellFormednessError as exc:
    print(exc.offset, exc)
"""


def test_a_file_truncated_while_a_run_reads_it_is_a_located_error(tmp_path):
    # In a child process: a file mapped into memory instead of read would
    # kill it with SIGBUS here, and pytest with it.
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    child = subprocess.run(
        [sys.executable, "-c", _TRUNCATE_WHILE_READING, str(tmp_path / "site.xml")],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert child.returncode == 0, (child.returncode, child.stderr[-2000:])
    offset, message = child.stdout.split(" ", 1)
    assert int(offset) > 100_000
    assert message.startswith("document ended with unclosed element <")


def test_empty_file_fails_cleanly(tmp_path):
    path = tmp_path / "empty.xml"
    path.write_bytes(b"")
    with FluxSession(BIB_DTD, root_element="bib") as session:
        with pytest.raises(XMLWellFormednessError):
            session.prepare(TITLES).execute(str(path))


# ---------------------------------------------------------------------------
# Invalid UTF-8 is a typed, located error


#: (document bytes, absolute offset of the first invalid byte)
INVALID_UTF8 = [
    (b"<bib><book><title>x\xff</title></book></bib>", 19),  # text
    (b"<bib><book><title><![CDATA[ab\xfe]]></title></book></bib>", 29),  # CDATA
    (b'<bib><book><title k="\xc0v">t</title></book></bib>', 21),  # complex tag body
    (b"<bib><book><title>a&amp;\xff</title></book></bib>", 24),  # text with entities
]


@pytest.mark.parametrize("mode", ["pull", "push", "hub"])
@pytest.mark.parametrize("document,offset", INVALID_UTF8)
def test_invalid_utf8_is_a_located_wellformedness_error(mode, document, offset):
    with FluxSession(BIB_DTD, root_element="bib") as session:
        prepared = session.prepare(TITLES)
        with pytest.raises(XMLWellFormednessError, match="invalid UTF-8") as raised:
            if mode == "pull":
                prepared.execute(document)
            elif mode == "push":
                with prepared.open_run() as run:
                    for start in range(0, len(document), 5):
                        run.feed(document[start : start + 5])
            else:
                with SubscriptionHub(session.dtd) as hub:
                    hub.subscribe(TITLES)
                    hub.feed(document)
    assert raised.value.offset == offset


# ---------------------------------------------------------------------------
# Adversarial unbounded vocabularies


def slot_streams(fanout, document, chunk_size=64 * 1024):
    """Per-slot sub-streams of one scan through an N-slot fanout."""
    scanner = ByteScanner(fanout)
    streams = [[] for _ in range(fanout.width)]
    data = document.encode("utf-8")
    batches = map(scanner.feed_batch, iter_byte_chunks(data, chunk_size))
    for batch in [*batches, scanner.close_batch()]:
        for stream, sub in zip(streams, batch.materialize_split(fanout)):
            stream.extend(sub)
    return streams


@pytest.mark.parametrize("queries", [(None,), (TITLES, AUTHORS)], ids=["one-slot", "two-slot"])
def test_tag_table_overflow_stays_bounded_and_correct(queries):
    # Past the cap (``bib``, ``book``, ``title``), ``author`` and every
    # ``t{i}`` are uninterned: each slot's transitions on them go through
    # ``resolve_name``, uncached.
    tags = TagTable(limit=3)
    document = "<bib>" + "".join(
        f"<book><title>T{i}</title><author>A{i}</author><t{i}>x{i}</t{i}></book>"
        for i in range(40)
    ) + "</bib>"
    with FluxSession(BIB_DTD, root_element="bib") as session:
        specs = [
            None if query is None else session.prepare(query).engine.projection_spec
            for query in queries
        ]
    fanout = solo_fanout(specs[0], tags=tags)
    for spec in specs[1:]:
        fanout.attach(spec)
    streams = slot_streams(fanout, document)
    assert len(streams) == len(specs)
    for spec, stream in zip(specs, streams):
        assert stream == scanned_events(document, fanout=solo_fanout(spec))
    if queries == (None,):
        assert_scan_matches_reference(document, fanout=fanout)
    assert len(tags) <= 3
    assert len(tags.ids) <= 2 * 3  # canonical entries + padded aliases


@EXPAND
def test_tag_table_overflow_with_attributes_and_chunked_feed(expand):
    # Past the cap, expanded attribute subelements travel as ready-made
    # events (their names exist nowhere in the source bytes).
    tags = TagTable(limit=2)
    document = "<root>" + "".join(
        f'<t{i} key="v{i}">x</t{i}>' for i in range(20)
    ) + "</root>"
    assert_scan_matches_reference(
        document, chunk_size=5, fanout=solo_fanout(tags=tags), expand=expand
    )
    assert len(tags) <= 2


def test_decode_entities_without_ampersand_is_identity():
    assert decode_entities("plain text") == "plain text"


# ---------------------------------------------------------------------------
# Well-formed XML the scanner once rejected or changed


@EXPAND
@pytest.mark.parametrize("chunk_size", [3, 64 * 1024])
def test_gt_inside_a_quoted_attribute_value_does_not_end_the_tag(chunk_size, expand):
    assert reference_events(QUOTED_GT_DOC)[1] == StartElement(
        "book", (("id", "b>1"), ("note", 'say "a>b"'))
    )
    assert_scan_matches_reference(QUOTED_GT_DOC, chunk_size=chunk_size, expand=expand)
    with FluxSession(BIB_DTD, root_element="bib") as session:
        spec = session.prepare(TITLES).engine.projection_spec
        events, _ = scan(
            QUOTED_GT_DOC, chunk_size=chunk_size, fanout=solo_fanout(spec), expand=expand
        )
        assert events == project_events(spec, reference_events(QUOTED_GT_DOC, expand))
        result = session.prepare(TITLES).execute(QUOTED_GT_DOC, expand_attrs=expand)
        title = '<title><title_k>1 &gt; 0</title_k>T' if expand else '<title k="1 &gt; 0">T'
        assert result.output == f"<titles>{title}</title></titles>"


@EXPAND
def test_line_ends_and_attribute_whitespace_are_normalised(expand):
    expected = [
        StartElement("a", (("k", "x y z\t"), ("j", "p q"))),
        StartElement("b"),
        Characters("x\ny\nzc\nde\r"),
        EndElement("b"),
        EndElement("a"),
    ]
    if expand:
        expected = list(expand_attributes(expected))
    assert reference_events(LINE_END_DOC, expand) == expected
    events, (seen, _) = scan(LINE_END_DOC, expand=expand)
    assert events == expected
    assert seen == len(expected)


def test_input_bytes_count_source_text_before_normalisation():
    # The text is four source bytes, though it materializes to three
    # characters: ``<a>`` 3 + text 4 + ``</a>`` 4.
    events = [StartElement("a"), Characters("x\ny"), EndElement("a")]
    assert scan("<a>x\r\ny</a>") == (events, (3, 11))
