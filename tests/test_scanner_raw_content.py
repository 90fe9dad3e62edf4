"""Opaque content taken raw answers and counts exactly like the token loop.

The content of an element the plan never looks inside goes from
:class:`~repro.fastpath.ByteScanner` to the executor as one
:class:`~repro.xmlstream.events.RawContent` when it is plain (see
:mod:`repro.fastpath.scanner`).  These tests force that path on (size floor
0) and off (floor ``1 << 62``) and hold the two runs to each other:

* over the four opaque shapes -- a stream-copied child, a root-marked scope
  read at ``past(*)``, a marked buffer child, a terminal value child --
  pulled, and pushed at strides 1 and 7: output, input, output and buffer
  statistics and the at-peak attribution are equal, and the raw path was
  taken;
* a ``prepare_many`` set whose members disagree about an element, the
  subscription hub, and a bounded run that spills raw items answer as the
  token loop does;
* a split -- the member that keeps an element opaque gets it raw while
  another reads the same bytes as events -- on XMark sets, pulled and
  pushed, with and without a budget, and in a hub, answers and counts as
  with raw content off; Q20's executor receives as many events beside
  Q8 and Q11 as alone; churn moves a row between split, whole and
  token-only; and a split sends each byte to the proof at most twice;
* every near miss of the plain rule is refused and still answered right;
* on XMark, Q8, Q13 and Q20 take most of their opaque content raw;
* a path read inside raw content finds what it finds in the events.
"""

import collections
import random

import pytest
from _reference import expand_raw, expanded, split_raw_items

import repro.fastpath.scanner as scanner_module
from repro import ExecutionOptions, FluxSession
from repro.baselines import NaiveDomEngine
from repro.core.api import load_dtd
from repro.engine.xquery_exec import _end_pointers, _path_spans, _raw_event_count, _render
from repro.fastpath.batch import SoABatch
from repro.serve import SubscriptionHub
from repro.xmark.dtd import xmark_dtd
from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.ticker import ticker_document
from repro.xmlstream.events import EndElement, RawContent, StartElement
from repro.xmlstream.parser import parse_tree

DTD = """
<!ELEMENT lib (book*, shelf?)>
<!ELEMENT book (title, author*, price?, note*)>
<!ELEMENT title (#PCDATA|em)*>
<!ELEMENT em (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT note (#PCDATA|em|note)*>
<!ELEMENT shelf (#PCDATA|em)*>
"""

#: One query per reason an element is opaque (``book``, or ``title``).
QUERIES = {
    "copy": "<o>{ for $b in $ROOT/lib/book return {$b} }</o>",
    "scope": "<o>{ for $b in $ROOT/lib/book where empty($b/price) return {$b} }</o>",
    "marked": (
        "<o>{ for $s in $ROOT/lib/shelf return {$s} }"
        "{ for $b in $ROOT/lib/book return {$b} }</o>"
    ),
    "value": "<o>{ for $b in $ROOT/lib/book where $b/title = 'x' return {$b/author} }</o>",
}
#: Reads inside ``book``, which ``copy`` keeps opaque.
INSIDE = "<o>{ for $b in $ROOT/lib/book return <t>{$b/title}</t> }</o>"

WORDS = ("alpha", "beta gamma", " delta ", "x", "'quoted'", "a=b", "wow!", "why?")
BLANKS = ("", " ", "\n  ", "\t")

ON = 0
OFF = 1 << 62


def _text(rng):
    return rng.choice(WORDS) + rng.choice(BLANKS)


def _mixed(rng, depth=0):
    parts = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.6:
            parts.append(_text(rng))
        else:
            parts.append(f"<em>{_text(rng)}</em>{rng.choice(BLANKS)}")
    if depth < 2 and rng.random() < 0.4:
        parts.append(f"<note>{_mixed(rng, depth + 1)}</note>")
    return "".join(parts)


def _book(rng, note=None):
    parts = [f"<book>{rng.choice(BLANKS)}<title>{rng.choice(('x', _mixed(rng)))}</title>"]
    for _ in range(rng.randint(0, 3)):
        parts.append(f"<author>{_text(rng)}</author>{rng.choice(BLANKS)}")
    if rng.random() < 0.5:
        parts.append(f"<price>{rng.randint(1, 99)}</price>")
    for _ in range(rng.randint(0, 3)):
        parts.append(f"<note>{_mixed(rng)}</note>")
    if note is not None:
        parts.append(f"<note>{note}</note>")
    parts.append("</book>\n")
    return "".join(parts)


def _document(seed, near_miss=None, count=None):
    """Books, one of them (if given) with ``near_miss`` in a note of its own."""
    rng = random.Random(seed)
    books = [_book(rng) for _ in range(count or rng.randint(3, 6))]
    if near_miss is not None:
        books.insert(len(books) // 2, _book(rng, near_miss))
    shelf = f"<shelf>{_mixed(rng)}</shelf>" if rng.random() < 0.7 else ""
    return f"<lib>\n{''.join(books)}{shelf}</lib>".encode("utf-8")


@pytest.fixture
def raw_items(monkeypatch):
    """The raw content items the scanner makes."""
    made = []
    real = scanner_module.RawContent

    def recording(text, count):
        item = real(text, count)
        made.append(item)
        return item

    monkeypatch.setattr(scanner_module, "RawContent", recording)
    return made


class _Deliveries:
    """What materialization handed each sub-batch position: event counts and
    raw content items, and the raw items taken by a split."""

    def __init__(self):
        self.events = collections.Counter()
        self.raw = collections.defaultdict(list)
        self.splits = []

    def note(self, subs):
        for position, sub in enumerate(subs):
            self.events[position] += len(sub)
            self.raw[position].extend(event for event in sub if event.__class__ is RawContent)


@pytest.fixture
def deliveries(monkeypatch):
    """Records every batch's per-position deliveries (solo and split)."""
    seen = _Deliveries()
    solo = SoABatch.materialize
    split = SoABatch.materialize_split

    def recording_solo(batch):
        sub = solo(batch)
        seen.note([sub])
        return sub

    def recording_split(batch, fanout):
        subs = split(batch, fanout)
        seen.note(subs)
        seen.splits.extend(split_raw_items(batch, fanout))
        return subs

    monkeypatch.setattr(SoABatch, "materialize", recording_solo)
    monkeypatch.setattr(SoABatch, "materialize_split", recording_split)
    return seen


def _floor(monkeypatch, floor):
    monkeypatch.setattr(scanner_module, "_RAW_MIN", floor)


def _outcome(result):
    stats = result.stats
    return (
        result.output,
        stats.input_events,
        stats.input_bytes,
        stats.output_events,
        stats.output_bytes,
        stats.peak_buffered_bytes,
        stats.peak_buffered_events,
        sorted(
            (row["variable"], row["at_peak_bytes"], row["at_peak_events"])
            for row in stats.buffer_attribution
        ),
    )


def _push(prepared, data, stride, options=None):
    with prepared.open_run(options=options) as run:
        for start in range(0, len(data), stride):
            run.feed(data[start : start + stride])
    return run.result


def _shapes(prepared, data):
    return {
        "pull": _outcome(prepared.execute(data)),
        "push/1": _outcome(_push(prepared, data, 1)),
        "push/7": _outcome(_push(prepared, data, 7)),
    }


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_raw_path_is_exact_across_run_shapes(name, monkeypatch, raw_items):
    prepared = FluxSession(DTD, root_element="lib").prepare(QUERIES[name])
    documents = [_document(seed) for seed in range(12)]
    _floor(monkeypatch, ON)
    forced = [_shapes(prepared, data) for data in documents]
    assert raw_items, "the raw path was never taken"
    _floor(monkeypatch, OFF)
    taken = len(raw_items)
    for data, shapes in zip(documents, forced):
        baseline = _outcome(prepared.execute(data))
        assert baseline[0] == NaiveDomEngine(QUERIES[name]).run_tree(parse_tree(data)).output
        for shape, outcome in shapes.items():
            assert outcome == baseline, (shape, data)
    assert len(raw_items) == taken, "the disabled runs took the raw path"


def test_set_member_reading_inside_an_opaque_element(monkeypatch, deliveries):
    """``copy`` keeps ``book`` opaque and ``inside`` reads it: the shared pass
    hands ``copy`` the book content raw, and ``inside`` reads the same bytes
    as events (taking only its own opaque ``title`` content raw)."""
    prepared = FluxSession(DTD, root_element="lib").prepare_many(
        {"copy": QUERIES["copy"], "inside": INSIDE}
    )
    documents = [_document(seed) for seed in range(12)]

    def outcomes(data):
        run = prepared.execute(data)
        return {name: _outcome(run[name]) for name in ("copy", "inside")}

    _floor(monkeypatch, ON)
    forced = [outcomes(data) for data in documents]
    copy, inside = deliveries.raw[0], deliveries.raw[1]
    assert any(item.text.startswith("<title>") for item in copy)
    assert inside and not any(item.text.startswith("<title>") for item in inside)
    _floor(monkeypatch, OFF)
    for data, outcome in zip(documents, forced):
        assert outcome == outcomes(data), data


def test_hub_delivers_raw_content_like_the_token_loop(monkeypatch, raw_items):
    stream = b"\n".join(_document(seed) for seed in range(6))

    def hub_outputs():
        with SubscriptionHub(load_dtd(DTD, root_element="lib")) as hub:
            subs = [hub.subscribe(QUERIES[name]) for name in ("copy", "scope", "value")]
            for start in range(0, len(stream), 4096):
                hub.feed(stream[start : start + 4096])
            hub.finish()
            return [[result.output for result in sub.results()] for sub in subs]

    _floor(monkeypatch, ON)
    forced = hub_outputs()
    assert raw_items
    _floor(monkeypatch, OFF)
    assert forced == hub_outputs()


def test_bounded_run_spills_raw_items(monkeypatch, raw_items):
    prepared = FluxSession(DTD, root_element="lib").prepare(QUERIES["marked"])
    data = _document(0, count=150)
    budget = ExecutionOptions(memory_budget=512)
    _floor(monkeypatch, ON)
    forced = prepared.execute(data, options=budget)
    assert raw_items and forced.stats.spill_count > 0
    _floor(monkeypatch, OFF)
    loop = prepared.execute(data, options=budget)
    assert _outcome(forced) == _outcome(loop)
    assert _outcome(forced) == _outcome(prepared.execute(data))


#: Near misses of the plain rule, each in a note beside the word ``NEARMISS``.
NEAR_MISSES = {
    "amp": "x &amp; y",
    "crlf": "one\r\ntwo",
    "attribute": '<em a="1">x</em>',
    "comment": "<!-- c -->",
    "self-closing": "<em/>",
    "padded": "<em >x</em >",
    "gt": "a > b",
    "non-ascii": "café",
    "too-large": "word " * (scanner_module._BULK_MAX // 5),
}


@pytest.mark.parametrize("query", ["copy", "scope"])
@pytest.mark.parametrize("miss", sorted(NEAR_MISSES) + ["chunk-boundary"])
def test_near_misses_are_refused_and_answered_right(miss, query, monkeypatch, raw_items):
    prepared = FluxSession(DTD, root_element="lib").prepare(QUERIES[query])
    data = _document(7, f"NEARMISS {NEAR_MISSES.get(miss, 'plain')}")
    if miss == "chunk-boundary":
        cut = data.index(b"NEARMISS") + 4
        chunks = [data[:cut], data[cut:]]
    else:
        chunks = [data]
    _floor(monkeypatch, ON)
    with prepared.open_run() as run:
        for chunk in chunks:
            run.feed(chunk)
    assert raw_items, "no element of the document was taken raw"
    assert not any("NEARMISS" in item.text for item in raw_items), miss
    _floor(monkeypatch, OFF)
    assert _outcome(run.result) == _outcome(prepared.execute(data))
    if miss != "attribute":  # the reference's trees keep attributes
        reference = NaiveDomEngine(QUERIES[query]).run_tree(parse_tree(data))
        assert run.result.output == reference.output


@pytest.mark.parametrize("query", ["copy", "scope"])
def test_without_its_near_miss_the_book_is_taken_raw(query, monkeypatch, raw_items):
    prepared = FluxSession(DTD, root_element="lib").prepare(QUERIES[query])
    _floor(monkeypatch, ON)
    prepared.execute(_document(7, "NEARMISS plain"))
    assert any(item.text.startswith("<title>") and "NEARMISS" in item.text for item in raw_items)


@pytest.fixture(scope="module")
def xmark_document():
    return generate_document(config_for_scale(1.0)).encode("utf-8")


@pytest.mark.parametrize("name", ["Q8", "Q13", "Q20"])
def test_xmark_takes_most_opaque_content_raw(name, xmark_document, monkeypatch, raw_items):
    """Most of the opaque content -- what the raw path takes with no size
    floor -- is taken at the default floor, and nothing else moves."""
    prepared = FluxSession(xmark_dtd()).prepare(BENCHMARK_QUERIES[name])
    raw = prepared.execute(xmark_document)
    taken = sum(len(item.text) for item in raw_items)
    raw_items.clear()
    _floor(monkeypatch, ON)
    prepared.execute(xmark_document)
    opaque = sum(len(item.text) for item in raw_items)
    assert taken > opaque // 2, (taken, opaque)
    _floor(monkeypatch, OFF)
    assert _outcome(raw) == _outcome(prepared.execute(xmark_document))


#: XMark sets whose members disagree about an element: Q20 copies each
#: ``person`` whole, and Q8/Q11 or Q1/Q13 read inside it.
XMARK_SETS = [("Q8", "Q11", "Q20"), ("Q1", "Q13", "Q20")]


def _member_outcome(result):
    stats = result.stats
    return (
        result.output,
        stats.input_events,
        stats.input_bytes,
        stats.peak_buffered_bytes,
        stats.handler_executions,
    )


@pytest.mark.parametrize("members", XMARK_SETS, ids="+".join)
def test_xmark_sets_split_like_the_token_loop(members, xmark_document, monkeypatch, deliveries):
    """Pulled and pushed in 1 KiB chunks, unbounded and under a quarter of
    the unbounded peak: each member answers and counts as with raw content
    off, and some content went raw by a split."""
    prepared = FluxSession(xmark_dtd()).prepare_many(
        {name: BENCHMARK_QUERIES[name] for name in members}
    )
    unbounded = prepared.execute(xmark_document)
    budget = ExecutionOptions(
        memory_budget=sum(unbounded[name].stats.peak_buffered_bytes for name in members) // 4
    )

    def outcomes():
        runs = {
            "pull": prepared.execute(xmark_document),
            "push": _push(prepared, xmark_document, 1024),
            "pull/budget": prepared.execute(xmark_document, options=budget),
            "push/budget": _push(prepared, xmark_document, 1024, budget),
        }
        return {
            shape: {name: _member_outcome(run[name]) for name in members}
            for shape, run in runs.items()
        }

    taken = outcomes()
    assert deliveries.splits
    _floor(monkeypatch, OFF)
    assert taken == outcomes()


def test_xmark_shared_pass_hands_q20_its_solo_events(xmark_document, deliveries):
    """In a {Q8, Q11, Q20} pass, Q20's executor receives as many events as
    alone -- person content raw -- not one per token (12,466 before the
    split); the fence decides a few elements differently when other members'
    proofs move it, so the counts may differ by those."""
    session = FluxSession(xmark_dtd())
    session.prepare(BENCHMARK_QUERIES["Q20"]).execute(xmark_document)
    solo = deliveries.events[0]
    deliveries.events.clear()
    session.prepare_many({name: BENCHMARK_QUERIES[name] for name in XMARK_SETS[0]}).execute(
        xmark_document
    )
    shared = deliveries.events[2]
    assert abs(shared - solo) <= solo // 20, (shared, solo)


def test_xmark_hub_splits_and_matches_solo_runs(monkeypatch, deliveries):
    """A hub of Q1, Q13 and Q20 subscribers (two of Q1 and Q20) over ticker
    documents: the Q20 seats take person content raw by a split, and every
    result equals a solo run, as it does with raw content off."""
    documents = [ticker_document(index).encode("utf-8") for index in range(4)]
    stream = b"".join(documents)
    names = ("Q1", "Q13", "Q20", "Q1", "Q20")

    def hub_results():
        with SubscriptionHub(xmark_dtd()) as hub:
            subs = [hub.subscribe(BENCHMARK_QUERIES[name]) for name in names]
            for start in range(0, len(stream), 8192):
                hub.feed(stream[start : start + 8192])
            hub.finish()
            return [[(result.document, result.output) for result in sub.results()] for sub in subs]

    taken = hub_results()
    assert deliveries.splits
    _floor(monkeypatch, OFF)
    assert taken == hub_results()
    session = FluxSession(xmark_dtd())
    for name, results in zip(names, taken):
        solo = session.prepare(BENCHMARK_QUERIES[name])
        assert results == [
            (index, solo.execute(document).output) for index, document in enumerate(documents)
        ], name


def _book_shape(fanout):
    """How the scanner takes ``/lib/book``'s content: by a split, whole, or
    as tokens only."""
    tags = fanout.tags
    book = fanout.resolve(fanout.resolve(0, tags.intern(b"lib")), tags.intern(b"book"))
    if not fanout.opaque_masks[book]:
        return "tokens"
    return "whole" if fanout.hollow[fanout.taken(book)] else "split"


@pytest.mark.parametrize("leaving", ["inside", "copy"])
def test_churn_moves_a_row_between_split_whole_and_tokens(leaving, monkeypatch, deliveries):
    """A hub seats ``copy`` and ``inside``, so ``book`` splits.  Detaching the
    reading slot turns the row whole-raw, detaching the copying slot turns it
    token-only, and a later compaction changes no output: every result
    equals a solo run."""
    schema = load_dtd(DTD, root_element="lib")
    queries = {"copy": QUERIES["copy"], "inside": INSIDE}
    documents = [_document(seed) for seed in range(7)]
    _floor(monkeypatch, ON)

    def counts():
        books = sum(
            item.text.startswith("<title>") for items in deliveries.raw.values() for item in items
        )
        return books, len(deliveries.splits)

    shapes = []
    went_raw = []
    with SubscriptionHub(schema) as hub:
        subs = {name: hub.subscribe(query, name=name) for name, query in queries.items()}
        for index, data in enumerate(documents):
            if index == 2:
                hub.unsubscribe(subs[leaving])
            if index == 4:
                hub.compact()
            before = counts()
            hub.feed(data)
            shapes.append(_book_shape(hub.fanout))
            went_raw.append(tuple(now > then for now, then in zip(counts(), before)))
        hub.finish()
        delivered = {
            name: [(result.document, result.output) for result in sub.results()]
            for name, sub in subs.items()
        }
    after = "whole" if leaving == "inside" else "tokens"
    assert shapes == ["split"] * 2 + [after] * 5
    # (books taken raw, books taken by a split) per document
    assert went_raw == [(True, True)] * 2 + [(leaving == "inside", False)] * 5
    session = FluxSession(schema)
    for name, results in delivered.items():
        solo = session.prepare(queries[name])
        expected = range(2) if name == leaving else range(len(documents))
        assert results == [(index, solo.execute(documents[index]).output) for index in expected]


#: With ``copy`` and :data:`INSIDE`, every shape of proof meets in a book:
#: ``notes`` keeps each ``note`` for its tag alone (a hollow row, so runs of
#: its ``em`` children are candidates) and ``ems`` reads inside ``title``,
#: which :data:`INSIDE` keeps opaque (a nested split is a candidate).
PROOF_SET = {
    "copy": QUERIES["copy"],
    "inside": INSIDE,
    "notes": "<o>{ for $b in $ROOT/lib/book return <b>{ for $n in $b/note return <n/> }</b> }</o>",
    "ems": "<o>{ for $b in $ROOT/lib/book return <e>{$b/title/em}</e> }</o>",
}


def test_a_split_sends_each_byte_to_the_proof_at_most_twice(monkeypatch, deliveries):
    """Two books of distinct ``em`` elements in a ``title`` and a ``note``;
    the second book's note ends in one that is not plain, so its split is
    refused.  No split or run starts inside a split that was tried, so each
    byte reaches the proof at most twice, dropped content inside a split is
    still proven, and every member answers right."""
    text = b"alpha beta " * 30

    def ems(book, part, tail=b""):
        return b"".join(b"<em>%d.%s.%d %s</em>" % (book, part, i, text) for i in range(8)) + tail

    data = b"<lib>%s</lib>" % b"".join(
        b"<book><title>%s</title><note>%s</note></book>"
        % (ems(book, b"t"), ems(book, b"n", b"<em>x &amp; y</em>" if book else b""))
        for book in (0, 1)
    )
    prepared = FluxSession(DTD, root_element="lib").prepare_many(PROOF_SET)
    # Tags met before they are interned take the generic path, never a proof.
    prepared.execute(b"<lib><book><title><em>w</em></title><note><em>w</em></note></book></lib>")
    spans = []
    real = scanner_module._plain_span

    def recording(span, content):
        spans.append(bytes(span))
        return real(span, content)

    monkeypatch.setattr(scanner_module, "_plain_span", recording)
    run = prepared.execute(data)
    assert len(deliveries.splits) == 1
    reached = [0] * len(data)
    at = 0
    for span in spans:  # proofs start in document order
        at = data.find(span, at)
        assert at != -1 and data.find(span, at + 1) == -1
        for index in range(at, at + len(span)):
            reached[index] += 1
    assert max(reached) == 2
    # The split does not move the fence: inside the first book, the ``em``
    # elements of the note, which every member drops, are still proven.
    assert sum(span.startswith(b"<em>0.n.") for span in spans) == 8
    for name, query in PROOF_SET.items():
        assert run[name].output == NaiveDomEngine(query).run_tree(parse_tree(data)).output


def _canonical(rng, depth=0):
    """Random canonical raw content: nested ``a``/``b``/``c``, text runs."""
    parts = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.4 or depth >= 4:
            parts.append(rng.choice(("t", "u v", " w ")))
        else:
            name = rng.choice("abc")
            parts.append(f"<{name}>{_canonical(rng, depth + 1)}</{name}>")
    return "".join(parts)


def _read(spans):
    return [(_render(span).text, span.text()) for span in spans]


def test_paths_read_inside_raw_content_as_in_its_events():
    rng = random.Random(5)
    paths = [("a",), ("b", "a"), ("a", "a"), ("c", "b", "a"), ("a", "b", "c", "a")]
    checked = 0
    for _ in range(400):
        text = _canonical(rng)
        if "<" not in text:
            continue
        count = len(expand_raw(RawContent(text, 0)))
        assert _raw_event_count(text) == count, text
        wrapped = [StartElement("r"), RawContent(text, count), EndElement("r")]
        events = expanded(wrapped)
        for path in paths:
            steps = ("r", *path)
            spans = _path_spans(wrapped, None, steps)
            assert _read(spans) == _read(_path_spans(events, None, steps)), text
            # Jumping by end pointers reads the same, over raw content and events.
            for forest in (wrapped, events):
                assert _read(_path_spans(forest, _end_pointers(forest), steps)) == _read(spans), text
            checked += len(spans)
    assert checked > 100
