"""Dropped content taken in bulk counts and fails exactly like the token loop.

:class:`~repro.fastpath.ByteScanner` takes a large dropped subtree, or a
run of dropped siblings under a parent that keeps nothing inside, past its
token loop when it is plain and expat accepts it, and accounts for it from
byte counts (see :mod:`repro.fastpath.scanner`).  These tests hold that
path to the loop it short-cuts and to the expat reference:

* a seeded differential over ``<drop>`` elements of many siblings, at and
  above the bulk threshold, that mix plain content with every near miss of
  the plain rule -- references, comments, CDATA, PIs, attributes, padded
  and self-closing tags, nested same-name elements, mismatched closes,
  non-ASCII text, ``\\x0b``/``\\x0c`` segments, NUL, ``]]>`` and ``>`` in
  text -- inside a sibling, between two and as the last one; a last
  sibling whose inner element shares the run's name; ``<drop>`` elements
  larger than the one-piece bound; and adjacent ``<drop>`` elements.  It
  runs in push mode at strides 1, 7, 97 and whole, and in pull mode from
  bytes and from a file: output, ``input_events``, ``input_bytes`` and
  error class/message/offset equal a run with the bulk path disabled, and
  output, counts and error class/offset equal the reference's as the
  scanner's error rule states;
* no run is taken under a parent that keeps some of its children, and
  runs are taken under one whose scope observes none of them;
* a refused run sends each byte to the proof at most twice;
* XMark Q1 takes most of its bytes through the bulk path with unchanged
  input statistics;
* an idle subscription hub, whose root element is dropped, frames
  concatenated documents in one chunk exactly as without the bulk path.
"""

import random

import pytest
from _reference import reference_events, top_level_elements

import repro.fastpath.scanner as scanner_module
from repro import ExecutionOptions, FluxSession
from repro.baselines import NaiveDomEngine
from repro.serve import SubscriptionHub
from repro.xmark.dtd import xmark_dtd
from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.ticker import ticker_document
from repro.xmlstream.errors import XMLSyntaxError
from repro.xmlstream.parser import parse_tree

DTD = """
<!ELEMENT r (keep|drop)*>
<!ELEMENT keep (#PCDATA)>
<!ELEMENT drop (#PCDATA|item|note|p|q)*>
<!ELEMENT item (#PCDATA|p|q|item)*>
<!ELEMENT note (#PCDATA|p|q|note|item)*>
<!ELEMENT p (#PCDATA|p|q)*>
<!ELEMENT q (#PCDATA|p|q)*>
"""

QUERY = "<o>{ for $k in $ROOT/r/keep return {$k} }</o>"

THRESHOLD = scanner_module._BULK_MIN

#: Everything the plain rule must refuse, and plain content it must not
#: confuse: a nested element named like the dropped one (``{top}``) is
#: plain, but the first end tag of that name closes the inner element.
NEAR_MISSES = {
    "amp": "x &amp; y",
    "bogus-entity": "x &bogus; y",
    "comment": "<!-- c -->",
    "cdata": "<![CDATA[ c ]]>",
    "pi": "<?pi x?>",
    "attribute": '<q a="1">x</q>',
    "padded": "<q >x</q >",
    "self-closing": "<q/>",
    "nested-same-name": "<{top}>x</{top}>",
    "mismatched-close": "<p>x</q>",
    "non-ascii": "café naïve",
    "ideographic-space": "<q>　</q>　",
    "vt-ff": "<q>\x0b</q><q> \x0c </q>a\x0bb",
    "nul": "a\x00b",
    "cdata-end": "a]]>b",
    "gt-in-text": "x> <q>y</q>",
}

#: Near misses the scanner's error rule lists as laxities: expat rejects
#: them, the scanner does not.
LAXITIES = ("vt-ff", "nul", "cdata-end")

TEXTS = ("alpha", "beta gamma", " delta ", "x/y", "'quoted'", "a=b", "wow!", "why?")
BLANKS = ("", " ", "\n  ", "\t", "\r\n")


def _content(rng, size, depth=0):
    out = []
    total = 0
    while total < size:
        pick = rng.random()
        if pick < 0.35:
            piece = rng.choice(TEXTS)
        elif pick < 0.5 or depth >= 4:
            piece = rng.choice(BLANKS) or "<q></q>"
        else:
            name = rng.choice("ppq")
            piece = f"<{name}>{_content(rng, rng.randint(0, size // 2), depth + 1)}</{name}>"
        out.append(piece)
        total += len(piece)
    return "".join(out)


def _inject(rng, content, snippet):
    """``content`` with ``snippet`` at a random tag boundary."""
    cuts = [index for index, char in enumerate(content) if char == "<"] + [len(content)]
    at = rng.choice(cuts)
    return content[:at] + snippet + content[at:]


def _drop(rng, size):
    """One ``<drop>`` of at least ``size`` bytes of siblings.  Siblings are
    below and above the bulk threshold, so runs take small ones together;
    a near miss may sit inside a sibling, between two, or last, and the
    last sibling may be a ``<note>`` whose inner ``<item>`` holds the
    window's last ``</item>``."""
    siblings = []
    total = 0
    while total < size:
        name = rng.choice(("item", "note"))
        low = 0 if rng.random() < 0.5 else THRESHOLD
        sibling = [name, _content(rng, rng.randint(low, low + 2 * THRESHOLD))]
        siblings.append(sibling)
        total += len(sibling[1]) + 2 * len(name) + 5
    if rng.random() < 0.3:
        inner = _content(rng, rng.randint(0, THRESHOLD))
        siblings.append(["note", f"{_content(rng, 20)}<item>{inner}</item>{_content(rng, 20)}"])
    miss = ""
    if rng.random() < 0.6:
        sibling = rng.choice(siblings)
        miss = NEAR_MISSES[rng.choice(sorted(NEAR_MISSES))].replace("{top}", sibling[0])
        if rng.random() < 0.5:
            sibling[1] = _inject(rng, sibling[1], miss)
            miss = ""
    parts = [f"<{name}>{content}</{name}>{rng.choice(BLANKS)}" for name, content in siblings]
    if miss and rng.random() < 0.6:
        parts.insert(rng.randrange(len(parts)), miss)
    elif miss:
        parts.append(miss)
    return "<drop>" + "".join(parts) + "</drop>"


def _document(seed):
    """``<drop>`` is a child of the query's scope element, so its tag is
    kept and its children -- the siblings runs take -- are dropped.  Every
    eighth document holds a ``<drop>`` larger than the one-piece bound, and
    some ``<drop>`` elements are adjacent, so a run must stop at its
    parent's end tag."""
    rng = random.Random(seed)
    parts = ["<r>"]
    for index in range(rng.randint(2, 3)):
        parts.append(f"<keep>k{seed}.{index}</keep>")
        for _ in range(2 if rng.random() < 0.3 else 1):
            size = rng.randint(THRESHOLD, 8 * THRESHOLD)
            parts.append(_drop(rng, size) + "\n")
    if seed % 8 == 3:
        parts.append(_drop(rng, scanner_module._BULK_MAX + 4 * THRESHOLD))
    parts.append("</r>")
    return "".join(parts).encode("utf-8")


def _outcome(drive):
    """Output and input statistics of a run, or its error's identity."""
    try:
        result = drive()
    except XMLSyntaxError as exc:
        return ("error", type(exc), str(exc), exc.offset)
    stats = result.stats
    return ("ok", result.output, stats.input_events, stats.input_bytes)


def _push(prepared, data, stride):
    def drive():
        with prepared.open_run() as run:
            for start in range(0, len(data), stride):
                run.feed(data[start : start + stride])
        return run.result

    return drive


def _modes(prepared, data, path):
    small = ExecutionOptions(chunk_size=1000)
    return {
        "push/1": _push(prepared, data, 1),
        "push/7": _push(prepared, data, 7),
        "push/97": _push(prepared, data, 97),
        "push/whole": _push(prepared, data, len(data)),
        "pull/bytes": lambda: prepared.execute(data),
        "pull/bytes/1000": lambda: prepared.execute(data, options=small),
        "pull/file/1000": lambda: prepared.execute(path, options=small),
    }


def _reference(data):
    """The expat reference's view: its error's class and offset, or the
    output and input statistics of its event stream."""
    try:
        events = reference_events(data)
    except XMLSyntaxError as exc:
        return ("error", type(exc), exc.offset)
    output = NaiveDomEngine(QUERY).run_tree(parse_tree(data)).output
    return ("ok", output, len(events), sum(event.cost_in_bytes() for event in events))


def _as_reference_sees(outcome, data):
    """What the reference can be held to.  Errors: class, and the offset
    expat reports (at a mismatched end tag's name, two bytes on).  Runs: the
    byte total only where the scanner's source bytes equal decoded
    characters -- ASCII, and no CR for line-end normalisation to drop."""
    if outcome[0] == "error":
        _kind, error, message, offset = outcome
        return ("error", error, offset + 2 if "mismatched closing tag" in message else offset)
    if not data.isascii() or b"\r" in data:
        return outcome[:3]
    return outcome


@pytest.fixture
def bulk_calls(monkeypatch):
    """Record every proof the scanner asks for -- dropped subtrees, runs of
    dropped siblings and raw content alike -- and what it accepts."""
    counts = {"accepted": 0, "refused": 0, "accepted_bytes": 0, "runs": 0, "spans": []}
    plain_span = scanner_module._plain_span

    def counting(span, content):
        counted = plain_span(span, content)
        counts["spans"].append(bytes(span))
        if counted is None:
            counts["refused"] += 1
        else:
            counts["accepted"] += 1
            counts["accepted_bytes"] += len(span)
            counts["runs"] += top_level_elements(span) > 1
        return counted

    monkeypatch.setattr(scanner_module, "_plain_span", counting)
    return counts


def _disabled(monkeypatch):
    """Turn every bulk take off for the rest of the test (no span is large)."""
    monkeypatch.setattr(scanner_module, "_BULK_MIN", 1 << 62)
    monkeypatch.setattr(scanner_module, "_RAW_MIN", 1 << 62)


def test_bulk_path_is_exact_on_near_misses(tmp_path, monkeypatch, bulk_calls):
    session = FluxSession(DTD, root_element="r")
    prepared = session.prepare(QUERY)
    documents = [_document(seed) for seed in range(40)]
    observed = []
    for seed, data in enumerate(documents):
        path = tmp_path / f"doc{seed}.xml"
        path.write_bytes(data)
        modes = _modes(prepared, data, path)
        observed.append({name: _outcome(drive) for name, drive in modes.items()})
    assert bulk_calls["refused"] > 0 and bulk_calls["runs"] > 0, bulk_calls["runs"]

    _disabled(monkeypatch)
    proofs = len(bulk_calls["spans"])
    errors = 0
    for seed, data in enumerate(documents):
        baseline = _outcome(lambda: prepared.execute(data))
        errors += baseline[0] == "error"
        for name, outcome in observed[seed].items():
            assert outcome == baseline, (seed, name, data)
        reference = _reference(data)
        if any(NEAR_MISSES[name].encode() in data for name in LAXITIES):
            assert reference[0] == "error", (seed, data)
        else:
            expected = _as_reference_sees(baseline, data)
            assert reference[: len(expected)] == expected, (seed, data)
    assert len(bulk_calls["spans"]) == proofs, "the disabled runs asked for a proof"
    assert 0 < errors < len(documents)


def test_xmark_q1_takes_most_bytes_in_bulk_with_unchanged_statistics(monkeypatch, bulk_calls):
    data = generate_document(config_for_scale(0.2)).encode("utf-8")
    prepared = FluxSession(xmark_dtd()).prepare(BENCHMARK_QUERIES["Q1"])
    bulk = prepared.execute(data)
    accepted = bulk_calls["accepted_bytes"]
    assert accepted >= len(data) // 2, (accepted, len(data))
    _disabled(monkeypatch)
    loop = prepared.execute(data)
    assert bulk.output == loop.output
    assert (bulk.stats.input_events, bulk.stats.input_bytes) == (
        loop.stats.input_events,
        loop.stats.input_bytes,
    )


#: Buffers the ``<note>`` children of each ``<drop>`` and drops its
#: ``<item>`` children: ``<drop>`` is not hollow, and a run from an
#: ``<item>`` there would swallow the notes after it.
NOTES_QUERY = "<o>{ for $r in $ROOT/r return <d>{ $r/keep }{ $r/drop/note }</d> }</o>"


def test_no_run_is_taken_under_a_parent_that_keeps_children(monkeypatch, bulk_calls):
    prepared = FluxSession(DTD, root_element="r").prepare(NOTES_QUERY)
    documents = [_document(seed) for seed in range(40)]
    bulk = [_outcome(lambda: prepared.execute(data)) for data in documents]
    assert bulk_calls["accepted"] > 0
    _disabled(monkeypatch)
    assert bulk == [_outcome(lambda: prepared.execute(data)) for data in documents]


#: Counts the ``<drop>`` elements: each one hosts a scope that observes no
#: child, so its row is hollow though its projection state has a position.
COUNT_QUERY = "<o>{ for $d in $ROOT/r/drop return <d/> }</o>"


def test_runs_are_taken_under_a_scope_that_observes_no_child(monkeypatch, bulk_calls):
    prepared = FluxSession(DTD, root_element="r").prepare(COUNT_QUERY)
    fanout = prepared.fanout
    tags = fanout.tags
    drop = fanout.resolve(fanout.resolve(0, tags.intern(b"r")), tags.intern(b"drop"))
    assert fanout._components[drop][0].positions and fanout.hollow[drop]
    documents = [_document(seed) for seed in range(40)]
    bulk = [_outcome(lambda: prepared.execute(data)) for data in documents]
    assert bulk_calls["runs"] > 0
    _disabled(monkeypatch)
    assert bulk == [_outcome(lambda: prepared.execute(data)) for data in documents]


def test_a_refused_run_sends_each_byte_to_the_proof_at_most_twice(bulk_calls):
    # Distinct plain siblings, then one that is not plain: the run over them
    # is refused, each plain sibling is then proven alone, and no run is
    # tried again from inside the refused one.  (The first ``<item>`` is
    # met on the generic path, before its tag is interned: no bulk there.)
    text = b"alpha beta " * 30
    siblings = b"".join(b"<item>%d %s</item>" % (index, text) for index in range(40))
    data = b"<r><keep>k</keep><drop>" + siblings + b"<item>x &amp; y</item></drop></r>"
    prepared = FluxSession(DTD, root_element="r").prepare(QUERY)
    result = prepared.execute(data)
    assert (bulk_calls["refused"], bulk_calls["accepted"]) == (1, 39)
    reached = [0] * len(data)
    for span in bulk_calls["spans"]:
        at = data.find(span)
        assert at != -1 and data.find(span, at + 1) == -1
        for index in range(at, at + len(span)):
            reached[index] += 1
    assert max(reached) == 2
    assert result.output == "<o><keep>k</keep></o>"


def _idle_hub(stream):
    """Feed ``stream`` in one chunk to a hub without subscribers."""
    hub = SubscriptionHub(xmark_dtd())
    try:
        completed = hub.feed(stream)
        hub.finish()
    except XMLSyntaxError as exc:
        return ("error", type(exc), str(exc), exc.offset, hub.documents_completed)
    progress = hub.progress()
    return ("ok", completed, {key: progress[key] for key in (
        "bytes_fed", "chunks_fed", "documents_completed", "resume_offset",
        "document_start_offset", "document_offset",
    )})


def _ticker_stream(tail):
    documents = [ticker_document(index).encode("utf-8") for index in range(4)]
    return b"\n".join(documents) + b"\n" + tail, len(documents)


#: A small plain document.  Past the first, each root of a stream of them is
#: a dropped element at the stream's top level, where no run may be taken:
#: the later roots would otherwise be proven as one run and framed as one.
SMALL_DOCUMENT = (
    b"<site><people>" + b"<person><name>alpha beta</name></person>" * 8 + b"</people></site>"
)

STREAMS = {
    "clean": lambda: _ticker_stream(b""),
    "broken-last": lambda: _ticker_stream(b"<site><regions></site>"),
    "small-roots": lambda: (b"\n".join([SMALL_DOCUMENT] * 3), 3),
}


@pytest.mark.parametrize("shape", sorted(STREAMS))
def test_idle_hub_frames_concatenated_documents_as_the_token_loop(monkeypatch, bulk_calls, shape):
    stream, documents = STREAMS[shape]()
    bulk = _idle_hub(stream)
    # The first root is interned on the generic path; every later root is
    # dropped whole, on its own: no proof spans two roots.
    assert bulk_calls["accepted"] >= documents - 1, bulk_calls["accepted"]
    assert all(span.count(b"<site>") <= 1 for span in bulk_calls["spans"])
    _disabled(monkeypatch)
    assert bulk == _idle_hub(stream)
