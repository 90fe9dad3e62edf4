"""Dropped subtrees taken in bulk count and fail exactly like the token loop.

:class:`~repro.fastpath.ByteScanner` takes a large dropped subtree past its
token loop when the subtree is plain and expat accepts it, and accounts for
it from byte counts (see :mod:`repro.fastpath.scanner`).  These tests hold
that path to the loop it short-cuts and to the expat reference:

* a seeded differential over dropped subtrees at or above the bulk
  threshold that mix plain content with every near miss of the plain rule
  -- references, comments, CDATA, PIs, attributes, padded and self-closing
  tags, nested same-name elements, mismatched closes, non-ASCII text,
  ``\\x0b``/``\\x0c`` segments, NUL and ``]]>`` -- run in push mode at
  strides 1, 7, 97 and whole, and in pull mode from bytes and from a file:
  output, ``input_events``, ``input_bytes`` and error class/message/offset
  equal a run with the bulk path disabled, and output, counts and error
  class/offset equal the reference's as the scanner's error rule states;
* XMark Q1 takes most of its bytes through the bulk path with unchanged
  input statistics;
* an idle subscription hub, whose root element is dropped, frames
  concatenated documents in one chunk exactly as without the bulk path.
"""

import random

import pytest
from _reference import reference_events

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
<!ELEMENT drop (#PCDATA|item|note)*>
<!ELEMENT item (#PCDATA|p|q|item)*>
<!ELEMENT note (#PCDATA|p|q|note)*>
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


def _document(seed):
    """``<drop>`` is a child of the query's scope element, so its tag is
    kept and its children -- the large subtrees -- are dropped."""
    rng = random.Random(seed)
    parts = ["<r>"]
    for index in range(rng.randint(2, 3)):
        parts.append(f"<keep>k{seed}.{index}</keep><drop>")
        for _ in range(rng.randint(1, 2)):
            name = rng.choice(("item", "note"))
            content = _content(rng, rng.randint(THRESHOLD, 3 * THRESHOLD))
            if rng.random() < 0.6:
                miss = NEAR_MISSES[rng.choice(sorted(NEAR_MISSES))]
                content = _inject(rng, content, miss.replace("{top}", name))
            parts.append(f"<{name}>{content}</{name}>{rng.choice(BLANKS)}")
        parts.append("</drop>\n")
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
    """Count what the bulk path accepts and refuses (subtrees and bytes)."""
    counts = {"accepted": 0, "refused": 0, "accepted_bytes": 0}
    plain_subtree = scanner_module._plain_subtree

    def counting(subtree, content):
        counted = plain_subtree(subtree, content)
        if counted is None:
            counts["refused"] += 1
        else:
            counts["accepted"] += 1
            counts["accepted_bytes"] += len(subtree)
        return counted

    monkeypatch.setattr(scanner_module, "_plain_subtree", counting)
    return counts


def _disabled(monkeypatch):
    """Turn the bulk path off for the rest of the test (no subtree is large)."""
    monkeypatch.setattr(scanner_module, "_BULK_MIN", 1 << 62)


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
    assert bulk_calls["accepted"] > 0 and bulk_calls["refused"] > 0, bulk_calls

    _disabled(monkeypatch)
    accepted = bulk_calls["accepted"]
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
    assert bulk_calls["accepted"] == accepted, "the disabled runs took the bulk path"
    assert 0 < errors < len(documents)


def test_xmark_q1_takes_most_bytes_in_bulk_with_unchanged_statistics(monkeypatch, bulk_calls):
    data = generate_document(config_for_scale(0.2)).encode("utf-8")
    prepared = FluxSession(xmark_dtd()).prepare(BENCHMARK_QUERIES["Q1"])
    bulk = prepared.execute(data)
    assert bulk_calls["accepted_bytes"] >= len(data) // 2, (bulk_calls, len(data))
    _disabled(monkeypatch)
    loop = prepared.execute(data)
    assert bulk.output == loop.output
    assert (bulk.stats.input_events, bulk.stats.input_bytes) == (
        loop.stats.input_events,
        loop.stats.input_bytes,
    )


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


@pytest.mark.parametrize("tail", [b"", b"<site><regions></site>"], ids=["clean", "broken-last"])
def test_idle_hub_frames_concatenated_documents_as_the_token_loop(monkeypatch, bulk_calls, tail):
    documents = [ticker_document(index).encode("utf-8") for index in range(4)]
    stream = b"\n".join(documents) + b"\n" + tail
    bulk = _idle_hub(stream)
    # The first root is interned on the generic path; every later root is
    # dropped whole.
    assert bulk_calls["accepted"] >= len(documents) - 1, bulk_calls
    _disabled(monkeypatch)
    assert bulk == _idle_hub(stream)
