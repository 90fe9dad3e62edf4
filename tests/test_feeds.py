"""Continuous feeds (:mod:`repro.feeds`): the long-lived multi-document mode.

Covers the feed tentpole and its satellites:

* framing: one ``open_feed`` handle over concatenated documents returns
  per-document results with exact byte offsets, at arbitrary chunk splits;
  the framing cases run against a ``driver`` parameter -- the solo feed and
  a one-subscriber :class:`~repro.serve.SubscriptionHub` -- because both
  are the same :class:`~repro.feeds.FeedHandle` loop,
* satellite 1 -- a stream ending inside a multi-byte UTF-8 sequence must
  raise a truncated-document error at the offset where the cut sequence
  starts from the run's ``finish()``,
* satellite 2 -- bytes after the root close: single-document push mode
  rejects them with an error pointing into the trailer, while feed mode
  hands them to the next document,
* satellite 3 -- ``/progress`` entries and crash dumps carry
  document-charged offsets (``document_start_offset``, ``resume_offset``),
  so a crash dump names the exact resume point,
* satellite 4 -- a randomized sweep: 2..50 concatenated documents, chunk
  splits placed before/at/after every boundary byte, asserting per-document
  byte-identity with solo runs, the flat live-buffer floor and unchanged
  logical peaks,
* crash-safe resume: ``resume_from=<reported offset>`` replays the
  remaining documents byte-identically,
* heartbeats, ``resume_from`` validation, and runtime counters.
"""

import json
import random

import pytest

import repro.feeds
from repro import DocumentResult, FeedResult, FluxSession
from repro.serve import SubscriptionHub
from repro.xmlstream.errors import XMLWellFormednessError

BIB_DTD = """
<!ELEMENT bib (book)*>
<!ELEMENT book (title,author+)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
"""

TITLES = "<titles>{ for $b in $ROOT/bib/book return {$b/title} }</titles>"


def _doc(index: int) -> str:
    return (
        f"<bib><book><title>T{index}</title><author>A{index}</author></book>"
        f"<book><title>U{index}</title><author>B{index}</author></book></bib>"
    )


def _stream(count: int, separator: str = "\n") -> bytes:
    return "".join(_doc(i) + separator for i in range(count)).encode("utf-8")


def _chunks(data: bytes, stride: int):
    return [data[i : i + stride] for i in range(0, len(data), stride)]


def _split(data: bytes, cuts):
    edges = [0, *cuts, len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:])]


@pytest.fixture()
def session():
    with FluxSession(BIB_DTD, root_element="bib") as sess:
        yield sess


def _solo_outputs(session, count: int):
    prepared = session.prepare(TITLES)
    return [prepared.execute(_doc(i)).output for i in range(count)]


class _FeedDriver:
    """The TITLES query over a stream, through ``open_feed``."""

    def __init__(self, session):
        self.documents = []
        self.handle = session.prepare(TITLES).open_feed(on_document=self.documents.append)
        self.progress = self.handle.progress
        self.finish = self.handle.finish
        self.close = self.handle.close

    def feed(self, chunk) -> int:
        return len(self.handle.feed(chunk))

    def outputs(self):
        return [document.result.output for document in self.documents]

    def indices(self):
        return [document.index for document in self.documents]


class _HubDriver:
    """The same query as the one subscriber of a hub over the same stream."""

    def __init__(self, session):
        self.handle = SubscriptionHub(session.dtd)
        self.subscription = self.handle.subscribe(TITLES, max_queue=1000)
        self.results = []
        self.feed = self.handle.feed
        self.progress = self.handle.progress
        self.finish = self.handle.finish
        self.close = self.handle.close

    def _delivered(self):
        self.results.extend(iter(self.subscription.get_nowait, None))
        return self.results

    def outputs(self):
        return [result.output for result in self._delivered()]

    def indices(self):
        return [result.document for result in self._delivered()]


@pytest.fixture(params=[_FeedDriver, _HubDriver], ids=["feed", "hub"])
def driver(request, session):
    """Whoever drives the one framing loop: ``feed(chunk)`` returns the
    documents the chunk completed; ``finish`` / ``progress`` / ``outputs``."""
    driving = request.param(session)
    yield driving
    driving.close()


# ---------------------------------------------------------------------------
# Framing


def _drive(driver, chunks):
    """Feed ``chunks`` and finish; documents completed per chunk."""
    completed = [driver.feed(chunk) for chunk in chunks]
    driver.finish()
    return completed


def _assert_framed(driver, session, stream: bytes, count: int, end_offset: int):
    assert driver.outputs() == _solo_outputs(session, count)
    assert driver.indices() == list(range(count))
    progress = driver.progress()
    assert progress["documents_completed"] == count
    assert progress["bytes_fed"] == len(stream)
    assert progress["resume_offset"] == end_offset


@pytest.mark.parametrize("stride", [1, 7, 64, 10_000])
def test_stream_frames_documents_at_any_split(driver, session, stride):
    """Stride 10 000 is one chunk closing all four documents."""
    count = 4
    stream = _stream(count)
    completed = _drive(driver, _chunks(stream, stride))
    assert sum(completed) == count
    if stride > len(stream):
        assert completed == [count]
    _assert_framed(driver, session, stream, count, len(stream) - 1)


def test_cut_inside_inter_document_whitespace(driver, session):
    separator = "  \r\n\t"
    stream = _stream(3, separator)
    unit = len(_doc(0).encode("utf-8")) + len(separator)
    # Every boundary's padding is cut in the middle: the head of it trails
    # the closing document, the rest leads the next chunk.
    chunks = _split(stream, [unit - 3, 2 * unit - 2, 3 * unit - 4])
    assert _drive(driver, chunks) == [1, 1, 1, 0]
    _assert_framed(driver, session, stream, 3, len(stream) - len(separator))


def test_cut_inside_multi_byte_sequence_straddling_a_boundary(driver, session):
    """One chunk closes a document and ends half-way through a two-byte
    character of the next: the partial sequence rides the remainder."""
    accented = "<bib><book><title>Caf\u00e9</title><author>Zo\u00eb</author></book></bib>"
    head = _doc(0).encode("utf-8")
    tail = accented.encode("utf-8")
    stream = head + tail
    cut = len(head) + tail.index("\u00e9".encode("utf-8")) + 1
    assert _drive(driver, _split(stream, [cut])) == [1, 1]
    solo = session.prepare(TITLES).execute(accented).output
    assert "Caf\u00e9" in solo
    assert driver.outputs() == [_solo_outputs(session, 1)[0], solo]
    assert driver.progress()["resume_offset"] == len(stream)


def test_bytes_after_a_root_close_start_the_next_document(driver, session):
    stream = (_doc(0) + _doc(1)).encode("utf-8")  # no separator at all
    assert _drive(driver, [stream]) == [2]
    _assert_framed(driver, session, stream, 2, len(stream))


def test_stream_ending_mid_document_raises(driver):
    assert driver.feed(_stream(1) + b"<bib><book><title>half") == 1
    with pytest.raises(XMLWellFormednessError):
        driver.finish()
    # The failed document never sealed: the resume point is the first's end.
    progress = driver.progress()
    assert progress["documents_completed"] == 1
    assert progress["resume_offset"] == len(_stream(1)) - 1


def test_stream_ending_inside_the_first_document_raises(driver):
    assert driver.feed(b"<bib><book><title>half") == 0
    with pytest.raises(XMLWellFormednessError):
        driver.finish()
    # The failed document never sealed: nothing to resume past.
    progress = driver.progress()
    assert progress["documents_completed"] == 0
    assert progress["resume_offset"] == 0


def test_stream_ending_mid_code_point_raises_in_finish(driver):
    driver.feed(_stream(1) + "<bib><book><title>Caf\u00e9".encode("utf-8")[:-1])
    with pytest.raises(XMLWellFormednessError, match="truncated document"):
        driver.finish()
    assert driver.progress()["documents_completed"] == 1


@pytest.mark.parametrize("stride", [1, 7, 64, 10_000])
def test_feed_reports_exact_document_offsets(session, stride):
    """Stride 10 000 closes all four documents in one chunk."""
    count = 4
    stream = _stream(count)
    documents = []
    feed = session.prepare(TITLES).open_feed(on_document=documents.append)
    returned = []
    for chunk in _chunks(stream, stride):
        returned.extend(feed.feed(chunk))
    summary = feed.finish()

    assert isinstance(summary, FeedResult)
    assert returned == documents
    # Exact framing: each document spans [start, end) with the separator
    # byte charged to the gap, and resume_offset rides the last boundary.
    unit = len(_doc(0).encode("utf-8")) + 1
    for i, document in enumerate(documents):
        assert isinstance(document, DocumentResult)
        assert document.index == i
        assert document.start_offset == i * unit
        assert document.end_offset == (i + 1) * unit - 1
    assert summary.documents_completed == count
    assert summary.resume_offset == documents[-1].end_offset
    assert summary.bytes_fed == len(stream)
    assert feed.result is summary


def test_feed_charges_no_gap_between_unseparated_documents(session):
    stream = (_doc(0) + _doc(1)).encode("utf-8")  # no separator at all
    documents = []
    with session.prepare(TITLES).open_feed(on_document=documents.append) as feed:
        assert len(feed.feed(stream)) == 2
    assert documents[0].end_offset == len(_doc(0).encode("utf-8"))
    assert documents[1].start_offset == documents[0].end_offset
    assert documents[1].end_offset == len(stream)


def test_feed_accepts_str_chunks_with_byte_offsets(session):
    stream = _stream(2).decode("utf-8")
    documents = []
    with session.prepare(TITLES).open_feed(on_document=documents.append) as feed:
        for i in range(0, len(stream), 5):
            feed.feed(stream[i : i + 5])
    assert len(documents) == 2
    assert documents[1].end_offset == len(stream.encode("utf-8")) - 1


def test_feed_buffers_return_to_floor_after_every_document(session):
    """The bounded-memory story over unbounded streams: live bytes are back
    at the zero floor at every boundary and per-document logical peaks do
    not drift."""
    count = 6
    peaks = []
    floors = []

    def on_document(document):
        floors.append(document.result.stats.buffered_bytes_current)
        peaks.append(document.result.stats.peak_buffered_bytes)

    with session.prepare(TITLES).open_feed(on_document=on_document) as feed:
        for chunk in _chunks(_stream(count), 13):
            feed.feed(chunk)
    assert floors == [0] * count
    assert len(set(peaks)) == 1, "identical documents must have identical peaks"


def test_feed_rejects_use_after_finish_and_close(session):
    feed = session.prepare(TITLES).open_feed()
    feed.feed(_stream(1))
    feed.finish()
    with pytest.raises(RuntimeError, match="cannot feed"):
        feed.feed(b"<bib/>")
    assert feed.finish() is feed.result  # idempotent
    closed = session.prepare(TITLES).open_feed()
    closed.close()
    with pytest.raises(RuntimeError, match="cannot finish"):
        closed.finish()
    closed.close()  # idempotent


# ---------------------------------------------------------------------------
# Satellite 1: truncated UTF-8 at end of input


@pytest.mark.parametrize("stride", [1, 3, 1000])
def test_truncated_utf8_at_eof_is_a_located_error(session, stride):
    # "é" is two bytes; dropping the final byte truncates mid-sequence.
    payload = "<bib><book><title>Café".encode("utf-8")[:-1]
    run = session.prepare(TITLES).open_run()
    for chunk in _chunks(payload, stride):
        run.feed(chunk)
    with pytest.raises(XMLWellFormednessError) as excinfo:
        run.finish()
    message, offset = str(excinfo.value), excinfo.value.offset
    assert "truncated document" in message
    assert "incomplete UTF-8 sequence" in message
    assert offset == len(payload) - 1  # the first byte of the cut sequence


# ---------------------------------------------------------------------------
# Satellite 2: bytes after root close


@pytest.mark.parametrize(
    "trailer",
    [b"<bib><book><title>x</title><author>y</author></book></bib>", b"junk", b"</bib>"],
    ids=["second-document", "bare-text", "stray-close"],
)
def test_after_root_close_errors_single_document(session, trailer):
    """Single-document push mode rejects trailing bytes, pointing at them."""
    document = _doc(0).encode("utf-8")
    run = session.prepare(TITLES).open_run()
    with pytest.raises(XMLWellFormednessError) as excinfo:
        run.feed(document + trailer)
        run.finish()
    run.close()
    assert excinfo.value.offset >= len(document), "the error must point into the trailer"


# ---------------------------------------------------------------------------
# Satellite 3: document-charged offsets in /progress and crash dumps


def test_progress_reports_feed_watermarks(session):
    from repro.obs import serve as _serve

    feed = session.prepare(TITLES).open_feed(resume_from=0)
    stream = _stream(3)
    feed.feed(stream[: len(stream) - 10])
    try:
        entries = [
            entry
            for entry in _serve.progress_snapshot()["runs"]
            if entry.get("mode") == "feed"
        ]
        assert entries, "/progress must list the open feed"
        entry = entries[-1]
        assert entry["documents_completed"] == 2
        assert entry["resume_offset"] == feed.resume_offset
        assert entry["document_start_offset"] == feed.resume_offset + 1
        assert entry["document_offset"] == len(stream) - 10
        # The open document's inner run charges its annotations too.
        doc_entries = [
            e for e in _serve.progress_snapshot()["runs"] if "document_index" in e
        ]
        assert doc_entries and doc_entries[-1]["document_index"] == 2
        assert doc_entries[-1]["document_start_offset"] == feed.resume_offset + 1
    finally:
        feed.close()


def test_crash_dump_charges_offsets_to_the_consuming_document(
    session, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
    feed = session.prepare(TITLES).open_feed()
    good = _stream(2)
    feed.feed(good)
    with pytest.raises(XMLWellFormednessError):
        feed.feed(good + b"<bib></nope>")  # mismatched close inside document 4
    dumps = sorted(tmp_path.glob("*.crash.json"))
    assert len(dumps) == 1
    payload = json.loads(dumps[0].read_text(encoding="utf-8"))
    context = payload["context"]
    assert context["document_index"] == 4
    assert context["document_start_offset"] == 2 * len(good)
    assert context["resume_offset"] == 2 * len(good) - 1
    # The handle survives with the same resume point the dump recorded.
    assert feed.resume_offset == context["resume_offset"]
    from repro.obs.recorder import inspect_crash

    assert "document_start_offset" in inspect_crash(str(dumps[0]))


# ---------------------------------------------------------------------------
# Satellite 4: randomized multi-document boundary fuzz


@pytest.mark.parametrize("seed", [11, 23])
def test_fuzz_concatenated_documents_with_adversarial_splits(session, seed):
    rng = random.Random(seed)
    count = rng.randint(2, 50)
    separator = rng.choice(["", "\n", "  \r\n\t"])
    stream = _stream(count, separator)
    expected = _solo_outputs(session, count)
    unit = len(_doc(0).encode("utf-8")) + len(separator.encode("utf-8"))

    # Cuts before, at and after every boundary byte, plus random filler
    # cuts so inter-boundary chunks vary in size too.
    cuts = {
        point
        for copy in range(1, count + 1)
        for point in (copy * unit - 1, copy * unit, copy * unit + 1)
        if 0 < point < len(stream)
    }
    cuts.update(rng.sample(range(1, len(stream)), 20))
    edges = [0, *sorted(cuts), len(stream)]
    chunks = [stream[a:b] for a, b in zip(edges, edges[1:])]
    assert b"".join(chunks) == stream

    documents = []
    with session.prepare(TITLES).open_feed(on_document=documents.append) as feed:
        for chunk in chunks:
            feed.feed(chunk)

    assert [d.result.output for d in documents] == expected
    solo_peak = session.prepare(TITLES).execute(_doc(0)).stats.peak_buffered_bytes
    for document in documents:
        assert document.result.stats.buffered_bytes_current == 0
        assert document.result.stats.peak_buffered_bytes == solo_peak
    assert feed.result.documents_completed == count


# ---------------------------------------------------------------------------
# Crash-safe resume


def test_resume_from_reported_offset_replays_byte_identically(session):
    count = 5
    stream = _stream(count)
    prepared = session.prepare(TITLES)

    # First run "crashes" (is closed) after two documents.
    first = prepared.open_feed()
    sealed = []
    for chunk in _chunks(stream, 97):
        sealed.extend(first.feed(chunk))
        if len(sealed) >= 2:
            break
    first.close()
    offset = first.resume_offset
    assert offset == sealed[1].end_offset

    # The restart feeds the *same* stream, skipping the processed prefix.
    documents = []
    with prepared.open_feed(
        resume_from=offset, on_document=documents.append
    ) as second:
        for chunk in _chunks(stream, 97):
            second.feed(chunk)
    assert [d.result.output for d in documents] == _solo_outputs(session, count)[2:]
    assert documents[0].start_offset >= offset
    assert second.result.resume_offset == len(stream) - 1


def test_resume_from_skips_a_prefix_inside_one_chunk(session):
    stream = _stream(3)
    boundary = len(_doc(0).encode("utf-8")) + 1
    documents = []
    with session.prepare(TITLES).open_feed(
        resume_from=boundary, on_document=documents.append
    ) as feed:
        feed.feed(stream)
    assert len(documents) == 2
    assert feed.result.resume_offset == len(stream) - 1


# ---------------------------------------------------------------------------
# Heartbeats, options validation, counters


def test_heartbeat_fires_per_interval_with_progress_snapshot(session, monkeypatch):
    assert repro.feeds.HEARTBEAT_INTERVAL_BYTES == 1 << 20
    monkeypatch.setattr(repro.feeds, "HEARTBEAT_INTERVAL_BYTES", 64)
    beats = []
    with session.prepare(TITLES).open_feed(on_heartbeat=beats.append) as feed:
        for chunk in _chunks(_stream(3), 50):
            feed.feed(chunk)
    assert beats, "64B interval over a multi-hundred-byte stream must beat"
    assert all(beat["mode"] == "feed" for beat in beats)
    fed = [beat["bytes_fed"] for beat in beats]
    assert fed == sorted(fed)
    # One beat per interval crossing, not one per chunk.
    assert len(beats) <= len(_stream(3)) // 64 + 1


def test_resume_from_validation(session):
    with pytest.raises(ValueError, match="resume_from"):
        session.prepare(TITLES).open_feed(resume_from=-1)


def test_feed_runtime_counters_advance(session):
    from repro.obs import global_registry

    before = global_registry().snapshot()
    with session.prepare(TITLES).open_feed() as feed:
        feed.feed(_stream(3))
    after = global_registry().snapshot()
    assert after["repro.feed.documents.total"] == before["repro.feed.documents.total"] + 3
    assert after["repro.feeds.total"] == before["repro.feeds.total"] + 1


def test_flight_recorder_notes_doc_boundaries(session):
    from repro.obs.recorder import RECORDER

    with session.prepare(TITLES).open_feed() as feed:
        feed.feed(_stream(2))
    kinds = [entry["kind"] for entry in RECORDER.snapshot()]
    assert "feed-begin" in kinds
    assert kinds.count("doc-boundary") >= 2
    assert "feed-finish" in kinds
    boundaries = [
        entry for entry in RECORDER.snapshot() if entry["kind"] == "doc-boundary"
    ]
    assert boundaries[-1]["offset"] == feed.result.resume_offset
