"""One run object behind every shape: telemetry, forensics, ledger.

Solo runs, multi-query passes, feeds and the subscription hub all execute
through :class:`~repro.engine.engine.RunHandle`, so what happens around the
executors -- the global run counters, the crash dump, who closes the
governor and what an aborted document leaves in its ledger -- is the same
by construction.  These tests check it anyway, shape by shape.
"""

import contextlib
import errno
import json

import pytest

from repro import ExecutionOptions, FluxSession
from repro.core.api import load_dtd
from repro.engine.buffers import EventBuffer
from repro.engine.executor import StreamExecutor
from repro.obs.metrics import global_registry
from repro.serve import SubscriptionHub
from repro.storage import MemoryGovernor, SpillError
from repro.xmlstream.errors import XMLWellFormednessError
from repro.xmlstream.events import EndElement

BIB_DTD = """
<!ELEMENT bib (book)*>
<!ELEMENT book (title,author+)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
"""

TITLES = "<titles>{ for $b in $ROOT/bib/book return {$b/title} }</titles>"
# All authors before all titles: every title waits in a buffer until </bib>.
REORDERED = (
    "<r><a>{ for $b in $ROOT/bib/book return {$b/author} }</a>"
    "<t>{ for $b in $ROOT/bib/book return {$b/title} }</t></r>"
)


def _schema():
    return load_dtd(BIB_DTD, root_element="bib")


def _doc(books: int = 2) -> str:
    return "<bib>%s</bib>" % "".join(
        f"<book><title>Title number {i}</title><author>A{i}</author></book>" for i in range(books)
    )


# ---------------------------------------------------------------------------
# Telemetry: every finished seat is one run, whatever the shape

RUN_COUNTERS = ("repro.runs.total", "repro.run.input_bytes.total", "repro.run.output_bytes.total")


def _run_counters():
    snapshot = global_registry().snapshot()
    return [snapshot[name] for name in RUN_COUNTERS]


def _delta(before):
    return [now - then for now, then in zip(_run_counters(), before)]


def test_every_finished_seat_is_counted_once_in_every_shape():
    document = _doc()
    size = len(document)
    with FluxSession(_schema()) as session:
        before = _run_counters()
        solo = session.prepare(TITLES).execute(document)
        assert _delta(before) == [1, size, solo.stats.output_bytes]

        before = _run_counters()
        both = session.prepare_many({"titles": TITLES, "reordered": REORDERED}).execute(document)
        written = sum(result.stats.output_bytes for result in both.results.values())
        assert _delta(before) == [2, 2 * size, written]

    before = _run_counters()
    with SubscriptionHub(_schema()) as hub:
        subscription = hub.subscribe(TITLES)
        assert hub.feed(document) == 1
    (result,) = subscription.results()
    assert result.output == solo.output
    assert _delta(before) == [1, size, result.stats.output_bytes]


def test_traced_multi_query_pass_reaches_the_obs_dump(tmp_path, monkeypatch):
    dump = tmp_path / "obs.jsonl"
    monkeypatch.setenv("REPRO_OBS_JSON", str(dump))
    with FluxSession(_schema()) as session:
        session.prepare(TITLES).execute(_doc())
        run = session.prepare_many([TITLES, REORDERED]).execute(_doc())
    assert run.trace is not None
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    assert [r["mode"] for r in records if r["record"] == "run"] == ["pull", "multiquery"]


# ---------------------------------------------------------------------------
# Forensics: one crash dump per failed run, naming the failing seat


def _crash(directory):
    (path,) = directory.glob("*.crash.json")
    return json.loads(path.read_text(encoding="utf-8"))


def _fail_plan(monkeypatch, plan):
    """Make the executor of ``plan`` (and only it) raise on its next batch."""
    process_batch = StreamExecutor.process_batch

    def failing(self, batch):
        if self.plan is plan:
            raise RuntimeError("injected executor failure")
        process_batch(self, batch)

    monkeypatch.setattr(StreamExecutor, "process_batch", failing)


def test_malformed_hub_document_writes_a_serve_crash_dump(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
    good = _doc().encode("utf-8") + b"\n"
    hub = SubscriptionHub(_schema())
    first = hub.subscribe(TITLES, name="first")
    second = hub.subscribe(REORDERED, name="second")
    with pytest.raises(XMLWellFormednessError):
        hub.feed(good + b"<bib><book></nope>")
    dump = _crash(tmp_path)
    assert dump["mode"] == "serve"
    assert dump["queries"] == ["first", "second"]
    assert dump["context"]["document_index"] == 1
    assert dump["context"]["document_start_offset"] == len(good)
    assert "failed_seat" not in dump["context"]  # the scan failed, no executor did
    assert (first.state, second.state) == ("closed", "closed")


def test_failing_hub_seat_is_named_in_the_crash_dump(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
    with MemoryGovernor(1 << 20) as governor:
        hub = SubscriptionHub(_schema(), governor=governor)
        hub.subscribe(TITLES, name="healthy")
        broken = hub.subscribe(REORDERED, name="broken")
        _fail_plan(monkeypatch, broken._engine.plan)
        with pytest.raises(RuntimeError, match="injected"):
            hub.feed(_doc())
        assert governor.resident_bytes == 0
    dump = _crash(tmp_path)
    assert dump["mode"] == "serve"
    assert dump["queries"] == ["healthy", "broken"]
    assert dump["context"]["failed_seat"] == "broken"
    assert dump["context"]["document_index"] == 0
    assert hub.progress()["state"] == "closed"


def test_failing_multi_query_seat_is_named_in_the_crash_dump(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
    with FluxSession(_schema()) as session:
        queries = session.prepare_many({"titles": TITLES, "reordered": REORDERED})
        _fail_plan(monkeypatch, queries.engines["reordered"].plan)
        with pytest.raises(RuntimeError, match="injected"):
            queries.execute(_doc())
    dump = _crash(tmp_path)
    assert dump["mode"] == "multiquery"
    assert dump["queries"] == ["titles", "reordered"]
    assert dump["context"] == {"failed_seat": "reordered"}


# ---------------------------------------------------------------------------
# The ledger: a borrowed governor survives a failure, an owned one is closed

#: Small enough that REORDERED's buffered titles spill on the long document.
BOUNDED = ExecutionOptions(memory_budget=512)
LONG = _doc(40)
BROKEN = LONG[: -len("</book></bib>")] + "</nope>"


def _chunks(document):
    """Small chunks, so a late error finds earlier batches executed."""
    return [document[start : start + 64] for start in range(0, len(document), 64)]


def _prepare(session, query):
    """``(prepared, options)``: a query of ``session`` borrowing its governor;
    without a session, of an unbounded one, run under per-run ``BOUNDED``
    options so the run owns its governor."""
    options = BOUNDED if session is None else None
    session = session or FluxSession(_schema())
    if isinstance(query, dict):
        return session.prepare_many(query), options
    return session.prepare(query), options


def _solo_push(document, session):
    prepared, options = _prepare(session, REORDERED)
    with prepared.open_run(options=options) as run:
        for chunk in _chunks(document):
            run.feed(chunk)
    return run.result.output


def _feed(document, session):
    outputs = []
    prepared, options = _prepare(session, REORDERED)
    with prepared.open_feed(
        options=options,
        on_document=lambda sealed: outputs.append(sealed.result.output),
    ) as feed:
        for chunk in _chunks(_doc() + "\n" + document):
            feed.feed(chunk)
    return outputs[-1]


def _multi(document, session):
    queries, options = _prepare(session, {"titles": TITLES, "reordered": REORDERED})
    return queries.execute(_chunks(document), options=options)["reordered"].output


def _hub(document, governor):
    with SubscriptionHub(_schema(), options=BOUNDED, governor=governor) as hub:
        hub.subscribe(TITLES)
        subscription = hub.subscribe(REORDERED)
        for chunk in _chunks(_doc() + "\n" + document):
            hub.feed(chunk)
    return list(subscription.results())[-1].output


SHAPES = pytest.mark.parametrize(
    "drive", [_solo_push, _feed, _multi, _hub], ids=["push", "feed", "multiquery", "hub"]
)


@contextlib.contextmanager
def _lender(drive):
    """``(what the shape borrows from, its ledger reader)``: a bounded
    session for every prepared shape, a governor for the hub."""
    if drive is not _hub:
        with FluxSession(_schema(), options=BOUNDED) as session:
            yield session, session.memory_telemetry
    else:
        with MemoryGovernor(BOUNDED.memory_budget) as governor:
            yield governor, governor.telemetry


@SHAPES
def test_failure_under_a_borrowed_governor_balances_its_ledger(drive):
    expected = FluxSession(_schema()).prepare(REORDERED).execute(LONG).output
    with _lender(drive) as (lender, telemetry):
        with pytest.raises(XMLWellFormednessError):
            drive(BROKEN, lender)
        ledger = telemetry()
        assert ledger["spill_count"] > 0, "the failure must hit with pages spilled"
        assert (ledger["resident_bytes"], ledger["spill_live_bytes"]) == (0, 0)
        # Borrowed means it survives the failed run: the next one uses it.
        assert drive(LONG, lender) == expected
        ledger = telemetry()
        assert (ledger["resident_bytes"], ledger["spill_live_bytes"]) == (0, 0)


@SHAPES
def test_clean_finish_closes_the_governor_the_run_owned(drive, monkeypatch):
    created = []
    construct = MemoryGovernor.__init__

    def recording(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(MemoryGovernor, "__init__", recording)
    expected = FluxSession(_schema()).prepare(REORDERED).execute(LONG).output
    assert drive(LONG, None) == expected
    (governor,) = created  # one site decides: the run (or the stream) made one
    assert governor.spill_count > 0
    assert not governor.store.is_open


# ---------------------------------------------------------------------------
# Spill I/O failure: typed, attributed, and the ledger still balances


@pytest.mark.parametrize(
    "fault,code", [({"write": 2}, errno.ENOSPC), ({"read": 1}, errno.EIO)], ids=["enospc", "short-read"]
)
@SHAPES
def test_spill_io_failure_is_typed_and_leaves_the_lender_reusable(drive, fault, code, spill_faults):
    """A disk that fills up at the second page write, or short reads from
    the first page fault on (inside the handler that reads the titles back),
    abort the run with a SpillError -- no result -- and tearing it down
    still leaves nothing resident or on disk; once the fault clears, the
    same governor serves an identical run."""
    expected = FluxSession(_schema()).prepare(REORDERED).execute(LONG).output
    with _lender(drive) as (lender, telemetry):
        spill_faults(**fault)
        with pytest.raises(SpillError) as failure:
            drive(LONG, lender)
        assert failure.value.errno == code
        assert failure.value.owner.startswith("$") and failure.value.page_bytes > 0
        ledger = telemetry()
        assert (ledger["resident_bytes"], ledger["spill_live_bytes"]) == (0, 0)
        spill_faults()
        assert drive(LONG, lender) == expected
        ledger = telemetry()
        assert (ledger["resident_bytes"], ledger["spill_live_bytes"]) == (0, 0)


def test_a_spill_failure_while_aborting_does_not_mask_the_runs_error(spill_faults, monkeypatch):
    """An executor error mid-batch leaves appends uncharged; charging them
    for the crash dump must evict, and the disk is full by then.  The run
    still fails with its own error and balances the ledger."""
    append = EventBuffer.append
    titles = []

    def failing(self, event):
        append(self, event)
        if event == EndElement("title"):
            titles.append(event)
            if len(titles) == 3:
                spill_faults(write=1)
                raise RuntimeError("injected executor failure")

    monkeypatch.setattr(EventBuffer, "append", failing)
    # One batch, titles longer than the budget: admitting what the failing
    # batch appended must evict.
    document = "<bib>%s</bib>" % "".join(
        f"<book><title>{'t' * 600}{i}</title><author>A{i}</author></book>" for i in range(5)
    )
    with _lender(_solo_push) as (session, telemetry):
        with pytest.raises(RuntimeError, match="injected"):
            session.prepare(REORDERED).execute(document)
        assert (telemetry()["resident_bytes"], telemetry()["spill_live_bytes"]) == (0, 0)
