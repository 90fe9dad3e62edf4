"""Tests for the bounded-memory storage subsystem.

Covers the codec, the spill store, the governor's budget/LRU mechanics,
the equivalence of governed and ungoverned :class:`EventBuffer` objects,
and the end-to-end guarantee: with a budget below the unbounded peak,
XMark runs spill, resident memory stays capped, and output is
byte-identical to in-memory execution in every sink mode.
"""

import errno
import io
import random
import struct

import pytest

from repro import ExecutionOptions, FluxSession, load_dtd
from repro.engine.buffers import BufferManager
from repro.engine.stats import RunStatistics
from repro.storage import (
    MemoryGovernor,
    SpillError,
    SpillStore,
    decode_events,
    encode_events,
    parse_memory_budget,
)
from repro.storage import spill
from repro.xmark.dtd import XMARK_DTD_SOURCE
from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmlstream.events import (
    Characters,
    EndElement,
    RawContent,
    StartDocument,
    StartElement,
)


# ---------------------------------------------------------------------------
# Codec


def test_codec_roundtrip_all_event_kinds():
    events = [
        StartElement("site"),
        StartElement("item", (("id", "i1"), ("featured", "yes"))),
        Characters("hello, world"),
        Characters(""),
        EndElement("item"),
        StartElement("名前", (("ключ", "значение"),)),
        Characters("mixed ☃ unicode & <escapes> 😀"),
        Characters("nul \x00 and a lone surrogate \ud800 and \udfff"),
        StartElement("e", (("k", "\ud800"), ("", ""))),
        EndElement("e"),
        RawContent("<p>text<q>more</q></p>tail", 7),
        EndElement("名前"),
        EndElement("site"),
    ]
    assert decode_events(encode_events(events)) == events
    assert decode_events(encode_events([])) == []


def test_codec_roundtrip_preserves_attribute_order():
    event = StartElement("a", (("z", "1"), ("a", "2")))
    (decoded,) = decode_events(encode_events([event]))
    assert decoded.attributes == (("z", "1"), ("a", "2"))


def test_codec_long_text_widens_the_length_array():
    short = [StartElement("a"), Characters("x" * 200), EndElement("a")]
    for text in ("x" * 300, "y" * 70000):  # two- and four-byte lengths
        page = [*short, Characters(text)]
        assert decode_events(encode_events(page)) == page
    # A page of short strings spends one byte per length.
    assert len(encode_events(short)) == 5 + 3 + 3 + len("a" * 2 + "x" * 200)


def _random_text(rng):
    alphabet = "ab <&>\"' \t\n\x00é☃😀\ud800􏰀"
    size = rng.choice((0, 1, 3, 17, 255, 256, 300))
    return "".join(rng.choice(alphabet) for _ in range(size))


def _random_events(rng, count):
    events = []
    for _ in range(count):
        name = rng.choice(("a", "item", "名前", "x" * 300))
        attributes = tuple((_random_text(rng)[:8] or "k", _random_text(rng)) for _ in range(rng.randrange(3)))
        events.append(StartElement(name, attributes))
        events.append(Characters(_random_text(rng)))
        events.append(EndElement(name))
    return events


@pytest.mark.parametrize("seed", range(20))
def test_codec_roundtrip_property(seed):
    rng = random.Random(seed)
    events = _random_events(rng, rng.randrange(0, 60))
    if seed % 5 == 0:
        events.append(Characters("z" * (64 * 1024 + seed)))  # text over 64 KiB
    decoded = decode_events(encode_events(events))
    assert decoded == events
    # Tags are shared within a page; events are immutable, so that is exact.
    starts = [e for e in decoded if isinstance(e, StartElement) and not e.attributes]
    assert len({id(e) for e in starts}) == len({e.name for e in starts})


def test_codec_rejects_document_events():
    with pytest.raises(TypeError, match="cannot be spilled"):
        encode_events([StartDocument()])


_PAGE = encode_events([StartElement("a", (("k", "v"),)), Characters("text"), EndElement("a")])


@pytest.mark.parametrize(
    "payload,message",
    [
        (b"", "truncated header"),
        (b"\xff", "truncated header"),
        (_PAGE[:4], "truncated header"),
        (struct.pack("<IB", 1, ord("B")) + b"\x07", "unknown record kind"),
        (struct.pack("<IB", 0, ord("q")), "unknown length typecode"),
        (_PAGE[:9], "truncated record section"),
        (_PAGE[:-1], "do not match the payload"),
        (_PAGE + b"x", "do not match the payload"),
        (struct.pack("<IB", 1, ord("B")) + b"\x04\x00\x00", "attributes without a start tag"),
        (struct.pack("<IB", 1, ord("B")) + b"\x03\x01\xff", "utf-8"),
    ],
    ids=[
        "empty",
        "one-byte",
        "short-header",
        "unknown-kind",
        "unknown-typecode",
        "truncated-kinds",
        "payload-too-short",
        "payload-too-long",
        "dangling-attribute",
        "invalid-utf8",
    ],
)
def test_codec_rejects_corrupt_payload(payload, message):
    with pytest.raises(ValueError, match=message):
        decode_events(payload)


# ---------------------------------------------------------------------------
# Spill store


def test_spill_store_roundtrip_and_accounting():
    store = SpillStore()
    assert not store.is_open
    first = store.write(b"abcdef")
    second = store.write(b"0123456789")
    assert store.is_open
    assert store.read(second) == b"0123456789"
    assert store.read(first) == b"abcdef"
    assert store.bytes_written == 16
    assert store.bytes_read == 16
    assert store.pages_written == 2
    store.free(first)
    assert store.live_bytes == 10
    store.close()
    store.close()  # idempotent


def test_spill_store_read_before_write_fails():
    store = SpillStore()
    from repro.storage import PageHandle

    with pytest.raises(RuntimeError, match="no backing file"):
        store.read(PageHandle(0, 4))


def test_spill_store_write_failure_is_typed_and_changes_nothing(spill_faults):
    spill_faults(write=2)
    store = SpillStore()
    first = store.write(b"abc", "$x")
    with pytest.raises(SpillError) as failure:
        store.write(b"defg", "$y")
    error = failure.value
    assert isinstance(error, OSError)
    assert (error.errno, error.owner, error.page_bytes) == (errno.ENOSPC, "$y", 4)
    assert "$y" in str(error) and "4-byte page" in str(error)
    assert (store.bytes_written, store.pages_written, store.live_bytes) == (3, 1, 3)
    spill_faults()  # space is back
    second = store.write(b"hij", "$y")  # the failed write left no hole
    assert (store.read(first), store.read(second)) == (b"abc", b"hij")
    store.close()


def test_spill_store_short_read_is_typed(spill_faults):
    spill_faults(read=1)
    store = SpillStore()
    handle = store.write(b"abcdef", "$x")
    with pytest.raises(SpillError) as failure:
        store.read(handle, "$x")
    assert (failure.value.errno, failure.value.owner, failure.value.page_bytes) == (errno.EIO, "$x", 6)
    assert store.bytes_read == 0
    spill_faults()
    assert store.read(handle, "$x") == b"abcdef"
    store.close()


# ---------------------------------------------------------------------------
# Budget parsing


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1048576", 1048576),
        ("64k", 64 * 1024),
        ("64K", 64 * 1024),
        ("32m", 32 * 1024**2),
        ("2g", 2 * 1024**3),
        ("1.5k", 1536),
    ],
)
def test_parse_memory_budget_accepts_suffixes(text, expected):
    assert parse_memory_budget(text) == expected


@pytest.mark.parametrize("text", ["", "lots", "-4k", "0", "inf", "1e999", "nan"])
def test_parse_memory_budget_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_memory_budget(text)


# ---------------------------------------------------------------------------
# Governed buffer vs plain buffer equivalence


def _sample_events(count=40):
    events = []
    for index in range(count):
        events.append(StartElement("item", (("id", f"i{index}"),)))
        events.append(Characters(f"value-{index} " * 3))
        events.append(EndElement("item"))
    return events


def _paged_manager(budget=None, page_bytes=64):
    governor = MemoryGovernor(budget, page_bytes=page_bytes)
    stats = RunStatistics()
    manager = BufferManager(stats, governor=governor)
    return governor, stats, manager


def test_a_plain_buffer_is_one_page_and_a_governed_one_reads_its_pages_into_a_fresh_list():
    events = _sample_events(10)
    plain = BufferManager().create_buffer("$x")
    plain.extend(events)
    assert plain.events is plain.events  # the one page's own list, no copy
    assert [page.events for page in plain._pages] == [plain.events]
    assert plain.events == events

    governor, _, manager = _paged_manager(page_bytes=64)
    paged = manager.create_buffer("$x")
    paged.extend(events)
    first = paged.events
    assert len(paged._pages) >= 2
    assert first == events
    assert first is not paged.events  # a fresh list per read
    first.clear()
    assert paged.events == events  # and the pages do not share it
    governor.close()


def test_paged_buffer_matches_plain_buffer_unbounded():
    events = _sample_events()
    plain_stats = RunStatistics()
    plain_manager = BufferManager(plain_stats)
    plain = plain_manager.create_buffer("$x")
    plain.extend(events)
    plain_manager.flush()

    governor, paged_stats, manager = _paged_manager()
    paged = manager.create_buffer("$x")
    paged.extend(events)

    assert len(paged.events) == len(plain.events)
    assert list(paged) == list(plain)
    assert paged.events == plain.events
    assert paged.cost_bytes == plain.cost_bytes
    assert paged_stats.peak_buffered_bytes == plain_stats.peak_buffered_bytes
    assert paged_stats.peak_buffered_events == plain_stats.peak_buffered_events
    assert paged_stats.peak_resident_bytes == plain_stats.peak_resident_bytes
    governor.close()


def test_paged_buffer_materialization_matches_plain():
    events = _sample_events(10)
    plain = BufferManager().create_buffer()
    plain.extend(events)
    governor, _, manager = _paged_manager(budget=128, page_bytes=64)
    paged = manager.create_buffer()
    paged.extend(events)
    manager.flush()
    assert paged.spilled_pages > 0  # the comparison crosses the disk boundary

    assert paged.events == plain.events
    assert list(paged) == plain.events
    governor.close()


def test_append_after_release_is_rejected_for_paged_buffer():
    governor, _, manager = _paged_manager()
    buffer = manager.create_buffer("$x")
    buffer.release()
    with pytest.raises(RuntimeError, match="already released"):
        buffer.append(StartElement("a"))
    governor.close()


# ---------------------------------------------------------------------------
# Governor mechanics


def test_budget_forces_spills_and_caps_residency():
    events = _sample_events()
    governor, stats, manager = _paged_manager(budget=256, page_bytes=64)
    buffer = manager.create_buffer("$x")
    buffer.extend(events)
    manager.flush()

    assert stats.spill_count > 0
    assert stats.peak_resident_bytes <= 256
    assert governor.peak_resident_bytes <= 256
    assert buffer.resident_bytes <= 256
    assert buffer.cost_bytes > 256  # the logical contents exceed the budget
    # Logical accounting is untouched by spilling.
    assert stats.buffered_bytes_current == buffer.cost_bytes
    # Contents are intact across the spill boundary.
    assert list(buffer) == events
    governor.close()


def test_lru_evicts_coldest_buffer_first():
    governor, _, manager = _paged_manager(budget=10_000, page_bytes=64)
    cold = manager.create_buffer("$cold")
    cold.extend(_sample_events(10))
    manager.flush()
    hot = manager.create_buffer("$hot")
    hot.extend(_sample_events(10))
    manager.flush()
    assert cold.spilled_pages == 0 and hot.spilled_pages == 0

    # Shrink the budget indirectly: fill a third buffer until eviction.
    governor.budget_bytes = governor.resident_bytes  # the next admission must evict
    filler = manager.create_buffer("$filler")
    filler.extend(_sample_events(4))
    manager.flush()

    # The buffers that have not been touched longest lose pages first.
    assert cold.spilled_pages > 0
    assert cold.spilled_pages >= hot.spilled_pages
    governor.close()


def test_reading_spilled_pages_does_not_grow_residency():
    governor, stats, manager = _paged_manager(budget=256, page_bytes=64)
    buffer = manager.create_buffer("$x")
    buffer.extend(_sample_events())
    manager.flush()
    resident_before = governor.resident_bytes
    faults_before = stats.page_faults

    assert list(buffer)  # full scan decodes every spilled page
    assert governor.resident_bytes == resident_before
    assert stats.page_faults > faults_before
    assert stats.spilled_bytes_read > 0
    governor.close()


def test_release_with_spilled_pages_frees_full_logical_totals():
    governor, stats, manager = _paged_manager(budget=256, page_bytes=64)
    buffer = manager.create_buffer("$x")
    buffer.extend(_sample_events())
    manager.flush()
    assert buffer.spilled_pages > 0

    buffer.release()
    assert stats.buffered_events_current == 0
    assert stats.buffered_bytes_current == 0
    assert stats.resident_bytes_current == 0
    assert governor.resident_bytes == 0
    assert governor.store.live_bytes == 0
    assert manager.live_buffers == 0
    buffer.release()  # idempotent
    assert manager.live_buffers == 0
    governor.close()


def test_force_seal_handles_budget_smaller_than_a_page():
    events = _sample_events(20)
    governor, stats, manager = _paged_manager(budget=32, page_bytes=4096)
    buffer = manager.create_buffer("$x")
    buffer.extend(events)
    manager.flush()
    # Even open tail pages are evicted once sealed victims run out.
    assert stats.peak_resident_bytes <= 32
    assert stats.spill_count > 0
    assert list(buffer) == events
    governor.close()


def test_one_governor_shared_by_two_managers():
    governor = MemoryGovernor(256, page_bytes=64)
    stats_a, stats_b = RunStatistics(), RunStatistics()
    manager_a = BufferManager(stats_a, governor=governor)
    manager_b = BufferManager(stats_b, governor=governor)
    buffer_a, buffer_b = manager_a.create_buffer("$a"), manager_b.create_buffer("$b")
    buffer_a.extend(_sample_events(20))
    manager_a.flush()
    buffer_b.extend(_sample_events(20))
    manager_b.flush()

    # The budget caps the *sum*; spills are attributed per-run.
    assert governor.peak_resident_bytes <= 256
    assert stats_a.resident_bytes_current + stats_b.resident_bytes_current <= 256
    assert governor.spill_count == stats_a.spill_count + stats_b.spill_count
    assert stats_a.spill_count > 0  # the colder of the two lost pages
    telemetry = governor.telemetry()
    assert telemetry["budget_bytes"] == 256
    assert telemetry["spill_count"] == governor.spill_count
    governor.close()


def test_governor_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        MemoryGovernor(0)
    with pytest.raises(ValueError):
        MemoryGovernor(-1)


_LEDGER_FIELDS = (
    "buffered_events_current",
    "buffered_bytes_current",
    "peak_buffered_events",
    "peak_buffered_bytes",
    "total_buffered_events",
)
_OWNER_FIELDS = (
    "variable",
    "live_bytes",
    "live_events",
    "peak_bytes",
    "at_peak_bytes",
    "at_peak_events",
    "total_bytes",
    "total_events",
    "buffers_created",
)


def _logical_ledger(stats):
    totals = [getattr(stats, field) for field in _LEDGER_FIELDS]
    owners = [[row[field] for field in _OWNER_FIELDS] for row in stats.buffer_attribution]
    return totals, owners


@pytest.mark.parametrize("seed", range(16))
def test_per_batch_admission_matches_the_plain_buffer(seed):
    """Random appends over several buffers, flushed at random batch cuts and
    released at random points: the paged buffers' logical totals, peaks and
    at-peak attribution equal the plain buffers' after every flush, and the
    resident peak never exceeds the budget -- including budgets smaller
    than one page."""
    rng = random.Random(seed)
    page_bytes = rng.choice((16, 64, 256))
    budget = (None, page_bytes // 2, page_bytes * 3, rng.randrange(1, 1500))[seed % 4]
    plain_stats = RunStatistics()
    plain_manager = BufferManager(plain_stats)
    governor, paged_stats, paged_manager = _paged_manager(budget, page_bytes)
    live = {}

    def check():
        assert _logical_ledger(paged_stats) == _logical_ledger(plain_stats)
        if budget is not None:
            assert governor.resident_bytes <= budget
            assert paged_stats.peak_resident_bytes <= budget
            assert governor.peak_resident_bytes <= budget

    for _ in range(rng.randrange(30, 90)):
        roll = rng.random()
        if roll < 0.1 and live:
            name = rng.choice(sorted(live))
            for buffer in live.pop(name):
                buffer.release()
            check()
        elif roll < 0.3:
            plain_manager.flush()
            paged_manager.flush()
            check()
        else:
            name = rng.choice(("$a", "$b", "$c"))
            if name not in live:
                live[name] = (plain_manager.create_buffer(name), paged_manager.create_buffer(name))
            events = _random_events(rng, rng.randrange(1, 4))
            for buffer in live[name]:
                buffer.extend(events)
    plain_manager.flush()  # a paged read flushes its manager; a plain read does not
    for plain, paged in live.values():
        assert paged.events == plain.events
        assert len(paged.events) == len(plain.events)
    check()
    for plain, paged in live.values():
        plain.release()
        paged.release()
    check()
    assert (governor.resident_bytes, governor.store.live_bytes) == (0, 0)
    assert paged_stats.resident_bytes_current == 0
    governor.close()


def test_a_failed_release_flush_abandons_its_batch_and_every_buffer_still_frees(spill_faults):
    """A full disk fails the flush a release triggers.  The released buffer
    is freed anyway, and the rest of the batch is abandoned (the run is
    aborting), so the remaining releases have nothing to admit and cannot
    fail again."""
    spill_faults(write=1)
    governor, stats, manager = _paged_manager(budget=256, page_bytes=64)
    first = manager.create_buffer("$first")
    first.extend(_sample_events())  # not charged yet
    second = manager.create_buffer("$second")
    second.extend(_sample_events())
    gone = manager.create_buffer("$gone")
    gone.append(StartElement("a"))
    with pytest.raises(SpillError) as failure:
        gone.release()  # its flush admits $first's pages, which must evict
    assert (failure.value.errno, failure.value.owner) == (errno.ENOSPC, "$first")
    assert failure.value.page_bytes > 0
    assert manager.live_buffers == 2
    assert governor.resident_bytes == stats.resident_bytes_current == first.resident_bytes
    second.release()
    first.release()
    assert (governor.resident_bytes, governor.store.live_bytes) == (0, 0)
    assert (stats.buffered_bytes_current, stats.resident_bytes_current) == (0, 0)
    assert manager.live_buffers == 0
    governor.close()


# ---------------------------------------------------------------------------
# End-to-end: spill-vs-in-memory byte-identical output, all sink modes


@pytest.fixture(scope="module")
def xmark_setup():
    dtd = load_dtd(XMARK_DTD_SOURCE, root_element="site")
    document = generate_document(config_for_scale(0.05, seed=23))
    return dtd, document


@pytest.mark.parametrize("query", ["Q1", "Q8", "Q13"])
def test_bounded_output_identical_across_all_sink_modes(xmark_setup, query):
    dtd, document = xmark_setup
    unbounded = FluxSession(dtd).prepare(BENCHMARK_QUERIES[query]).execute(document)
    peak = unbounded.stats.peak_buffered_bytes
    budget = max(peak // 2, 1024)

    prepared = FluxSession(dtd).prepare(BENCHMARK_QUERIES[query])
    options = ExecutionOptions(memory_budget=budget)

    collected = prepared.execute(document, options=options)
    assert collected.output == unbounded.output
    assert collected.stats.peak_resident_bytes <= budget

    sink = io.StringIO()
    to_sink = prepared.execute(document, sink=sink, options=options)
    assert sink.getvalue() == unbounded.output
    assert to_sink.stats.peak_resident_bytes <= budget

    streaming = prepared.stream(document, options=options)
    assert "".join(streaming) == unbounded.output
    assert streaming.stats.peak_resident_bytes <= budget

    for stats in (collected.stats, to_sink.stats, streaming.stats):
        if budget < peak:
            # The cap binds (Q8's join buffers): every mode must have spilled.
            assert stats.spill_count > 0 and stats.spilled_bytes_written > 0
        else:
            # Zero-buffering queries (Q1/Q13) never touch disk, however tiny
            # the budget.
            assert stats.spill_count == 0

    # The logical (paper) peak is identical to the unbounded run.
    assert collected.stats.peak_buffered_bytes == peak

    # A budget the run never reaches: nothing spills, and the resident
    # high-water mark is exactly the unbounded peak.
    generous = prepared.execute(
        document, options=ExecutionOptions(memory_budget=peak * 4 + 64 * 1024)
    )
    assert generous.output == unbounded.output
    assert generous.stats.spill_count == 0
    assert generous.stats.peak_resident_bytes == peak


def test_bounded_q8_actually_spills(xmark_setup):
    """Guard the guard: Q8's budget really is below its unbounded peak."""
    dtd, document = xmark_setup
    unbounded = FluxSession(dtd).prepare(BENCHMARK_QUERIES["Q8"]).execute(document)
    assert unbounded.stats.peak_buffered_bytes // 2 > 1024


def test_a_handler_that_loops_over_a_paged_buffer_and_reads_it_faults_each_page_once():
    """``$p``'s loop and its direct reads share one decode of its spilled pages."""
    schema = load_dtd(
        "<!ELEMENT r (p*)> <!ELEMENT p (a*, c*, b)> <!ELEMENT a (#PCDATA)> "
        "<!ELEMENT c (#PCDATA)> <!ELEMENT b (#PCDATA)>",
        root_element="r",
    )
    prepared = FluxSession(schema).prepare(
        "<o>{ for $p in /r/p return <x>{$p/b}{ for $a in $p/a where $a = $p/c return <y/> }</x> }</o>"
    )
    pad = "x" * 40
    document = "<r>%s</r>" % "".join(
        "<p>%s%s<b>b%d</b></p>"
        % (
            "".join(f"<a>{p}{a % 7}{pad}</a>" for a in range(40)),
            "".join(f"<c>{p}{c}{pad}</c>" for c in range(14)),
            p,
        )
        for p in range(3)
    )
    unbounded = prepared.execute(document)
    bounded = prepared.execute(document, options=ExecutionOptions(memory_budget=300))
    stats = bounded.stats
    assert bounded.output == unbounded.output
    assert bounded.output.count("<y/>") == 3 * 40
    assert stats.spill_count > 0
    assert stats.page_faults == stats.spill_count
    assert stats.spilled_bytes_read == stats.spilled_bytes_written


def test_spilling_a_lone_surrogate_matches_the_unbounded_run():
    """``&#xD800;`` is a lone surrogate in the text; UTF-8 cannot carry it,
    so spilling it used to raise UnicodeEncodeError under a budget."""
    schema = load_dtd(
        "<!ELEMENT r (p*)> <!ELEMENT p (a*, b)> <!ELEMENT a (#PCDATA)> <!ELEMENT b (#PCDATA)>",
        root_element="r",
    )
    prepared = FluxSession(schema).prepare(
        '<out>{ for $p in /r/p return { if $p/b = "x" then { $p/a } } }</out>'
    )
    document = "<r><p><a>&#xD800;%s</a><a>%s</a><b>x</b></p></r>" % ("z" * 300, "y" * 300)
    unbounded = prepared.execute(document)
    bounded = prepared.execute(document, options=ExecutionOptions(memory_budget=300))
    assert "\ud800" in unbounded.output
    assert bounded.stats.spill_count > 0
    assert bounded.output == unbounded.output


def _prepare_many(dtd, document, names):
    """A ``prepare_many`` set of XMark queries and each one's solo output."""
    session = FluxSession(dtd)
    queries = session.prepare_many({name: BENCHMARK_QUERIES[name] for name in names})
    solo = {name: session.prepare(BENCHMARK_QUERIES[name]).execute(document).output for name in names}
    return queries, solo


def test_multiquery_shared_budget_outputs_identical(xmark_setup):
    dtd, document = xmark_setup
    queries, solo = _prepare_many(dtd, document, ("Q1", "Q8", "Q13"))

    peak = FluxSession(dtd).prepare(BENCHMARK_QUERIES["Q8"]).execute(document).peak_buffered_bytes
    budget = max(peak // 2, 1024)
    run = queries.execute(
        document, options=ExecutionOptions(memory_budget=budget)
    )

    for name, output in solo.items():
        assert run[name].output == output, name
    assert run.memory is not None
    assert run.memory["peak_resident_bytes"] <= budget
    assert run.memory["spill_count"] > 0
    # Spills land on the query that buffers (Q8), not the zero-buffer ones.
    assert run["Q8"].stats.spill_count > 0
    assert run["Q1"].stats.spill_count == 0
    assert run["Q13"].stats.spill_count == 0


def test_multiquery_shared_budget_to_sinks_identical(xmark_setup):
    dtd, document = xmark_setup
    queries, solo = _prepare_many(dtd, document, ("Q1", "Q8"))

    sinks = {name: io.StringIO() for name in solo}
    run = queries.execute(
        document, sinks=sinks, options=ExecutionOptions(memory_budget=2048)
    )
    for name, output in solo.items():
        assert sinks[name].getvalue() == output, name
    assert run.memory["peak_resident_bytes"] <= 2048


def test_streaming_run_closes_governor_when_abandoned(xmark_setup):
    dtd, document = xmark_setup
    prepared = FluxSession(dtd).prepare(BENCHMARK_QUERIES["Q8"])
    streaming = prepared.stream(
        document, options=ExecutionOptions(memory_budget=2048)
    )
    iterator = iter(streaming)
    next(iterator)  # start the run, then abandon it
    iterator.close()  # generator finalization must close the spill store
