"""The subscription server (:mod:`repro.serve`): hub, fanout, wire protocol.

Covers the serve tentpole:

* :class:`DynamicFanout` -- attach is a delta-merge (pre-existing queries'
  transition functions are *never re-entered*, proven by counting calls),
  detach is a tombstone (no transition recomputed, masks patched in
  place), and only :meth:`compact` moves the ``recompiles`` counter;
* the hub delivers byte-identical results vs solo runs on both pipelines,
  at arbitrary chunk splits, with exact per-document metadata;
* slow-consumer policies: ``block`` backpressures the engine thread with
  zero drops, ``drop`` counts and skips, ``disconnect`` evicts at the
  next boundary;
* the same query text subscribed twice shares one compiled engine but
  delivers independently to both seats;
* ``/progress`` gains a ``mode=serve`` view with per-subscription
  delivered / queue-depth / resident-bytes watermarks;
* the NDJSON wire protocol and the asyncio TCP server end to end,
  including a subscriber joining mid-feed.
"""

import sys
import threading
import time

import pytest

from repro.core.api import load_dtd
from repro.core.options import ExecutionOptions
from repro.core.session import FluxSession
from repro.engine.engine import FluxEngine
from repro.fastpath import ByteScanner
from repro.fastpath.tags import DROP
from repro.obs import serve as obs_serve
from repro.pipeline.projection import ProjectionSpec
from repro.serve import (
    DynamicFanout,
    SubscribeClient,
    ServeServer,
    Subscription,
    SubscriptionHub,
)
from repro.serve.protocol import LineSplitter, decode, encode
from repro.xmlstream.errors import XMLWellFormednessError

BIB_DTD = """
<!ELEMENT bib (book)*>
<!ELEMENT book (title,author+,price?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"""

TITLES = "<titles>{ for $b in $ROOT/bib/book return $b/title }</titles>"
AUTHORS = "<authors>{ for $b in $ROOT/bib/book return $b/author }</authors>"
PRICES = "<prices>{ for $b in $ROOT/bib/book return $b/price }</prices>"


def _doc(index: int) -> str:
    return (
        f"<bib><book><title>T{index}</title><author>A{index}</author>"
        f"<price>{index}.50</price></book>"
        f"<book><title>U{index}</title><author>B{index}</author></book></bib>"
    )


def _stream(count: int) -> bytes:
    return "".join(_doc(i) + "\n" for i in range(count)).encode("utf-8")


def _chunks(data: bytes, stride: int):
    return [data[i : i + stride] for i in range(0, len(data), stride)]


def _schema():
    return load_dtd(BIB_DTD, root_element="bib")


def _solo(query: str, count: int):
    prepared = FluxSession(_schema()).prepare(query)
    return [prepared.execute(_doc(i)).output for i in range(count)]


# ---------------------------------------------------------------------------
# DynamicFanout: the incremental union automaton


def _spec_for(query: str) -> ProjectionSpec:
    return FluxEngine(query, _schema(), projection=True).projection_spec


def test_fanout_slots_and_tombstones():
    fanout = DynamicFanout()
    # No slot: the drop-everything automaton (the hub's idle scan).
    assert fanout.resolve_name(0, "bib") == DROP
    a = fanout.attach(_spec_for(TITLES))
    b = fanout.attach(_spec_for(AUTHORS))
    assert fanout.order() == (a, b)
    assert (fanout.width, fanout.active_count) == (2, 2)

    fanout.detach(a)
    # The tombstone keeps its seat: positions are stable until compaction.
    assert fanout.order() == (a, b)
    assert (fanout.width, fanout.active_count) == (2, 1)
    with pytest.raises(ValueError):
        fanout.detach(a)
    with pytest.raises(KeyError):
        fanout.detach(999)

    assert fanout.recompiles == 0
    assert fanout.compact() == 1
    assert fanout.recompiles == 1
    assert fanout.order() == (b,)


def test_fanout_indices_are_mask_positions():
    fanout = DynamicFanout()
    assert fanout.indices_for(0) == ()
    assert fanout.indices_for(0b101) == (0, 2)
    assert fanout.indices_for(0b10) == (1,)


def _counting_spec(query: str):
    """A projection spec whose ``transition`` counts how often it runs."""
    spec = _spec_for(query)
    calls = [0]
    inner = spec.transition

    def counted(state, tag):
        calls[0] += 1
        return inner(state, tag)

    spec.transition = counted
    return spec, calls


def test_attach_is_delta_merge_never_reenters_existing_queries():
    """The acceptance criterion: churn with N-1 live queries re-derives
    transitions only for the churned query -- the survivors' transition
    functions are pure memo hits, and the union is never re-merged."""
    spec_t, calls_t = _counting_spec(TITLES)
    spec_a, calls_a = _counting_spec(AUTHORS)
    spec_p, calls_p = _counting_spec(PRICES)

    # Warm two queries over one document, then attach a third.
    fanout = DynamicFanout()
    slot_t = fanout.attach(spec_t)
    fanout.attach(spec_a)

    def run_doc(fanout=fanout):
        # What the hub does per document: scan through the fanout's flat
        # table, ``materialize_split`` by its membership masks.
        streams = [[] for _ in range(fanout.width)]
        scanner = ByteScanner(fanout)
        data = _doc(0).encode("utf-8")
        for batch in [scanner.feed_batch(data), scanner.close_batch()]:
            subs = batch.materialize_split(fanout)
            assert len(subs) == fanout.width
            for stream, sub in zip(streams, subs):
                stream.extend(sub)
        return streams

    def one_slot(query):
        alone = DynamicFanout()
        alone.attach(_spec_for(query))
        return run_doc(alone)[0]

    run_doc()
    warm_t, warm_a = calls_t[0], calls_a[0]
    assert warm_t > 0 and warm_a > 0

    fanout.attach(spec_p)
    solo = [one_slot(query) for query in (TITLES, AUTHORS, PRICES)]
    assert all(solo)
    assert run_doc() == solo
    # The survivors never re-entered their transition functions: replaying
    # the same tag vocabulary after the attach is dict work only.
    assert calls_t[0] == warm_t
    assert calls_a[0] == warm_a
    assert calls_p[0] > 0
    assert fanout.recompiles == 0

    # A detach recomputes nothing either, and on this warm table its one
    # mask sweep reaches every row the stream has visited: the tombstone's
    # seat goes silent, the survivors' streams do not move.
    warm_p = calls_p[0]
    fanout.detach(slot_t)
    assert run_doc() == [[], solo[1], solo[2]]
    assert (calls_t[0], calls_a[0], calls_p[0]) == (warm_t, warm_a, warm_p)
    assert fanout.recompiles == 0


# ---------------------------------------------------------------------------
# Hub: byte-identity, churn metadata, policies


@pytest.mark.parametrize("stride", [7, 512, 100_000])
def test_hub_results_match_solo_runs(stride):
    count = 5
    expected_titles = _solo(TITLES, count)
    expected_authors = _solo(AUTHORS, count)
    with SubscriptionHub(_schema()) as hub:
        titles = hub.subscribe(TITLES, name="titles")
        authors = hub.subscribe(AUTHORS, name="authors")
        for chunk in _chunks(_stream(count), stride):
            hub.feed(chunk)
        hub.finish()
        got_t = list(titles.results())
        got_a = list(authors.results())
    assert [r.output for r in got_t] == expected_titles
    assert [r.output for r in got_a] == expected_authors
    assert [r.document for r in got_t] == list(range(count))
    assert [r.seq for r in got_t] == list(range(1, count + 1))
    assert titles.first_document == 0
    assert hub.fanout.recompiles == 0
    assert titles.state == "finished"


def test_mid_feed_subscribe_and_unsubscribe_at_boundaries():
    count = 6
    expected = _solo(AUTHORS, count)
    with SubscriptionHub(_schema()) as hub:
        titles = hub.subscribe(TITLES, name="titles")
        for i in range(count):
            if i == 2:
                authors = hub.subscribe(AUTHORS, name="authors")
            if i == 4:
                hub.unsubscribe(authors)
            hub.feed(_doc(i).encode("utf-8"))
        hub.finish()
        got = list(authors.results())
    # The joiner saw exactly documents [2, 4): attached before doc 2 began,
    # detached at the boundary after doc 3 sealed.
    assert authors.first_document == 2
    assert [r.document for r in got] == [2, 3]
    assert [r.output for r in got] == expected[2:4]
    assert list(titles.results()) and titles.delivered == count
    assert hub.fanout.recompiles == 0
    assert (hub.fanout.attaches, hub.fanout.detaches) == (2, 1)


def test_hub_honours_expand_attrs():
    """A subscription over an attribute-bearing document is byte-identical
    to the solo ``expand_attrs`` run (the hub used to ignore the option)."""
    dtd = load_dtd(
        "<!ELEMENT bib (book)*><!ELEMENT book (book_id,title)>"
        "<!ELEMENT book_id (#PCDATA)><!ELEMENT title (#PCDATA)>",
        root_element="bib",
    )
    query = "<ids>{ for $b in $ROOT/bib/book return {$b/book_id} }</ids>"
    document = '<bib><book id="b&amp;1"><title>T</title></book><book id="b2"><title>U</title></book></bib>'
    solo = FluxSession(dtd).prepare(query).execute(
        document, options=ExecutionOptions(expand_attrs=True)
    ).output
    assert "<book_id>b&amp;1</book_id>" in solo
    with SubscriptionHub(dtd, options=ExecutionOptions(expand_attrs=True)) as hub:
        sub = hub.subscribe(query)
        for chunk in _chunks(document.encode("utf-8") * 2, 5):
            hub.feed(chunk)
        hub.finish()
        assert [r.output for r in sub.results()] == [solo, solo]


def test_hub_finish_mid_code_point_is_a_located_truncation_error():
    """A stream ending inside a multi-byte UTF-8 sequence raises the push
    run's truncation error at the true stream offset, and the aborted
    document's buffers leave the shared governor's ledger at zero."""
    from repro.storage.governor import MemoryGovernor

    buffering = "<r>{ for $b in $ROOT/bib/book return <b>{$b/author}{$b/title}</b> }</r>"
    head = _doc(0).encode("utf-8") + b"\n"
    with MemoryGovernor(1 << 20) as governor:
        hub = SubscriptionHub(_schema(), governor=governor)
        titles = hub.subscribe(TITLES)
        reordered = hub.subscribe(buffering)
        hub.feed(head + b"<bib><book><title>x</title><author>\xc3")
        assert governor.resident_bytes > 0  # the open document's title is buffered
        with pytest.raises(XMLWellFormednessError) as raised:
            hub.finish()
        assert str(raised.value).startswith(
            "truncated document: incomplete UTF-8 sequence at end of input"
        )
        assert raised.value.offset == len(head) + len(b"<bib><book><title>x</title><author>")
        assert governor.resident_bytes == 0
        assert (titles.state, reordered.state) == ("closed", "closed")
        # The document sealed before the truncation was delivered intact.
        assert [r.output for r in titles.results()] == _solo(TITLES, 1)


@pytest.mark.parametrize("selector, spills", [("hub", (0, 1)), ("lru", (1, 0))])
def test_hub_governor_spills_the_heaviest_subscriber_first(selector, spills):
    """Two runs on one hub governor (1000 B budget, 100 B pages): the light
    one seals one page, then the heavy one's tenth page slice goes over
    budget.  The hub's selector spills a page of the heavy run; plain LRU
    would spill the light run's colder page."""
    from repro.engine.buffers import BufferManager
    from repro.engine.stats import RunStatistics
    from repro.storage.governor import MemoryGovernor
    from repro.xmlstream.events import Characters

    with MemoryGovernor(1000, page_bytes=100) as governor, SubscriptionHub(
        _schema(), governor=governor
    ):
        if selector == "lru":
            governor.victim_selector = None
        light, heavy = RunStatistics(), RunStatistics()
        light_manager = BufferManager(light, governor=governor)
        heavy_manager = BufferManager(heavy, governor=governor)
        light_manager.create_buffer("$light").append(Characters("x" * 100))
        light_manager.flush()
        heavy_manager.create_buffer("$heavy").extend(Characters("y" * 100) for _ in range(10))
        heavy_manager.flush()
        assert (light.spill_count, heavy.spill_count) == spills
        assert governor.spill_count == 1


def test_duplicate_query_text_delivers_independently():
    """Satellite: one compiled engine, two seats, two result streams."""
    count = 3
    expected = _solo(TITLES, count)
    with SubscriptionHub(_schema()) as hub:
        first = hub.subscribe(TITLES, name="first")
        second = hub.subscribe(TITLES, name="second")
        assert first._engine is second._engine  # compiled once
        assert len(hub.session.cache) == 1
        hub.feed(_stream(count))
        hub.unsubscribe(second)
        hub.feed(_doc(count).encode("utf-8"))
        hub.finish()
        got_first = list(first.results())
        got_second = list(second.results())
    assert [r.output for r in got_first] == expected + _solo(TITLES, count + 1)[count:]
    assert [r.output for r in got_second] == expected
    assert first.delivered == count + 1 and second.delivered == count


def test_subscription_churn_retains_a_bounded_number_of_plans():
    """Distinct query texts come and go; the hub's plan cache stays an LRU."""
    with SubscriptionHub(_schema()) as hub:
        cache = hub.session.cache
        for index in range(cache.capacity + 40):
            hub.unsubscribe(hub.subscribe(TITLES.replace("titles", f"t{index}")))
        assert hub.subscriptions() == []
        assert len(cache) == cache.capacity
        assert cache.snapshot()["evictions"] == 40
        # An evicted query still serves: it recompiles on the next subscribe.
        evicted = TITLES.replace("titles", "t0")
        again = hub.subscribe(evicted)
        hub.feed(_stream(1))
        hub.finish()
        assert [r.output for r in again.results()] == _solo(evicted, 1)


def test_block_policy_backpressures_engine_with_zero_drops():
    count = 6
    with SubscriptionHub(_schema()) as hub:
        sub = hub.subscribe(TITLES, policy="block", max_queue=1)
        stalled = threading.Event()
        done = threading.Event()

        def engine():
            hub.feed(_stream(count))
            hub.finish()
            done.set()

        thread = threading.Thread(target=engine, daemon=True)
        thread.start()
        # The engine must stall: queue holds 1, five more documents wait.
        assert not done.wait(0.3)
        assert sub.queue_depth == 1
        got = [r.output for r in sub.results()]
        thread.join(timeout=10)
    assert done.is_set()
    assert got == _solo(TITLES, count)
    assert sub.dropped == 0
    assert sub.peak_queue_depth == 1


def test_drop_policy_counts_and_skips():
    count = 5
    with SubscriptionHub(_schema()) as hub:
        sub = hub.subscribe(TITLES, policy="drop", max_queue=2)
        hub.feed(_stream(count))
        hub.finish()
        got = [r.document for r in sub.results()]
    assert got == [0, 1]  # the queue held two; the rest were dropped
    assert sub.dropped == count - 2
    assert sub.delivered == 2


def test_disconnect_policy_evicts_at_next_boundary():
    count = 5
    with SubscriptionHub(_schema()) as hub:
        slow = hub.subscribe(TITLES, policy="disconnect", max_queue=1)
        steady = hub.subscribe(AUTHORS, policy="block", max_queue=count)
        hub.feed(_stream(count))
        assert slow.state == "disconnected"
        assert hub.active_subscriptions == 1  # the boundary sweep evicted it
        hub.finish()
        got = [r.document for r in slow.results()]
    assert got == [0]
    assert slow.dropped >= 1
    assert steady.delivered == count


def test_unsubscribe_pending_subscription_never_activates():
    with SubscriptionHub(_schema()) as hub:
        sub = hub.subscribe(TITLES)
        mid = _doc(0).encode("utf-8")
        hub.feed(mid[: len(mid) // 2])  # a document is open: churn defers
        late = hub.subscribe(AUTHORS)
        assert late.state == "pending"
        hub.unsubscribe(late)
        assert late.state == "closed"
        hub.feed(mid[len(mid) // 2 :])
        hub.finish()
        assert late.delivered == 0
        assert [r.document for r in sub.results()] == [0]


def test_subscribe_on_closed_hub_raises():
    hub = SubscriptionHub(_schema())
    hub.close()
    with pytest.raises(RuntimeError, match="closed hub"):
        hub.subscribe(TITLES)
    with pytest.raises(RuntimeError):
        hub.feed(b"<bib></bib>")


def test_subscribe_on_finished_hub_raises():
    """Regression: a subscription taken after ``finish`` stayed ``active``
    forever, so ``get()`` blocked and ``/progress`` listed it."""
    hub = SubscriptionHub(_schema())
    hub.feed(_stream(1))
    hub.finish()
    with pytest.raises(RuntimeError, match="finished hub"):
        hub.subscribe(TITLES)
    assert hub.progress()["subscriptions"] == []


def test_subscribe_racing_finish_never_leaves_an_active_subscription():
    """Subscribers on more threads than cores race ``finish``: each
    subscription is either ended with the hub or refused."""
    hub = SubscriptionHub(_schema())
    hub.feed(_stream(1))
    taken, refusals, stop = [], [], threading.Event()

    def subscriber():
        while not stop.is_set():  # a bound should ``finish`` never refuse
            try:
                taken.append(hub.subscribe(TITLES))
            except RuntimeError:
                refusals.append(True)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=subscriber, daemon=True) for _ in range(4)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while len(taken) < 8 and time.monotonic() < deadline:
            time.sleep(0.001)
        hub.finish()
        for thread in threads:
            thread.join(timeout=5)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(refusals) == 4 and taken
    for sub in taken:
        assert sub.state == "finished"
        assert sub.get(timeout=5) is None


def test_truncated_stream_raises_and_ends_subscriptions():
    hub = SubscriptionHub(_schema())
    sub = hub.subscribe(TITLES)
    hub.feed(b"<bib><book><title>T")
    with pytest.raises(XMLWellFormednessError):
        hub.finish()
    assert sub.state == "closed"
    assert sub.get(timeout=0) is None


def test_subscription_validates_policy_and_queue_bound():
    with SubscriptionHub(_schema()) as hub:
        with pytest.raises(ValueError):
            hub.subscribe(TITLES, policy="teleport")
        with pytest.raises(ValueError):
            hub.subscribe(TITLES, max_queue=0)


# ---------------------------------------------------------------------------
# /progress: the serve view (satellite)


def test_progress_has_serve_mode_and_per_subscription_watermarks():
    with SubscriptionHub(_schema()) as hub:
        sub = hub.subscribe(TITLES, name="watched")
        hub.feed(_stream(3))
        snapshot = hub.progress()
        assert snapshot["mode"] == "serve"
        assert snapshot["state"] == "open"
        assert snapshot["documents_completed"] == 3
        assert snapshot["fanout"] == {
            "width": 1,
            "active": 1,
            "recompiles": 0,
            "attaches": 1,
            "detaches": 0,
        }
        (entry,) = snapshot["subscriptions"]
        assert entry["name"] == "watched"
        assert entry["delivered"] == 3
        assert entry["queue_depth"] == 3
        assert entry["peak_queue_depth"] == 3
        assert entry["resident_bytes_hwm"] >= 0
        assert entry["first_document"] == 0

        # The hub is visible through the shared /progress surface too: the
        # stream is ONE entry (the feed's watermarks decorated by the hub,
        # not a ``feed`` row beside a ``serve`` row) ...
        def serve_rows():
            runs = obs_serve.progress_snapshot()["runs"]
            assert not any(run.get("mode") == "feed" for run in runs)
            return [run for run in runs if run.get("mode") == "serve"]

        (row,) = serve_rows()
        assert row["subscriptions"] == snapshot["subscriptions"]
        assert row["resume_offset"] == snapshot["resume_offset"]
        # ... joined, while a document is open, by that document's run --
        # the same shape a solo feed shows.
        hub.feed(_stream(1)[:20])
        stream_row, document_row = sorted(serve_rows(), key=lambda run: "document_index" in run)
        assert "subscriptions" in stream_row and "subscriptions" not in document_row
        assert document_row["document_index"] == 3
        assert document_row["document_start_offset"] == stream_row["document_start_offset"]
        hub.feed(_stream(1)[20:])
        assert len(serve_rows()) == 1
        hub.finish()
        assert len(list(sub.results())) == 4
    runs = obs_serve.progress_snapshot()["runs"]
    assert not any(run.get("mode") == "serve" for run in runs)


# ---------------------------------------------------------------------------
# Wire protocol


def test_protocol_roundtrip_and_splitter():
    frame = {"op": "subscribe", "query": "Q1", "max_queue": 8}
    assert decode(encode(frame).rstrip(b"\n")) == frame

    splitter = LineSplitter()
    data = encode({"a": 1}) + encode({"b": 2})
    head, tail = data[:9], data[9:]
    assert list(splitter.feed(head)) == [{"a": 1}]
    assert list(splitter.feed(tail)) == [{"b": 2}]

    with pytest.raises(ValueError):
        decode(b"not json")
    with pytest.raises(ValueError):
        decode(b"[1, 2]")


# ---------------------------------------------------------------------------
# TCP server end to end


def test_server_end_to_end_with_mid_feed_joiner():
    count = 5
    docs = [_doc(i) for i in range(count)]
    expected_titles = _solo(TITLES, count)
    expected_authors = _solo(AUTHORS, count)

    server = ServeServer(SubscriptionHub(_schema())).start()
    try:
        with SubscribeClient("127.0.0.1", server.port, timeout=30) as one:
            one.subscribe(TITLES, name="one")
            one.expect("subscribed")
            one.ping()
            assert one.expect("pong") == {"event": "pong"}

            for doc in docs[:2]:
                one.send({"op": "feed", "data": doc})
            first = [one.expect("result") for _ in range(2)]
            assert [f["output"] for f in first] == expected_titles[:2]

            # Second subscriber joins mid-feed on its own connection.
            with SubscribeClient("127.0.0.1", server.port, timeout=30) as two:
                two.subscribe(AUTHORS, name="two")
                two.expect("subscribed")
                for doc in docs[2:]:
                    one.send({"op": "feed", "data": doc})
                one.send({"op": "finish"})

                rest = [one.expect("result") for _ in range(count - 2)]
                assert [f["output"] for f in rest] == expected_titles[2:]
                assert [f["document"] for f in rest] == [2, 3, 4]
                one.expect("eof")

                got_two = [two.expect("result") for _ in range(count - 2)]
                assert [f["output"] for f in got_two] == expected_authors[2:]
                assert [f["document"] for f in got_two] == [2, 3, 4]
                two.expect("eof")
    finally:
        server.stop()


def test_server_rejects_bad_operations():
    server = ServeServer(SubscriptionHub(_schema())).start()
    try:
        with SubscribeClient("127.0.0.1", server.port, timeout=30) as client:
            client.send({"op": "warp"})
            with pytest.raises(RuntimeError, match="unknown op"):
                client.expect("pong")
            client.send({"op": "subscribe"})
            with pytest.raises(RuntimeError, match="query"):
                client.expect("pong")
            client.send({"op": "unsubscribe", "name": "ghost"})
            with pytest.raises(RuntimeError, match="no subscription"):
                client.expect("pong")
            client.ping()  # the connection survived all three rejections
            assert client.expect("pong") == {"event": "pong"}
    finally:
        server.stop()
