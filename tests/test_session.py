"""The session-oriented public API: plan cache, sinks, push mode, governance.

Covers the tentpole of the session redesign plus its satellites:

* plan-cache behaviour -- hit/miss counters, LRU eviction order, DTD
  fingerprint invalidation, a thread-safety smoke test,
* Sink protocol conformance across all four sinks and ``resolve_sink``,
* push-mode (``open_run``/``feed``/``finish``) byte-identity with pull mode
  at arbitrary chunk splits, including split multi-byte UTF-8 sequences,
* session-scoped memory-governor sharing and cumulative statistics,
* the :class:`~repro.engine.engine.StreamingRun` governor-leak regression
  (close / context manager / finalizer),
* deprecation of the legacy scattered keyword spellings.
"""

import gc
import io
import re
import threading

import pytest

from repro import (
    CollectSink,
    ExecutionOptions,
    FluxEngine,
    FluxSession,
    FragmentSink,
    NullSink,
    OutputSink,
    PlanCache,
    RunStatistics,
    WritableSink,
    load_dtd,
)
from repro.pipeline.sinks import resolve_sink
from repro.xmlstream.errors import XMLWellFormednessError
from repro.xquery.errors import XQueryError

BIB_DTD = """
<!ELEMENT bib (book)*>
<!ELEMENT book (title,author+,publisher,price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"""

#: No order between title and author: authors must be buffered per book.
WEAK_DTD = """
<!ELEMENT bib (book)*>
<!ELEMENT book (title|author)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
"""

QUERY = (
    "<results>{ for $b in $ROOT/bib/book return"
    " <r>{$b/title}{$b/author}</r> }</results>"
)
TITLES = "<titles>{ for $b in $ROOT/bib/book return $b/title }</titles>"
AUTHORS = "<authors>{ for $b in $ROOT/bib/book return $b/author }</authors>"

DOC = (
    "<bib>"
    "<book><title>Café Streams</title><author>Koch</author>"
    "<publisher>V</publisher><price>5</price></book>"
    "<book><title>Buffers</title><author>Scherzinger</author>"
    "<author>Schweikardt</author><publisher>W</publisher><price>7</price></book>"
    "</bib>"
)

WEAK_DOC = (
    "<bib>"
    "<book><author>A1</author><title>T1</title><author>A2</author></book>"
    "<book><author>B1</author><title>T2</title></book>"
    "</bib>"
)

#: A session (or run) budget: one governor, shared by a session's runs.
BOUNDED = ExecutionOptions(memory_budget=4096)


def _solo(query, document, dtd):
    """A throwaway session's run: the reference output of ``query``."""
    return FluxSession(dtd, root_element="bib").prepare(query).execute(document)


@pytest.fixture()
def session():
    with FluxSession(BIB_DTD, root_element="bib") as sess:
        yield sess


# ---------------------------------------------------------------------------
# Plan cache


def test_prepare_twice_hits_cache_and_reuses_engine(session):
    first = session.prepare(QUERY)
    second = session.prepare(QUERY)
    assert second.engine is first.engine
    snap = session.cache.snapshot()
    assert snap["misses"] == 1 and snap["hits"] == 1 and snap["size"] == 1


def test_cache_key_strips_surrounding_whitespace_only(session):
    first = session.prepare(QUERY)
    padded = session.prepare(f"\n\t  {QUERY}  \n")
    assert padded.engine is first.engine
    assert session.cache.snapshot()["hits"] == 1


def test_cache_key_preserves_significant_internal_whitespace(session):
    """Regression: queries differing in literal text whitespace are
    different queries and must never share a plan."""
    one_space = session.prepare("<out>a b</out>")
    two_spaces = session.prepare("<out>a  b</out>")
    assert one_space.engine is not two_spaces.engine
    assert one_space.execute(DOC).output == "<out>a b</out>"
    assert two_spaces.execute(DOC).output == "<out>a  b</out>"


def test_warm_execution_skips_parse_and_schedule(session, monkeypatch):
    """On a cache hit, neither the parser nor the scheduler may run."""
    import repro.engine.engine as engine_module

    expected = _solo(QUERY, DOC, BIB_DTD).output
    session.prepare(QUERY)

    def explode(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("compilation ran on a warm cache")

    monkeypatch.setattr(engine_module, "parse_query", explode)
    monkeypatch.setattr(engine_module, "rewrite_to_flux", explode)
    monkeypatch.setattr(engine_module, "compile_plan", explode)
    monkeypatch.setattr(engine_module, "free_variables", explode)
    warm = session.prepare(QUERY)
    assert warm.execute(DOC).output == expected


@pytest.mark.parametrize(
    "query, free",
    [
        ("<r>{for $p in /a/d return <q>{$x/c}</q>}</r>", "$x"),
        # Unbraced, the inner loop is literal text: its $y is bound nowhere.
        ("for $x in /a return for $y in $x/d return <o>{$y/c}</o>", "$y"),
    ],
    ids=["unbound-path", "unbraced-nested-loop"],
)
def test_prepare_refuses_a_free_variable(query, free):
    """Regression: these compiled, then failed with ``unbound variable`` once
    a handler ran, after output had been written."""
    dtd = "<!ELEMENT a (d*)><!ELEMENT d (c)><!ELEMENT c (#PCDATA)>"
    session = FluxSession(dtd, root_element="a")
    with pytest.raises(XQueryError, match=re.escape(f"unbound variable {free}:")):
        session.prepare(query)
    assert len(session.cache) == 0


def test_cache_eviction_is_lru_ordered():
    session = FluxSession(BIB_DTD, root_element="bib", plan_cache=PlanCache(2))
    session.prepare(TITLES)
    session.prepare(AUTHORS)
    session.prepare(TITLES)  # refresh TITLES: AUTHORS is now the LRU victim
    session.prepare(QUERY)  # evicts AUTHORS
    snap = session.cache.snapshot()
    assert snap["evictions"] == 1 and snap["size"] == 2
    hits_before = snap["hits"]
    session.prepare(TITLES)  # still cached
    assert session.cache.snapshot()["hits"] == hits_before + 1
    session.prepare(AUTHORS)  # evicted: a miss again
    assert session.cache.snapshot()["misses"] == 4


def test_cache_capacity_zero_disables_retention():
    session = FluxSession(BIB_DTD, root_element="bib", plan_cache=PlanCache(0))
    first = session.prepare(TITLES)
    second = session.prepare(TITLES)
    assert first.engine is not second.engine
    snap = session.cache.snapshot()
    assert snap["misses"] == 2 and snap["hits"] == 0 and snap["size"] == 0


def test_projection_flag_is_part_of_the_key(session):
    with_filter = session.prepare(TITLES)
    without_filter = session.prepare(TITLES, projection=False)
    assert with_filter.engine is not without_filter.engine
    assert session.cache.snapshot()["misses"] == 2
    assert with_filter.execute(DOC).output == without_filter.execute(DOC).output


def test_dtd_fingerprint_invalidation_across_shared_cache():
    """Two schemas sharing one PlanCache can never serve each other's plans."""
    cache = PlanCache(8)
    bib = FluxSession(BIB_DTD, root_element="bib", plan_cache=cache)
    weak = FluxSession(WEAK_DTD, root_element="bib", plan_cache=cache)
    bib_plan = bib.prepare(QUERY)
    weak_plan = weak.prepare(QUERY)
    assert bib_plan.engine is not weak_plan.engine
    assert cache.snapshot()["misses"] == 2 and cache.snapshot()["hits"] == 0
    # Same DTD text in a third session: fingerprints match, the plan is shared.
    bib_again = FluxSession(BIB_DTD, root_element="bib", plan_cache=cache)
    assert bib_again.prepare(QUERY).engine is bib_plan.engine
    assert cache.snapshot()["hits"] == 1
    # Cross-session cache hits must also feed prepare_many: a set runs an
    # engine compiled by another session over an equal DTD.
    run = bib_again.prepare_many([QUERY]).execute(DOC)
    assert run["q0"].output == bib_plan.execute(DOC).output


def test_dtd_fingerprint_stability_and_sensitivity():
    first = load_dtd(BIB_DTD, root_element="bib")
    second = load_dtd(BIB_DTD, root_element="bib")
    assert first.fingerprint() == second.fingerprint()
    changed = load_dtd(BIB_DTD.replace("(#PCDATA)", "EMPTY", 1), root_element="bib")
    assert changed.fingerprint() != first.fingerprint()
    rerooted = load_dtd(BIB_DTD, root_element="book")
    assert rerooted.fingerprint() != first.fingerprint()


def test_plan_cache_thread_safety_smoke():
    cache = PlanCache(4)
    queries = [TITLES, AUTHORS, QUERY]
    errors = []

    def worker():
        try:
            session = FluxSession(BIB_DTD, root_element="bib", plan_cache=cache)
            for _ in range(10):
                for query in queries:
                    assert session.prepare(query).execute(DOC).output
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    snap = cache.snapshot()
    assert snap["misses"] == 3  # each distinct plan compiled exactly once
    assert snap["hits"] == 4 * 10 * 3 - 3
    assert snap["size"] == 3


# ---------------------------------------------------------------------------
# Sink protocol conformance


def _reference_output():
    return _solo(QUERY, DOC, BIB_DTD)


def test_collect_sink_conformance(session):
    prepared = session.prepare(QUERY)
    sink = CollectSink()
    result = prepared.execute(DOC, sink=sink)
    assert result.output == _reference_output().output
    assert sink.text() == result.output


def test_null_sink_conformance(session):
    prepared = session.prepare(QUERY)
    sink = NullSink()
    result = prepared.execute(DOC, sink=sink)
    reference = _reference_output()
    assert result.output is None and sink.text() is None
    assert result.stats.output_bytes == reference.stats.output_bytes
    assert result.stats.output_events == reference.stats.output_events


def test_writable_sink_conformance(session):
    prepared = session.prepare(QUERY)
    target = io.StringIO()
    result = prepared.execute(DOC, sink=WritableSink(target))
    assert result.output is None
    assert target.getvalue() == _reference_output().output
    # Legacy two-argument construction still works.
    legacy_target = io.StringIO()
    WritableSink(RunStatistics(), legacy_target).write_text("<x/>")
    assert legacy_target.getvalue() == "<x/>"
    with pytest.raises(TypeError):
        WritableSink()


def test_fragment_sink_conformance(session):
    prepared = session.prepare(QUERY)
    sink = FragmentSink()
    result = prepared.execute(DOC, sink=sink)
    assert result.output is None
    assert sink.drain() == _reference_output().output
    assert sink.drain() == ""  # drained: nothing pending


def test_every_sink_counts_identical_output_bytes(session):
    prepared = session.prepare(QUERY)
    byte_counts = set()
    for sink in (None, CollectSink(), NullSink(), FragmentSink(), WritableSink(io.StringIO())):
        byte_counts.add(prepared.execute(DOC, sink=sink).stats.output_bytes)
    assert len(byte_counts) == 1


def test_resolve_sink_dispatch():
    stats = RunStatistics()
    assert isinstance(resolve_sink(None, stats), CollectSink)
    assert isinstance(resolve_sink(io.StringIO(), stats), WritableSink)
    explicit = FragmentSink()
    assert resolve_sink(explicit, stats) is explicit
    assert explicit.stats is stats  # bound to the run
    with pytest.raises(TypeError):
        resolve_sink(42, stats)


def test_output_sink_bind_returns_self():
    sink = OutputSink()
    stats = RunStatistics()
    assert sink.bind(stats) is sink
    assert sink.stats is stats


def test_reused_sink_starts_each_run_clean(session):
    """Regression: a sink instance passed to two executions must not leak
    the first run's output into the second result."""
    prepared = session.prepare(QUERY)
    sink = CollectSink()
    first = prepared.execute(DOC, sink=sink)
    second = prepared.execute(DOC, sink=sink)
    assert second.output == first.output  # not doubled
    fragment_sink = FragmentSink()
    prepared.execute(DOC, sink=fragment_sink)  # never drained
    prepared.execute(DOC, sink=fragment_sink)
    assert fragment_sink.drain() == first.output  # only the second run's output


# ---------------------------------------------------------------------------
# Push mode (open_run / feed / finish)


@pytest.mark.parametrize("stride", [1, 3, 7, 64, 100_000])
def test_feed_mode_matches_pull_mode_at_any_text_split(session, stride):
    prepared = session.prepare(QUERY)
    expected = prepared.execute(DOC)
    run = prepared.open_run()
    for start in range(0, len(DOC), stride):
        run.feed(DOC[start : start + stride])
    result = run.finish()
    assert result.output == expected.output
    assert result.stats.peak_buffered_bytes == expected.stats.peak_buffered_bytes


@pytest.mark.parametrize("stride", [1, 2, 5])
def test_feed_mode_accepts_split_utf8_bytes(session, stride):
    """Byte feeds may cut multi-byte code points (Café spans a boundary)."""
    prepared = session.prepare(QUERY)
    expected = prepared.execute(DOC)
    data = DOC.encode("utf-8")
    run = prepared.open_run()
    for start in range(0, len(data), stride):
        run.feed(data[start : start + stride])
    assert run.finish().output == expected.output


def test_feed_mode_buffers_like_pull_mode():
    """A buffering query (weak DTD) buffers identically in push mode."""
    session = FluxSession(WEAK_DTD, root_element="bib")
    prepared = session.prepare(QUERY)
    expected = prepared.execute(WEAK_DOC)
    assert expected.stats.peak_buffered_bytes > 0
    run = prepared.open_run()
    for start in range(0, len(WEAK_DOC), 5):
        run.feed(WEAK_DOC[start : start + 5])
    result = run.finish()
    assert result.output == expected.output
    assert result.stats.peak_buffered_bytes == expected.stats.peak_buffered_bytes


def test_feed_duplex_with_fragment_sink(session):
    prepared = session.prepare(QUERY)
    expected = prepared.execute(DOC)
    run = prepared.open_run(FragmentSink())
    parts = []
    for start in range(0, len(DOC), 9):
        fragment = run.feed(DOC[start : start + 9])
        if fragment:
            parts.append(fragment)
    run.finish()
    parts.append(run.drain())
    assert "".join(parts) == expected.output


def test_feed_context_manager_finishes_on_clean_exit(session):
    prepared = session.prepare(QUERY)
    with prepared.open_run() as run:
        run.feed(DOC)
    assert run.result.output == prepared.execute(DOC).output


def test_feed_after_finish_raises(session):
    run = session.prepare(QUERY).open_run()
    run.feed(DOC)
    run.finish()
    with pytest.raises(RuntimeError):
        run.feed("<bib></bib>")
    assert run.finish() is run.result  # idempotent


def test_finish_rejects_truncated_document(session):
    run = session.prepare(QUERY).open_run()
    run.feed("<bib><book><title>T")
    with pytest.raises(XMLWellFormednessError):
        run.finish()
    with pytest.raises(RuntimeError):
        run.feed("more")  # the run aborted


def test_feed_error_aborts_and_releases_governor():
    session = FluxSession(WEAK_DTD, root_element="bib")
    prepared = session.prepare(QUERY)
    run = prepared.open_run(options=ExecutionOptions(memory_budget=4096))
    governor = run._governor
    assert governor is not None
    with pytest.raises(Exception):
        run.feed("<bib><book></bib>")  # mismatched closing tag
    assert not run._release_governor.alive  # governor closed by the abort


def test_feed_writable_sink_streams_output(session):
    prepared = session.prepare(QUERY)
    target = io.StringIO()
    with prepared.open_run(target) as run:
        for start in range(0, len(DOC), 11):
            run.feed(DOC[start : start + 11])
    assert target.getvalue() == prepared.execute(DOC).output


# ---------------------------------------------------------------------------
# Session-scoped governance and statistics


def test_session_shares_one_governor_across_runs():
    session = FluxSession(WEAK_DTD, root_element="bib", options=BOUNDED)
    prepared = session.prepare(QUERY)
    first = prepared.execute(WEAK_DOC)
    governor = session._governor
    assert governor is not None
    second = prepared.execute(WEAK_DOC)
    assert session._governor is governor  # same governor, not per-run
    assert first.output == second.output
    telemetry = session.memory_telemetry()
    assert telemetry is not None and telemetry["budget_bytes"] == 4096
    session.close()
    with pytest.raises(RuntimeError):
        prepared.execute(WEAK_DOC)


def test_dropped_session_finalizer_closes_governor():
    """Regression: a session abandoned without close() must not leak its
    shared governor."""
    session = FluxSession(WEAK_DTD, root_element="bib", options=BOUNDED)
    session.prepare(QUERY).execute(WEAK_DOC)
    finalizer = session._release_governor
    assert finalizer.alive
    del session
    gc.collect()
    assert not finalizer.alive


def test_stream_with_a_per_run_budget_owns_its_governor():
    """Regression: a per-run budget hands governor ownership to the
    StreamingRun (closed on exhaustion/close/gc), never to the session."""
    session = FluxSession(WEAK_DTD, root_element="bib")
    run = session.prepare(QUERY).stream(WEAK_DOC, options=ExecutionOptions(memory_budget=4096))
    assert run._governor is not None  # run-owned, not session-owned
    assert "".join(run) == _solo(QUERY, WEAK_DOC, WEAK_DTD).output
    assert not run._release_governor.alive  # closed with the iteration
    assert session._governor is None


def test_aborted_feed_releases_buffers_back_to_shared_governor():
    """Regression: a run aborted mid-buffering must not leave dead pages
    charged against the session-shared governor forever."""
    session = FluxSession(WEAK_DTD, root_element="bib", options=BOUNDED)
    prepared = session.prepare(QUERY)
    run = prepared.open_run()
    # Feed up to inside a book: authors are being buffered right now.
    run.feed("<bib><book><author>A1</author><author>A2</author>")
    assert run.stats.buffered_bytes_current > 0
    run.close()
    governor = session._governor
    assert governor is not None
    assert governor.resident_bytes == 0  # pages discarded, not leaked
    assert not governor._lru and not governor._open_pages
    # The session stays fully usable with an accurate budget.
    assert prepared.execute(WEAK_DOC).output
    session.close()


def test_abandoned_stream_releases_buffers_on_gc():
    session = FluxSession(WEAK_DTD, root_element="bib", options=BOUNDED)
    prepared = session.prepare(QUERY)
    run = prepared.stream(WEAK_DOC)
    iterator = iter(run)
    next(iterator, None)  # start executing, then abandon mid-run
    del iterator, run
    gc.collect()
    governor = session._governor
    assert governor is not None and governor.resident_bytes == 0
    session.close()


def test_feed_rejects_text_after_partial_utf8_bytes_and_recovers(session):
    """Regression: a text chunk cannot silently reorder around pending
    partial-UTF-8 bytes -- the guard raises before consuming anything, so
    the run stays open and feeding the remaining bytes recovers it."""
    prepared = session.prepare(QUERY)
    run = prepared.open_run()
    run.feed("<bib><book><title>Caf".encode("utf-8") + "é".encode("utf-8")[:1])
    with pytest.raises(ValueError):
        run.feed("more text")  # pending partial code point
    run.feed("é".encode("utf-8")[1:])  # completing the sequence recovers
    run.feed("</title><author>K</author><publisher>P</publisher>")
    run.feed(b"<price>1</price></book></bib>")
    assert "Café" in run.finish().output


def test_push_run_mixes_text_and_bytes_at_safe_points(session):
    """Mixing is fine whenever the scanner holds no partial sequence, and
    completing a split code point resumes normally."""
    run = session.prepare(QUERY).open_run()
    run.feed("<bib><book><title>Caf".encode("utf-8") + "é".encode("utf-8")[:1])
    run.feed("é".encode("utf-8")[1:])  # completes the code point
    run.feed("</title><author>K</author>")  # text after clean state
    run.feed(b"<publisher>P</publisher><price>1</price></book></bib>")
    assert "Café" in run.finish().output


def test_failed_execute_releases_buffers_back_to_shared_governor():
    """Regression: a pull-mode run that raises mid-buffering must not leave
    pages charged against the session governor."""
    session = FluxSession(WEAK_DTD, root_element="bib", options=BOUNDED)
    prepared = session.prepare(QUERY)
    truncated = WEAK_DOC[: WEAK_DOC.index("</book>")]  # authors buffered, no close
    for _ in range(3):
        with pytest.raises(XMLWellFormednessError):
            prepared.execute(truncated)
    governor = session._governor
    assert governor is not None
    assert governor.resident_bytes == 0 and not governor._lru and not governor._open_pages
    assert prepared.execute(WEAK_DOC).output  # session still healthy
    session.close()


def test_failed_multiquery_pass_releases_buffers_back_to_shared_governor():
    session = FluxSession(WEAK_DTD, root_element="bib", options=BOUNDED)
    prepared = session.prepare_many({"q": QUERY})
    truncated = WEAK_DOC[: WEAK_DOC.index("</book>")]
    with pytest.raises(XMLWellFormednessError):
        prepared.execute(truncated)
    governor = session._governor
    assert governor is not None
    assert governor.resident_bytes == 0 and not governor._lru and not governor._open_pages
    assert prepared.execute(WEAK_DOC)["q"].output
    session.close()


def test_explicit_options_inherit_the_session_budget():
    """Regression: options passed for an unrelated knob must not silently
    drop the session-wide memory budget."""
    session = FluxSession(WEAK_DTD, root_element="bib", options=BOUNDED)
    prepared = session.prepare(QUERY)
    result = prepared.execute(WEAK_DOC, options=ExecutionOptions(chunk_size=16))
    assert session._governor is not None  # the run was governed
    assert session.memory_telemetry()["budget_bytes"] == 4096
    assert result.output == _solo(QUERY, WEAK_DOC, WEAK_DTD).output
    # An options object with its own budget still wins (private governor).
    prepared.execute(WEAK_DOC, options=ExecutionOptions(memory_budget=64))
    assert session.memory_telemetry()["budget_bytes"] == 4096
    session.close()


def test_per_run_budget_override_uses_private_governor():
    session = FluxSession(WEAK_DTD, root_element="bib")
    prepared = session.prepare(QUERY)
    result = prepared.execute(WEAK_DOC, options=ExecutionOptions(memory_budget=64))
    assert result.output == prepared.execute(WEAK_DOC).output
    assert session._governor is None  # the override never touched the session


def test_session_statistics_accumulate(session):
    prepared = session.prepare(QUERY)
    prepared.execute(DOC)
    prepared.execute(DOC)
    with prepared.open_run() as run:
        run.feed(DOC)
    stats = session.statistics
    assert stats.runs == 3 and stats.feed_runs == 1
    events_after_three = stats.input_events
    bytes_after_three = stats.output_bytes
    solo = prepared.execute(DOC).stats  # a fourth run, also absorbed
    assert events_after_three == 3 * solo.input_events
    assert bytes_after_three == 3 * solo.output_bytes
    assert stats.input_events == events_after_three + solo.input_events
    assert "runs=4" in session.statistics.summary()


def test_prepare_many_shares_the_plan_cache(session):
    solo = session.prepare(TITLES)
    prepared_set = session.prepare_many({"t": TITLES, "a": AUTHORS})
    assert session.cache.snapshot()["hits"] == 1  # TITLES reused
    run = prepared_set.execute(DOC)
    assert run["t"].output == solo.execute(DOC).output
    assert set(prepared_set.names) == {"t", "a"}


def test_prepared_set_attaches_its_union_fanout_once(session, monkeypatch):
    from repro.pipeline.fanout import DynamicFanout

    prepared_set = session.prepare_many({"t": TITLES, "a": AUTHORS})
    fanout = prepared_set.fanout
    assert fanout.attaches == len(prepared_set) == 2
    attach = DynamicFanout.attach
    late = []
    monkeypatch.setattr(
        DynamicFanout, "attach", lambda self, spec: late.append(spec) or attach(self, spec)
    )
    first = prepared_set.execute(DOC)
    assert prepared_set.execute(DOC).outputs() == first.outputs()
    assert late == []  # no execute attaches: the set built its fanout once
    assert prepared_set.fanout is fanout and fanout.attaches == 2


def test_prepare_many_sequence_autonames(session):
    run = session.prepare_many([TITLES, AUTHORS]).execute(DOC)
    assert set(run.outputs()) == {"q0", "q1"}


def test_prepare_many_rejects_strings_and_empty(session):
    with pytest.raises(TypeError, match="for a single query use prepare"):
        session.prepare_many(TITLES)
    with pytest.raises(ValueError, match="at least one query"):
        session.prepare_many({})


def test_prepare_many_to_sinks(session):
    targets = {"t": io.StringIO(), "a": io.StringIO()}
    session.prepare_many({"t": TITLES, "a": AUTHORS}).execute(DOC, sinks=targets)
    assert targets["t"].getvalue() == session.prepare(TITLES).execute(DOC).output
    assert targets["a"].getvalue() == session.prepare(AUTHORS).execute(DOC).output


def test_session_accepts_dtd_source_text():
    session = FluxSession(BIB_DTD, root_element="bib")
    assert session.prepare(TITLES).execute(DOC).output.startswith("<titles>")


# ---------------------------------------------------------------------------
# StreamingRun governor-leak regression


def _streaming_query():
    return FluxSession(WEAK_DTD, root_element="bib").prepare(QUERY)


def test_unconsumed_streaming_run_close_releases_governor():
    run = _streaming_query().stream(WEAK_DOC, options=BOUNDED)
    assert run._release_governor.alive
    run.close()
    assert not run._release_governor.alive
    with pytest.raises(RuntimeError):
        list(run)  # closed == consumed


def test_streaming_run_context_manager_releases_governor():
    with _streaming_query().stream(WEAK_DOC, options=BOUNDED) as run:
        pass  # never iterated
    assert not run._release_governor.alive


def test_abandoned_streaming_run_finalizer_fires_on_gc():
    run = _streaming_query().stream(WEAK_DOC, options=BOUNDED)
    governor = run._governor
    finalizer = run._release_governor
    assert finalizer.alive
    del run
    gc.collect()
    assert not finalizer.alive
    assert not governor.store.is_open  # spill file gone (never opened or closed)


def test_consumed_streaming_run_still_works_and_closes():
    run = _streaming_query().stream(WEAK_DOC, options=BOUNDED)
    output = "".join(run)
    assert output == _solo(QUERY, WEAK_DOC, WEAK_DTD).output
    assert not run._release_governor.alive
    run.close()  # idempotent after consumption


def test_streaming_run_without_governor_has_no_finalizer():
    run = _streaming_query().stream(WEAK_DOC)
    assert run._governor is None
    assert not hasattr(run._release_governor, "alive")  # nothing to finalize
    run.close()  # still safe


# ---------------------------------------------------------------------------
# Options and the baseline comparison


def test_engine_only_compiles_and_prepared_runs_take_options():
    engine = FluxEngine(QUERY, load_dtd(BIB_DTD, root_element="bib"))
    for verb in ("execute", "stream", "open_run", "open_feed"):
        assert not hasattr(engine, verb), verb
    prepared = FluxSession(BIB_DTD, root_element="bib").prepare(QUERY)
    assert prepared.engine is not engine  # another session compiles its own
    expected = prepared.execute(DOC).output
    assert prepared.execute(DOC, options=ExecutionOptions(chunk_size=7)).output == expected
    assert prepared.execute(DOC, chunk_size=7).output == expected
    assert prepared.execute(DOC, sink=NullSink()).output is None


def test_compare_engines_respects_projection_keyword():
    """Regression: the local `projection` result no longer clobbers the flag."""
    from repro import compare_engines

    filtered = compare_engines(QUERY, DOC, BIB_DTD, root_element="bib", projection=True)
    unfiltered = compare_engines(QUERY, DOC, BIB_DTD, root_element="bib", projection=False)
    assert filtered["flux"]["output"] == unfiltered["flux"]["output"]
    assert filtered["projection-dom"]["output"] == filtered["flux"]["output"]


def test_execution_options_validation():
    with pytest.raises(ValueError):
        ExecutionOptions(memory_budget=0)
    with pytest.raises(ValueError):
        ExecutionOptions(chunk_size=0)
    base = ExecutionOptions(memory_budget=1024)
    derived = base.replace(expand_attrs=True)
    assert derived.memory_budget == 1024 and derived.expand_attrs
    assert base is not derived
