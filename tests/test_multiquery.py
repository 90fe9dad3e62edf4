"""Multi-query shared-stream execution.

The contract of ``session.prepare_many`` is *observational equivalence with
amortized scanning*: for every query of the set, output and per-query
statistics must be identical to a solo ``prepare(query).execute`` run --
the only thing that changes is that the document-side pipeline stages run
once for the whole set.  These tests pin down

* the union filter: each slot's sub-stream of a shared pass over an N-slot
  :class:`~repro.pipeline.fanout.DynamicFanout` equals the stream of a
  one-slot fanout over the same automaton exactly -- also after churn,
* byte-identical per-query output in every sink mode (collected, counted,
  writable),
* per-query peak-buffer parity with solo runs,
* the ``prepare_many`` shapes: mapping, sequence, sinks, other schemas,
* the set's other verbs: push runs and feeds seal to a ``MultiQueryRun``
  equal to solo runs, ``stream`` refuses a set.
"""

import io
import itertools

import pytest
from _reference import expanded, reference_events

from repro import FluxEngine, FluxSession, MultiQueryRun, NullSink
from repro.conformance.oracle import _split_at_markup
from repro.fastpath import ByteScanner
from repro.obs.observer import use_tracing
from repro.pipeline.fanout import DynamicFanout
from repro.xmark.dtd import XMARK_DTD_SOURCE, xmark_dtd
from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.usecases import BIB_DTD_USECASES, XMP_INTRO
from repro.xmlstream.source import iter_byte_chunks


@pytest.fixture(scope="module")
def document():
    return generate_document(config_for_scale(0.08, seed=23))


@pytest.fixture(scope="module")
def session():
    with FluxSession(xmark_dtd()) as session:
        yield session


@pytest.fixture(scope="module")
def queries(session):
    return session.prepare_many(BENCHMARK_QUERIES)


@pytest.fixture(scope="module")
def shared_run(queries, document):
    return queries.execute(document)


def _solo(session, query, document):
    return session.prepare(query).execute(document).output


# ---------------------------------------------------------------------------
# The union projection filter


def _fanout(specs):
    fanout = DynamicFanout()
    for spec in specs:
        fanout.attach(spec)
    return fanout


def _batches(scanner, document):
    yield from map(scanner.feed_batch, iter_byte_chunks(document, 4096))
    yield scanner.close_batch()


def _slot_streams(fanout, document):
    """Per-slot sub-streams of one shared pass: ``materialize_split`` for an
    N-slot fanout, ``materialize`` for a one-slot one.  Raw content is
    expanded: the pass takes an element's content raw only where every slot
    keeping it is opaque there, but the events it stands for are the same."""
    streams = [[] for _ in range(fanout.width)]
    for batch in _batches(ByteScanner(fanout), document):
        subs = [batch.materialize()] if fanout.width == 1 else batch.materialize_split(fanout)
        for stream, sub in zip(streams, subs):
            stream.extend(expanded(sub))
    return streams


def _specs(*names):
    specs = [FluxEngine(BENCHMARK_QUERIES[name], xmark_dtd()).projection_spec for name in names]
    assert all(spec is not None for spec in specs)
    return specs


@pytest.mark.parametrize(
    "pair", list(itertools.combinations(sorted(BENCHMARK_QUERIES), 2)), ids="+".join
)
def test_merged_filter_accepts_union_of_pair(pair, document):
    """For each query pair, each membership sub-stream of the shared pass
    (``materialize_split`` over a two-slot fanout, no churn) equals the
    query's solo stream (``materialize`` over its own one-slot fanout)."""
    specs = _specs(*pair)
    solo_streams = [_slot_streams(_fanout([spec]), document)[0] for spec in specs]
    sub_streams = _slot_streams(_fanout(specs), document)
    # Events are value-comparable frozen dataclasses.
    assert sub_streams[0] == solo_streams[0]
    assert sub_streams[1] == solo_streams[1]


def test_merged_filter_with_projection_disabled_component(document):
    """A ``None`` slot (projection off) must see the full stream."""
    _, unfiltered = _slot_streams(_fanout([*_specs("Q13"), None]), document)
    assert unfiltered == reference_events(document)


def test_merged_state_membership_masks(document):
    """``chars_mask`` ⊆ ``keep_mask`` on every row the document visits."""
    fanout = _fanout(_specs("Q1", "Q13"))
    _slot_streams(fanout, document)
    assert len(fanout.keep_masks) == len(fanout.chars_masks) > 1
    for keep_mask, chars_mask in zip(fanout.keep_masks, fanout.chars_masks):
        # A query inside a keep-everything region necessarily keeps elements.
        assert chars_mask & keep_mask == chars_mask
    assert fanout.keep_masks[0] == 0b11  # both queries watch the root


def test_shared_scan_records_stats_per_query(session, document):
    run = session.prepare_many({"Q1": BENCHMARK_QUERIES["Q1"], "Q13": BENCHMARK_QUERIES["Q13"]})
    stats = [result.stats for _, result in run.execute(document).items()]
    # Both queries are charged the *pre-projection* totals of the shared pass.
    assert stats[0].input_events == stats[1].input_events == len(reference_events(document))
    assert stats[0].input_bytes == stats[1].input_bytes > 0


def test_one_spec_yields_one_sub_stream_in_every_fanout_shape(document):
    """Solo (one slot), static multi-query (three slots, no churn) and a
    churned hub fanout (attach, detach, compact) hand the same query the
    same events."""
    q1, q13, q20 = _specs("Q1", "Q13", "Q20")
    solo = _slot_streams(_fanout([q13]), document)[0]
    assert solo  # Q13 keeps something of an XMark document

    assert _slot_streams(_fanout([q1, q13, q20]), document)[1] == solo

    churned = DynamicFanout()
    first = churned.attach(q1)
    slot = churned.attach(q13)
    assert _slot_streams(churned, document)[churned.order().index(slot)] == solo
    churned.detach(first)  # tombstone: Q13 keeps its seat
    assert _slot_streams(churned, document)[churned.order().index(slot)] == solo
    churned.attach(q20)
    assert churned.compact() == 1  # seats renumber
    assert churned.order().index(slot) == 0
    assert _slot_streams(churned, document)[0] == solo


# ---------------------------------------------------------------------------
# End-to-end equivalence with solo runs


@pytest.mark.parametrize("name", sorted(BENCHMARK_QUERIES))
def test_multiquery_output_identical_to_solo_runs(session, shared_run, document, name):
    assert shared_run[name].output == _solo(session, BENCHMARK_QUERIES[name], document)


@pytest.mark.parametrize("name", sorted(BENCHMARK_QUERIES))
def test_multiquery_peak_buffer_parity(session, shared_run, document, name):
    solo = session.prepare(BENCHMARK_QUERIES[name]).execute(document)
    shared = shared_run[name].stats
    assert shared.peak_buffered_events == solo.stats.peak_buffered_events
    assert shared.peak_buffered_bytes == solo.stats.peak_buffered_bytes
    assert shared.peak_condition_bytes == solo.stats.peak_condition_bytes
    assert shared.input_events == solo.stats.input_events
    assert shared.input_bytes == solo.stats.input_bytes


def test_multiquery_counting_sink_mode(queries, shared_run, document):
    """A ``NullSink`` per member keeps the statistics, drops the text."""
    run = queries.execute(document, sinks={name: NullSink() for name in queries.names})
    for name in queries.names:
        assert run[name].output is None
        assert run[name].stats.output_bytes == shared_run[name].stats.output_bytes


def test_multiquery_writable_sink_mode(queries, shared_run, document):
    """Per-query writables receive byte-identical streamed output."""
    writables = {name: io.StringIO() for name in queries.names}
    run = queries.execute(document, sinks=writables)
    for name in queries.names:
        assert run[name].output is None
        assert writables[name].getvalue() == shared_run[name].output


def test_multiquery_writable_sink_requires_all_sinks(queries, document):
    with pytest.raises(ValueError, match="no writable provided"):
        queries.execute(document, sinks={"Q1": io.StringIO()})


def test_multiquery_projection_disabled_matches(session, document):
    names = ("Q1", "Q13", "Q20")
    unfiltered = session.prepare_many(
        {name: BENCHMARK_QUERIES[name] for name in names}, projection=False
    )
    assert all(engine.projection_spec is None for engine in unfiltered.engines.values())
    run = unfiltered.execute(document)
    for name in names:
        assert run[name].output == _solo(session, BENCHMARK_QUERIES[name], document)


# ---------------------------------------------------------------------------
# prepare_many shapes


def test_prepare_many_with_mapping(session, document):
    with FluxSession(XMARK_DTD_SOURCE, root_element="site") as from_source:
        run = from_source.prepare_many(
            {"a": BENCHMARK_QUERIES["Q1"], "b": BENCHMARK_QUERIES["Q13"]}
        ).execute(document)
    assert set(run.outputs()) == {"a", "b"}
    assert run["a"].output == _solo(session, BENCHMARK_QUERIES["Q1"], document)


def test_prepare_many_with_sequence_autonames(session, document):
    run = session.prepare_many([BENCHMARK_QUERIES["Q1"], BENCHMARK_QUERIES["Q13"]]).execute(
        document
    )
    assert list(run) == ["q0", "q1"]


def test_prepare_many_with_sinks(session, document):
    sinks = {"a": io.StringIO(), "b": io.StringIO()}
    run = session.prepare_many(
        {"a": BENCHMARK_QUERIES["Q13"], "b": BENCHMARK_QUERIES["Q20"]}
    ).execute(document, sinks=sinks)
    assert run["a"].output is None
    assert sinks["a"].getvalue() == _solo(session, BENCHMARK_QUERIES["Q13"], document)
    assert sinks["b"].getvalue() == _solo(session, BENCHMARK_QUERIES["Q20"], document)


def test_prepare_many_on_non_xmark_dtd(tiny_bibliography):
    with FluxSession(BIB_DTD_USECASES, root_element="bib") as bib:
        run = bib.prepare_many({"intro": XMP_INTRO, "intro2": XMP_INTRO}).execute(
            tiny_bibliography
        )
        solo = _solo(bib, XMP_INTRO, tiny_bibliography)
    assert run["intro"].output == solo
    assert run["intro2"].output == solo


def test_prepare_many_reads_a_path(session, document, tmp_path):
    path = tmp_path / "auction.xml"
    path.write_text(document, encoding="utf-8")
    members = {name: BENCHMARK_QUERIES[name] for name in ("Q1", "Q13")}
    assert (
        session.prepare_many(members).execute(path).outputs()
        == session.prepare_many(members).execute(document).outputs()
    )


# ---------------------------------------------------------------------------
# The prepared set: members, union fanout, per-pass bookkeeping


def _counter(name):
    from repro.obs.metrics import global_registry

    return global_registry().counter(name)


def test_prepared_set_names_keep_preparation_order(session, queries):
    assert queries.names == tuple(BENCHMARK_QUERIES)
    assert len(queries) == len(BENCHMARK_QUERIES)
    assert list(queries.engines) == list(BENCHMARK_QUERIES)
    # Members are the session's cached plans, not private copies.
    assert queries.engines["Q8"] is session.prepare(BENCHMARK_QUERIES["Q8"]).engine


def test_prepared_set_fanout_has_one_slot_per_member_in_order(queries):
    fanout = queries.fanout
    assert fanout.width == fanout.attaches == len(queries)
    assert fanout.recompiles == 0
    assert fanout.specs() == tuple(engine.projection_spec for engine in queries.engines.values())


def test_prepared_set_keeps_its_fanout_across_passes(session, document):
    single = session.prepare_many({"Q13": BENCHMARK_QUERIES["Q13"]})
    first = single.execute(document)
    fanout = single.fanout
    assert single.execute(document).outputs() == first.outputs()
    assert single.fanout is fanout and fanout.width == 1 and fanout.recompiles == 0
    # A larger set is a new set with its own fanout; the first is untouched.
    pair = session.prepare_many({"Q13": BENCHMARK_QUERIES["Q13"], "Q20": BENCHMARK_QUERIES["Q20"]})
    assert pair.fanout is not fanout and pair.fanout.width == 2
    assert set(pair.execute(document)) == {"Q13", "Q20"}
    assert single.fanout.width == 1
    assert single.execute(document).outputs() == first.outputs()


def test_prepare_many_same_query_twice_compiles_once(document):
    with FluxSession(xmark_dtd()) as fresh:
        pair = fresh.prepare_many({"a": BENCHMARK_QUERIES["Q1"], "b": BENCHMARK_QUERIES["Q1"]})
        assert fresh.cache.snapshot()["misses"] == 1
        assert pair.engines["a"] is pair.engines["b"]
        assert pair.fanout.width == 2  # still one seat per name
        run = pair.execute(document)
        assert run["a"].output == run["b"].output == _solo(fresh, BENCHMARK_QUERIES["Q1"], document)


def test_prepare_many_projection_flag_selects_other_plans(session):
    projected = session.prepare_many({"Q13": BENCHMARK_QUERIES["Q13"]})
    unfiltered = session.prepare_many({"Q13": BENCHMARK_QUERIES["Q13"]}, projection=False)
    assert projected.engines["Q13"] is not unfiltered.engines["Q13"]
    assert projected.fanout.specs() != (None,)
    assert unfiltered.fanout.specs() == (None,)


def test_prepared_set_pass_releases_every_buffered_byte(shared_run):
    # Balanced ledger: every byte a seat charged during the pass was released.
    assert any(result.stats.peak_buffered_bytes > 0 for _, result in shared_run.items())
    for _, result in shared_run.items():
        assert result.stats.resident_bytes_current == 0


def test_prepared_set_folds_every_seat_into_session_statistics(document):
    with FluxSession(xmark_dtd()) as fresh:
        pair = fresh.prepare_many({"a": BENCHMARK_QUERIES["Q1"], "b": BENCHMARK_QUERIES["Q13"]})
        run = pair.execute(document)
        statistics = fresh.statistics
        assert statistics.runs == 2 and statistics.feed_runs == 0
        assert statistics.output_bytes == sum(result.stats.output_bytes for _, result in run.items())
        assert statistics.input_events == 2 * run["a"].stats.input_events


def test_multiquery_pass_counters(queries, document):
    passes = _counter("repro.multiquery.passes.total")
    served = _counter("repro.multiquery.queries.total")
    before = (passes.value, served.value)
    queries.execute(document, sinks={name: NullSink() for name in queries.names})
    assert (passes.value, served.value) == (before[0] + 1, before[1] + len(queries))
    # A pass refused before it starts is not counted.
    with pytest.raises(ValueError, match="no writable provided"):
        queries.execute(document, sinks={})
    assert (passes.value, served.value) == (before[0] + 1, before[1] + len(queries))


def test_multiquery_missing_sinks_are_named_in_order(queries, document):
    given = {name: io.StringIO() for name in ("Q1", "Q13")}
    missing = [name for name in queries.names if name not in given]
    with pytest.raises(ValueError) as caught:
        queries.execute(document, sinks=given)
    assert str(caught.value) == f"no writable provided for queries: {missing}"
    assert all(writable.getvalue() == "" for writable in given.values())


def test_prepared_set_seats_share_the_pass_trace(session, document):
    pair = session.prepare_many({"a": BENCHMARK_QUERIES["Q1"], "b": BENCHMARK_QUERIES["Q13"]})
    untraced = pair.execute(document)
    assert (untraced.trace is not None) == use_tracing(None)  # REPRO_TRACE=1 forces it
    assert untraced.memory is None
    traced = pair.execute(document, trace=True)
    assert traced.trace is not None and traced.trace.mode == "multiquery"
    assert all(result.trace is traced.trace for _, result in traced.items())
    assert traced.outputs() == untraced.outputs()


def test_closed_session_refuses_sets_and_their_passes(document):
    fresh = FluxSession(xmark_dtd())
    pair = fresh.prepare_many({"a": BENCHMARK_QUERIES["Q1"]})
    fresh.close()
    with pytest.raises(RuntimeError, match="closed"):
        fresh.prepare_many({"a": BENCHMARK_QUERIES["Q1"]})
    with pytest.raises(RuntimeError, match="closed"):
        pair.execute(document)


def test_multiquery_sinks_naming_no_member_are_rejected(queries, document):
    """A typo in a sink name is an error, not a silently unused writable."""
    given = {name: io.StringIO() for name in queries.names}
    typo = given["Q20 "] = io.StringIO()
    with pytest.raises(ValueError, match=r"not members: \['Q20 '\]"):
        queries.execute(document, sinks=given)
    with pytest.raises(ValueError, match="not members"):
        queries.open_run(sinks=given)
    assert typo.getvalue() == ""


# ---------------------------------------------------------------------------
# One prepared shape: a set pushes, feeds and refuses to stream


PUSHED = ("Q1", "Q8", "Q13", "Q20")


@pytest.fixture(scope="module")
def small_documents():
    return [generate_document(config_for_scale(0.01, seed=seed)) for seed in (3, 5, 7)]


def _assert_solo_parity(session, run, document):
    assert isinstance(run, MultiQueryRun)
    assert list(run) == list(PUSHED)
    for name in PUSHED:
        solo = session.prepare(BENCHMARK_QUERIES[name]).execute(document)
        assert run[name].output == solo.output, name
        assert run[name].stats.peak_buffered_bytes == solo.stats.peak_buffered_bytes, name


def test_set_open_run_at_markup_splits_equals_solo_runs(session, small_documents):
    document = small_documents[0]
    members = session.prepare_many({name: BENCHMARK_QUERIES[name] for name in PUSHED})
    with members.open_run() as run:
        for chunk in _split_at_markup(document):
            run.feed(chunk)
    _assert_solo_parity(session, run.result, document)
    assert run.result.memory is None


def test_set_open_feed_across_document_boundaries_equals_solo_runs(session, small_documents):
    stream = "\n".join(small_documents).encode("utf-8")
    boundaries, offset = [], 0
    for document in small_documents[:-1]:
        offset += len(document.encode("utf-8")) + 1
        boundaries.append(offset)
    cuts = sorted(
        {cut for boundary in boundaries for cut in (boundary - 1, boundary, boundary + 1)}
        | set(range(997, len(stream), 997))
    )
    members = session.prepare_many({name: BENCHMARK_QUERIES[name] for name in PUSHED})
    sealed = []
    with members.open_feed(on_document=sealed.append) as feed:
        for begin, end in zip([0, *cuts], [*cuts, len(stream)]):
            feed.feed(stream[begin:end])
    assert [document.index for document in sealed] == [0, 1, 2]
    for document, text in zip(sealed, small_documents):
        _assert_solo_parity(session, document.result, text)


def test_stream_refuses_a_set_of_several_queries(queries, document):
    with pytest.raises(TypeError, match="use open_run"):
        queries.stream(document)
    single = queries.session.prepare_many({"Q13": BENCHMARK_QUERIES["Q13"]})
    assert "".join(single.stream(document)) == single.execute(document)["Q13"].output
