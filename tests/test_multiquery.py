"""Multi-query shared-stream execution.

The contract of :mod:`repro.multiquery` is *observational equivalence with
amortized scanning*: for every registered query, output and per-query
statistics must be identical to a solo :func:`repro.run_query` run -- the
only thing that changes is that the document-side pipeline stages run once
for the whole set.  These tests pin down

* the union filter: each slot's sub-stream of a shared pass over an N-slot
  :class:`~repro.pipeline.fanout.DynamicFanout` equals the stream of a
  one-slot fanout over the same automaton exactly -- also after churn,
* byte-identical per-query output in every sink mode (collected, counted,
  writable),
* per-query peak-buffer parity with solo runs,
* the registry/engine API surface (naming, rebuild-on-register, errors).
"""

import io
import itertools

import pytest
from _reference import reference_events

from repro import (
    ExecutionOptions,
    FluxEngine,
    MultiQueryEngine,
    QueryRegistry,
    run_queries,
    run_query,
)
from repro.fastpath import DocumentPass
from repro.pipeline.fanout import DynamicFanout
from repro.xmark.dtd import XMARK_DTD_SOURCE, xmark_dtd
from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.usecases import BIB_DTD_USECASES, XMP_INTRO


@pytest.fixture(scope="module")
def document():
    return generate_document(config_for_scale(0.08, seed=23))


@pytest.fixture(scope="module")
def registry():
    reg = QueryRegistry(xmark_dtd())
    for name, query in BENCHMARK_QUERIES.items():
        reg.register(name, query)
    return reg


@pytest.fixture(scope="module")
def shared_run(registry, document):
    return MultiQueryEngine(registry).run(document)


# ---------------------------------------------------------------------------
# The union projection filter


def _fanout(specs):
    fanout = DynamicFanout()
    for spec in specs:
        fanout.attach(spec)
    return fanout


def _slot_streams(fanout, document, stats_list=()):
    """Per-slot sub-streams of one shared pass: ``materialize_split`` for an
    N-slot fanout, ``materialize`` for a one-slot one."""
    streams = [[] for _ in range(fanout.width)]
    for subs in DocumentPass(fanout, stats_list).scan(document, 4096):
        for stream, sub in zip(streams, subs):
            stream.extend(sub)
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
    """``chars_mask`` ⊆ ``keep_mask`` on every state the document visits."""
    fanout = _fanout(_specs("Q1", "Q13"))
    _slot_streams(fanout, document)
    assert len(fanout._states) > 1
    for state in fanout._states.values():
        # A query inside a keep-everything region necessarily keeps elements.
        assert state.chars_mask & state.keep_mask == state.chars_mask
    assert fanout.initial.keep_mask == 0b11  # both queries watch the root


def test_shared_scan_records_stats_per_query(document):
    from repro.engine.stats import RunStatistics

    stats = [RunStatistics(), RunStatistics()]
    _slot_streams(_fanout(_specs("Q1", "Q13")), document, stats)
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
def test_multiquery_output_identical_to_solo_runs(shared_run, document, name):
    solo = run_query(BENCHMARK_QUERIES[name], document, xmark_dtd())
    assert shared_run[name].output == solo.output


@pytest.mark.parametrize("name", sorted(BENCHMARK_QUERIES))
def test_multiquery_peak_buffer_parity(shared_run, registry, document, name):
    solo = registry.get(name).engine.execute(document)
    shared = shared_run[name].stats
    assert shared.peak_buffered_events == solo.stats.peak_buffered_events
    assert shared.peak_buffered_bytes == solo.stats.peak_buffered_bytes
    assert shared.peak_condition_bytes == solo.stats.peak_condition_bytes
    assert shared.input_events == solo.stats.input_events
    assert shared.input_bytes == solo.stats.input_bytes


def test_multiquery_counting_sink_mode(registry, shared_run, document):
    """``collect_output=False`` keeps the statistics, drops the text."""
    run = MultiQueryEngine(registry, options=ExecutionOptions(collect_output=False)).run(document)
    for name in registry.names:
        assert run[name].output is None
        assert run[name].stats.output_bytes == shared_run[name].stats.output_bytes


def test_multiquery_writable_sink_mode(registry, shared_run, document):
    """Per-query writables receive byte-identical streamed output."""
    writables = {name: io.StringIO() for name in registry.names}
    run = MultiQueryEngine(registry).run_to_sinks(document, writables)
    for name in registry.names:
        assert run[name].output is None
        assert writables[name].getvalue() == shared_run[name].output


def test_multiquery_writable_sink_requires_all_sinks(registry, document):
    with pytest.raises(ValueError, match="no writable provided"):
        MultiQueryEngine(registry).run_to_sinks(document, {"Q1": io.StringIO()})


def test_multiquery_projection_disabled_matches(document):
    reg = QueryRegistry(xmark_dtd(), projection=False)
    for name in ("Q1", "Q13", "Q20"):
        reg.register(name, BENCHMARK_QUERIES[name])
    run = MultiQueryEngine(reg).run(document)
    for name in ("Q1", "Q13", "Q20"):
        assert run[name].output == run_query(BENCHMARK_QUERIES[name], document, xmark_dtd()).output


def test_multiquery_mixed_projection_override(document):
    """One query opting out of projection must not disturb the others."""
    reg = QueryRegistry(xmark_dtd())
    reg.register("filtered", BENCHMARK_QUERIES["Q13"])
    reg.register("unfiltered", BENCHMARK_QUERIES["Q20"], projection=False)
    run = MultiQueryEngine(reg).run(document)
    assert run["filtered"].output == run_query(BENCHMARK_QUERIES["Q13"], document, xmark_dtd()).output
    assert run["unfiltered"].output == run_query(BENCHMARK_QUERIES["Q20"], document, xmark_dtd()).output


# ---------------------------------------------------------------------------
# Registry / engine API


def test_registry_rejects_duplicate_names(registry):
    with pytest.raises(ValueError, match="already registered"):
        registry_copy = QueryRegistry(xmark_dtd())
        registry_copy.register("Q1", BENCHMARK_QUERIES["Q1"])
        registry_copy.register("Q1", BENCHMARK_QUERIES["Q13"])


def test_registry_lookup_and_order(registry):
    assert registry.names == tuple(BENCHMARK_QUERIES)
    assert len(registry) == len(BENCHMARK_QUERIES)
    assert "Q8" in registry
    assert registry.get("Q8").index == list(BENCHMARK_QUERIES).index("Q8")
    with pytest.raises(KeyError, match="no query registered"):
        registry.get("Q999")


def test_engine_rebuilds_merged_filter_on_register(document):
    reg = QueryRegistry(xmark_dtd())
    reg.register("Q13", BENCHMARK_QUERIES["Q13"])
    engine = MultiQueryEngine(reg)
    engine.run(document)
    first = engine.fanout
    engine.run(document)
    assert engine.fanout is first  # attached once while the set is stable
    reg.register("Q20", BENCHMARK_QUERIES["Q20"])
    run = engine.run(document)
    assert engine.fanout is not first
    assert engine.fanout.width == 2 and engine.fanout.recompiles == 0
    assert set(run) == {"Q13", "Q20"}


def test_engine_requires_registered_queries(document):
    engine = MultiQueryEngine(QueryRegistry(xmark_dtd()))
    with pytest.raises(ValueError, match="no queries"):
        engine.run(document)


# ---------------------------------------------------------------------------
# run_queries convenience


def test_run_queries_with_mapping(document):
    run = run_queries(
        {"a": BENCHMARK_QUERIES["Q1"], "b": BENCHMARK_QUERIES["Q13"]},
        document,
        XMARK_DTD_SOURCE,
        root_element="site",
    )
    assert set(run.outputs()) == {"a", "b"}
    assert run["a"].output == run_query(BENCHMARK_QUERIES["Q1"], document, xmark_dtd()).output


def test_run_queries_rejects_bare_string(document):
    with pytest.raises(TypeError, match="mapping or a sequence"):
        run_queries(BENCHMARK_QUERIES["Q1"], document, xmark_dtd())


def test_run_queries_with_sequence_autonames(document):
    run = run_queries(
        [BENCHMARK_QUERIES["Q1"], BENCHMARK_QUERIES["Q13"]],
        document,
        xmark_dtd(),
    )
    assert list(run) == ["q0", "q1"]


def test_run_queries_with_sinks(document):
    sinks = {"a": io.StringIO(), "b": io.StringIO()}
    run = run_queries(
        {"a": BENCHMARK_QUERIES["Q13"], "b": BENCHMARK_QUERIES["Q20"]},
        document,
        xmark_dtd(),
        sinks=sinks,
    )
    assert run["a"].output is None
    assert sinks["a"].getvalue() == run_query(BENCHMARK_QUERIES["Q13"], document, xmark_dtd()).output
    assert sinks["b"].getvalue() == run_query(BENCHMARK_QUERIES["Q20"], document, xmark_dtd()).output


def test_run_queries_on_non_xmark_dtd(tiny_bibliography):
    run = run_queries(
        {"intro": XMP_INTRO, "intro2": XMP_INTRO},
        tiny_bibliography,
        BIB_DTD_USECASES,
        root_element="bib",
    )
    solo = run_query(XMP_INTRO, tiny_bibliography, BIB_DTD_USECASES, root_element="bib")
    assert run["intro"].output == solo.output
    assert run["intro2"].output == solo.output
