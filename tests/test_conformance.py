"""The conformance harness itself: generator, oracle, case files, shrinker."""

import dataclasses
import os

import pytest
from _reference import split_raw_items, top_level_elements

import repro.conformance.oracle as oracle_module
import repro.fastpath.scanner as scanner_module
from repro.conformance import (
    Case,
    CaseGenerator,
    ConformanceFailure,
    Oracle,
    Shrinker,
    dump_case,
    fuzz,
    load_case,
    parse_case,
)
from repro.core.api import load_dtd
from repro.dtd.validator import validate_document
from repro.fastpath.batch import SoABatch
from repro.xmlstream.parser import iter_events

SWEEP_CASES = 25


@pytest.fixture(scope="module")
def generated_cases():
    return list(CaseGenerator(seed=101).cases(SWEEP_CASES))


# ---------------------------------------------------------------------------
# Generator


def test_generator_is_deterministic_per_seed(generated_cases):
    again = list(CaseGenerator(seed=101).cases(SWEEP_CASES))
    assert again == generated_cases


def test_different_seeds_differ():
    a = CaseGenerator(seed=1).case(0)
    b = CaseGenerator(seed=2).case(0)
    assert a.document != b.document or a.queries != b.queries


def test_generated_documents_conform_to_their_dtds(generated_cases):
    for case in generated_cases:
        schema = load_dtd(case.dtd_source, root_element=case.root)
        report = validate_document(
            schema,
            iter_events(case.document, expand_attrs=case.expand_attrs),
            expected_root=case.root,
        )
        assert report.is_valid, f"{case.describe()}: {report.errors[:3]}"


def test_generated_queries_are_schedulable(generated_cases):
    from repro.engine.engine import FluxEngine

    for case in generated_cases:
        schema = load_dtd(case.dtd_source, root_element=case.root)
        for _name, source in case.queries:
            FluxEngine(source, schema)  # must not raise


def test_generator_covers_adversarial_shapes():
    """Over a modest sweep the generator must hit all advertised shapes."""
    cases = list(CaseGenerator(seed=11).cases(60))
    assert any(case.expand_attrs for case in cases), "no attribute-heavy case"
    assert any("EMPTY" in case.dtd_source for case in cases), "no empty element"
    assert any("#PCDATA|" in case.dtd_source for case in cases), "no mixed content"
    assert any("<d2>" in case.document for case in cases), "no deep spine"
    assert any("&lt;" in case.document for case in cases), "no markup-like text"


# ---------------------------------------------------------------------------
# Oracle


def test_oracle_sweep_is_green(generated_cases):
    oracle = Oracle()
    spills = 0
    for case in generated_cases:
        report = oracle.check(case)  # raises ConformanceFailure on divergence
        spills += report.forced_spills
    assert spills > 0, "no case ever forced a spill; the bounded leg is untested"


def test_oracle_sweep_is_green_with_every_opaque_element_taken_raw(monkeypatch):
    """Generated documents are too small for the raw path's size floor, so
    the floor goes to 0: every plain opaque content is taken raw, on every
    leg of the oracle."""
    monkeypatch.setattr(scanner_module, "_RAW_MIN", 0)
    made = []
    real = scanner_module.RawContent

    def recording(text, count):
        made.append(count)
        return real(text, count)

    monkeypatch.setattr(scanner_module, "RawContent", recording)
    oracle = Oracle()
    cases_raw = 0
    for case in CaseGenerator(seed=1).cases(200):
        before = len(made)
        oracle.check(case)
        cases_raw += len(made) > before
    assert cases_raw > 0, "no case took the raw path"


def test_oracle_sweep_is_green_with_opaque_content_split_between_members(monkeypatch):
    """The raw floor goes to 0 and the oracle's multi-query legs hold every
    member to its solo run while the shared pass takes an element's content
    raw for the members that keep it opaque and another member reads the
    same bytes as events (a split)."""
    monkeypatch.setattr(scanner_module, "_RAW_MIN", 0)
    splits = []
    real = SoABatch.materialize_split

    def recording(batch, fanout):
        splits.extend(split_raw_items(batch, fanout))
        return real(batch, fanout)

    monkeypatch.setattr(SoABatch, "materialize_split", recording)
    oracle = Oracle()
    cases_split = 0
    for case in CaseGenerator(seed=1).cases(200):
        before = len(splits)
        oracle.check(case)
        cases_split += len(splits) > before
    assert cases_split > 0, "no case took a split"


def test_oracle_sweep_is_green_with_every_dropped_subtree_taken_in_bulk(monkeypatch):
    """Both floors go to 0: every plain dropped subtree, run of dropped
    siblings and opaque content is taken in one piece, on every leg of the
    oracle."""
    monkeypatch.setattr(scanner_module, "_BULK_MIN", 0)
    monkeypatch.setattr(scanner_module, "_RAW_MIN", 0)
    runs = []
    real = scanner_module._plain_span

    def recording(span, content):
        counted = real(span, content)
        if counted is not None and top_level_elements(span) > 1:
            runs.append(len(span))
        return counted

    monkeypatch.setattr(scanner_module, "_plain_span", recording)
    oracle = Oracle()
    cases_run = 0
    for case in CaseGenerator(seed=1).cases(200):
        before = len(runs)
        oracle.check(case)
        cases_run += len(runs) > before
    assert cases_run > 0, "no case took a run"


EACH_QUERY_LEGS = (
    "flux-collect",
    "flux-unprojected",
    "flux-streaming",
    "flux-sink",
    "flux-discard",
    "naive-dom",
    "projection-dom",
    "flux-bounded",
    "feed-markup-splits",
    "feed-value-splits",
    "feed-stride-7",
    "feed-bytes-markup",
    "feed-bytes-stride-3",
    "traced",
)
FIRST_QUERY_LEGS = ("serve-metrics", "feed-boundary-splits", "feed-stream-stride-7", "feed-resume")
QUERY_SET_LEGS = (
    "multiquery",
    "multiquery-push",
    "multiquery-bounded({budget}B)",
    "multiquery-bounded({budget}B)-push",
)


def test_leg_labels_are_unique():
    labels = [leg.label for leg in oracle_module.LEGS]
    assert labels == [*EACH_QUERY_LEGS, *FIRST_QUERY_LEGS, *QUERY_SET_LEGS]
    assert len(set(labels)) == len(labels)


def test_every_leg_runs_on_a_buffering_query_set(monkeypatch):
    """Each row of the oracle's table runs in its scope: every query, the
    first query, the whole set (bounded too, since the set buffers)."""
    ran = []

    def recorded(leg):
        def run(state, target, budget):
            seen = leg.run(state, target, budget)
            if seen is not None:
                ran.append((leg.scope, target.name, leg.label))
            return seen

        return dataclasses.replace(leg, run=run)

    monkeypatch.setattr(oracle_module, "LEGS", tuple(map(recorded, oracle_module.LEGS)))
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "buffered-loops.case")
    report = Oracle().examine(load_case(fixture))
    assert report.passed and report.buffered and report.forced_spills, report.divergences
    assert ran == [
        *(("each", name, label) for name in ("q0", "q1", "q2", "q3") for label in EACH_QUERY_LEGS),
        *(("first", "q0", label) for label in FIRST_QUERY_LEGS),
        *(("set", "*", label) for label in QUERY_SET_LEGS),
    ]


def test_oracle_flags_output_divergence():
    """A document violating the DTD's order facts makes the engines disagree.

    The scheduler trusts ``Ord(a, b)`` from the declared content model; a
    document that swaps the order (only runnable with validation off) makes
    the streaming engine emit in stream order while the reference emits in
    query order -- exactly the divergence class the oracle must flag.
    """
    case = Case(
        seed=0,
        index=0,
        root="r",
        dtd_source="<!ELEMENT r (a,b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>",
        document="<r><b>two</b><a>one</a></r>",
        queries=(("q0", "<o>{ $ROOT/r/a } { $ROOT/r/b }</o>"),),
    )
    report = Oracle(validate=False).examine(case)
    assert not report.passed
    assert any("differ" in d.detail or "crash" in d.detail for d in report.divergences)


def test_oracle_rejects_nonconforming_documents():
    case = CaseGenerator(seed=101).case(0).with_document("<e0></e0>")
    report = Oracle().examine(case)
    assert not report.passed
    assert report.divergences[0].kind == "document"


def test_fuzz_runner_reports_coverage():
    report = fuzz(101, 10)
    assert report.ok, [f.summary() for f in report.failures]
    assert report.cases_run == 10
    assert report.queries_checked >= 10
    assert report.elapsed_seconds > 0
    # The sweep must reach the interesting legs, not only streamable no-op
    # cases: a fifth of the cases buffering is a loose floor.
    assert report.cases_buffered >= report.cases_run // 5
    assert report.cases_spilled > 0


# ---------------------------------------------------------------------------
# Case files


def test_case_file_round_trip(generated_cases):
    for case in generated_cases[:10]:
        assert parse_case(dump_case(case)) == case


def test_case_file_rejects_garbage():
    with pytest.raises(ValueError):
        parse_case("not a case file")
    with pytest.raises(ValueError):
        parse_case("# repro fuzz case v1\nmeta seed=1 index=0 root=r\nsection dtd lines=99\nx")


def test_case_file_payloads_survive_headerlike_lines():
    case = Case(
        seed=0,
        index=0,
        root="r",
        dtd_source="<!ELEMENT r (#PCDATA)>\nsection dtd lines=1",
        document="<r>meta seed=9</r>",
        queries=(("q0", "<o>\nsection query:q9 lines=3\n</o>"),),
    )
    assert parse_case(dump_case(case)) == case


# ---------------------------------------------------------------------------
# Shrinker


def test_shrinker_minimizes_against_a_predicate():
    """Shrink against a synthetic predicate ('document mentions a t1')."""
    case = None
    for index in range(50):
        candidate = CaseGenerator(seed=101).case(index)
        if "<t1>" in candidate.document and len(candidate.queries) > 1:
            case = candidate
            break
    assert case is not None

    def fails(c: Case) -> bool:
        return "<t1>" in c.document

    shrunk = Shrinker(fails).shrink(case)
    assert fails(shrunk)
    assert len(shrunk.queries) == 1
    assert len(shrunk.document) <= len(case.document)
    # The shrunk document must still conform to the DTD.
    schema = load_dtd(shrunk.dtd_source, root_element=shrunk.root)
    report = validate_document(
        schema,
        iter_events(shrunk.document, expand_attrs=shrunk.expand_attrs),
        expected_root=shrunk.root,
    )
    assert report.is_valid


def test_shrinker_keeps_failing_cases_failing():
    """Against the real oracle, the repro stays failing while it shrinks."""
    case = Case(
        seed=0,
        index=0,
        root="r",
        dtd_source=(
            "<!ELEMENT r (a*,b*)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>"
        ),
        # Violates the declared order (b before a) -- only runnable with
        # validation off, and guaranteed to make q0 diverge.
        document="<r><b>two</b><b>three</b><a>one</a></r>",
        queries=(
            ("q0", "<o>{ $ROOT/r/a } { $ROOT/r/b }</o>"),
            ("q1", "<p>{ $ROOT/r/b }</p>"),
        ),
    )
    oracle = Oracle(validate=False)
    assert not oracle.examine(case).passed

    def still_fails(candidate: Case) -> bool:
        return not oracle.examine(candidate).passed

    shrinker = Shrinker(still_fails, max_rounds=2)
    shrinker._is_valid = lambda _case, _document: True  # order violation is the point
    shrunk = shrinker.shrink(case)
    assert len(shrunk.queries) == 1
    assert len(shrunk.document) < len(case.document)
    with pytest.raises(ConformanceFailure):
        oracle.check(shrunk)
