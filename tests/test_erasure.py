"""Erased scope automata: each scope steps only on the children it observes.

A scope's automaton is its element's Glushkov automaton with every child the
scope does not observe made a silent move
(:meth:`~repro.dtd.constraints.OrderConstraints.erased`); projection drops
those children and the executor skips them when they still arrive.  The
first tests compile every plan a second time with erasure switched off (the
compile step monkeypatched) and require every run shape to agree on output
and statistics.  The rest pin the scopes that must keep their own automaton
and the events erasure saves.
"""

import pytest

import repro.engine.plan as plan_module
from repro.baselines import NaiveDomEngine
from repro.conformance import CaseGenerator
from repro.core.api import load_dtd
from repro.core.options import ExecutionOptions
from repro.core.session import FluxSession
import repro.engine.executor as executor_module
from repro.engine.executor import StreamExecutor
from repro.engine.plan import CompiledOn
from repro.flux.parser import parse_flux
from repro.serve import SubscriptionHub
from repro.xmark.dtd import xmark_dtd
from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.ticker import ticker_document

XMARK = ("Q1", "Q8", "Q11", "Q13", "Q20")


@pytest.fixture(scope="module")
def xmark_document():
    return generate_document(config_for_scale(1.0)).encode("utf-8")


def _scopes(scope):
    yield scope
    for handler in scope.handlers:
        if isinstance(handler, CompiledOn) and handler.nested is not None:
            yield from _scopes(handler.nested)


def _plan_scopes(prepared):
    return [scope for engine in prepared.engines.values() for scope in _scopes(engine.plan.root_scope)]


def _fingerprint(result):
    stats = result.stats
    return (
        result.output,
        stats.handler_executions,
        stats.peak_buffered_bytes,
        stats.peak_condition_bytes,
        stats.input_events,
        stats.input_bytes,
        stats.buffer_attribution,
    )


def _erased_and_not(monkeypatch, run):
    """``run()`` with erasure, then again with every scope keeping its
    element's own automaton; ``run`` must compile in a fresh session."""
    erased = run()
    with monkeypatch.context() as patch:
        patch.setattr(plan_module, "_erase", lambda *args: None)
        full = run()
    return erased, full


def _push(prepared, document, chunk):
    run = prepared.open_run()
    for start in range(0, len(document), chunk):
        run.feed(document[start : start + chunk])
    return run.finish()


# ---------------------------------------------------------------------------
# Erasure changes no observable of a run


def test_xmark_runs_are_unchanged_by_erasure(monkeypatch, xmark_document):
    def run():
        session = FluxSession(xmark_dtd())
        prepared = {name: session.prepare(BENCHMARK_QUERIES[name]) for name in XMARK}
        scopes = [scope for query in prepared.values() for scope in _plan_scopes(query)]
        runs = {
            name: (
                _fingerprint(query.execute(xmark_document)),
                _fingerprint(_push(query, xmark_document, 1024)),
            )
            for name, query in prepared.items()
        }
        return scopes, runs

    (scopes, erased), (full_scopes, full) = _erased_and_not(monkeypatch, run)
    # No XMark scope falls back, and switching erasure off took effect.
    assert scopes and all(scope.observed is not None for scope in scopes)
    assert all(scope.observed is None for scope in full_scopes)
    for name in XMARK:
        assert erased[name][0] == erased[name][1], name  # pull equals push
        assert erased[name] == full[name], name


def test_oracle_sweep_is_unchanged_by_erasure(monkeypatch):
    cases = list(CaseGenerator(seed=1).cases(200))

    def run():
        erased_scopes = 0
        fingerprints = []
        for case in cases:
            session = FluxSession(load_dtd(case.dtd_source, root_element=case.root))
            options = ExecutionOptions(expand_attrs=case.expand_attrs)
            for _name, source in case.queries:
                prepared = session.prepare(source)
                erased_scopes += sum(scope.observed is not None for scope in _plan_scopes(prepared))
                fingerprints.append(_fingerprint(prepared.execute(case.document, options=options)))
        return erased_scopes, fingerprints

    (erased_scopes, erased), (full_scopes, full) = _erased_and_not(monkeypatch, run)
    assert erased_scopes > 0 and full_scopes == 0
    assert len(erased) == len(full)
    for index, (left, right) in enumerate(zip(erased, full)):
        assert left == right, f"query run {index} diverged"


def test_a_query_set_is_unchanged_by_erasure(monkeypatch, xmark_document):
    members = {name: BENCHMARK_QUERIES[name] for name in ("Q1", "Q11", "Q13", "Q20")}

    def run():
        results = FluxSession(xmark_dtd()).prepare_many(members).execute(xmark_document)
        return {name: _fingerprint(result) for name, result in results.items()}

    erased, full = _erased_and_not(monkeypatch, run)
    assert erased == full


def test_a_hub_is_unchanged_by_erasure(monkeypatch):
    documents = [ticker_document(index).encode("utf-8") for index in range(6)]

    def run():
        hub = SubscriptionHub(xmark_dtd())
        with hub:
            subs = [hub.subscribe(BENCHMARK_QUERIES[name], name=name) for name in ("Q1", "Q13", "Q20")]
            for document in documents:
                hub.feed(document)
            hub.finish()
            return {
                sub.name: [(result.document, _fingerprint(result)) for result in sub.results()]
                for sub in subs
            }

    erased, full = _erased_and_not(monkeypatch, run)
    assert all(len(results) == len(documents) for results in erased.values())
    assert erased == full


def test_erasure_cuts_the_events_reaching_the_executor(monkeypatch, xmark_document):
    """A silent fallback to the element automata shows here: Q1 and Q13
    deliver fewer than half the events, for the same handler executions."""
    seen = []
    real = StreamExecutor.process_batch

    def counting(self, batch):
        batch = list(batch)
        seen.append(len(batch))
        return real(self, batch)

    monkeypatch.setattr(StreamExecutor, "process_batch", counting)

    def run():
        counts = {}
        for name in ("Q1", "Q13"):
            seen.clear()
            result = FluxSession(xmark_dtd()).prepare(BENCHMARK_QUERIES[name]).execute(xmark_document)
            counts[name] = (sum(seen), result.stats.handler_executions)
        return counts

    erased, full = _erased_and_not(monkeypatch, run)
    assert erased == {"Q1": (2404, 602), "Q13": (486, 182)}
    assert full == {"Q1": (5172, 602), "Q13": (1400, 182)}


# ---------------------------------------------------------------------------
# Scopes that keep their element's automaton, and skipped children


def _scope_of(prepared, element_type):
    return next(scope for scope in _plan_scopes(prepared) if scope.element_type == element_type)


def test_a_past_decision_that_depends_on_an_unobserved_child_falls_back():
    """After ``r`` the element is in ``(h, r·, b)`` or ``(r·, c)``: only
    the unobserved ``h`` tells whether a ``b`` may still come."""
    dtd = load_dtd(
        """
        <!ELEMENT s (e*)>
        <!ELEMENT e ((h, r, b) | (r, c))>
        <!ELEMENT h EMPTY> <!ELEMENT r (#PCDATA)>
        <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>
        """,
        root_element="s",
    )
    query = (
        "<out>{ for $e in $ROOT/s/e return"
        " <y>{ for $r in $e/r return { $r } }{ for $b in $e/b return { $b } }<z/></y> }</out>"
    )
    prepared = FluxSession(dtd).prepare(query)
    assert _scope_of(prepared, "e").observed is None
    assert _scope_of(prepared, "s").observed == {"e"}
    document = "<s><e><h/><r>1</r><b>2</b></e><e><r>3</r><c>4</c></e></s>"
    expected = NaiveDomEngine(query).run(document).output
    assert expected == "<out><y><r>1</r><b>2</b><z/></y><y><r>3</r><z/></y></out>"
    assert prepared.execute(document).output == expected


def test_past_tables_not_monotone_in_list_order_fall_back():
    """``past(b)`` is listed before ``past(a)`` but holds later: erased,
    both could fall due at the same observed child and run out of order."""
    dtd = load_dtd(
        "<!ELEMENT s (e)> <!ELEMENT e (a, u, b)>"
        " <!ELEMENT a EMPTY> <!ELEMENT u EMPTY> <!ELEMENT b EMPTY>",
        root_element="s",
    )
    flux = parse_flux(
        "{ ps $ROOT: on s as $s return { ps $s: on e as $e return"
        " { ps $e: on-first past(b) return <late/>; on-first past(a) return <early/> } } }"
    )
    prepared = FluxSession(dtd).prepare(flux)
    assert _scope_of(prepared, "e").observed is None
    assert prepared.execute("<s><e><a/><u/><b/></e></s>").output == "<early/><late/>"


#: ``u`` is no child the ``a`` scope observes, but the root scope buffers
#: ``s/a/u`` for the output after ``s``: projection has to keep it.
_ENCLOSED_DTD = (
    "<!ELEMENT s (a*, k)> <!ELEMENT a (u, v)>"
    " <!ELEMENT u (#PCDATA)> <!ELEMENT v (#PCDATA)> <!ELEMENT k (#PCDATA)>"
)
_ENCLOSED_QUERY = "<r>{ for $a in $ROOT/s/a return <x>{ $a/v }</x> }{ $ROOT/s/a/u }</r>"
_ENCLOSED_DOCUMENT = "<s><a><u>1</u><v>2</v></a><a><u>3</u><v>4</v></a><k>5</k></s>"


@pytest.mark.parametrize("projection", [True, False])
def test_an_unobserved_child_that_arrives_changes_no_state(monkeypatch, projection):
    """A child the scope does not observe gets a step without an operation
    on that scope: no automaton move, no handler, no nested scope."""
    skipped = []
    real = executor_module._Template.step

    def spying(self, name):
        step = real(self, name)
        for index, (kind, node) in enumerate(self.positions):
            observed = node.spec.observed if kind == executor_module._SCOPE else None
            if observed is not None and name not in observed:
                skipped.append((node.spec.element_type, name))
                assert all(position != index for position, _moves, _ons in step.scopes)
        return step

    monkeypatch.setattr(executor_module._Template, "step", spying)
    dtd = load_dtd(_ENCLOSED_DTD, root_element="s")
    prepared = FluxSession(dtd).prepare(_ENCLOSED_QUERY, projection=projection)
    assert _scope_of(prepared, "a").observed == {"v"}
    output = prepared.execute(_ENCLOSED_DOCUMENT).output
    assert output == NaiveDomEngine(_ENCLOSED_QUERY).run(_ENCLOSED_DOCUMENT).output
    assert output == "<r><x><v>2</v></x><x><v>4</v></x><u>1</u><u>3</u></r>"
    assert ("a", "u") in skipped
    if projection:
        # The root scope's buffer is what keeps ``u``; nothing else arrives.
        assert set(skipped) == {("a", "u")}
    else:
        assert ("s", "k") in skipped


def test_an_element_type_missing_from_the_dtd_keeps_every_child():
    """A scope over an undeclared element has no automaton to erase: it
    looks up every child's handlers, and projection keeps every child tag."""
    dtd = load_dtd(
        "<!ELEMENT bib (book*)> <!ELEMENT book (title)> <!ELEMENT title (#PCDATA)>",
        root_element="bib",
    )
    flux = parse_flux(
        "<out>{ ps $ROOT: on bib as $bib return { ps $bib: on magazine as $m return"
        " { ps $m: on title as $t return {$t} } } }</out>"
    )
    prepared = FluxSession(dtd).prepare(flux)
    magazine = _scope_of(prepared, None)
    assert magazine.automaton is None and magazine.observed is None
    document = "<bib><magazine><x/><title>T</title><y>z</y></magazine></bib>"
    assert prepared.execute(document).output == "<out><title>T</title></out>"
    spec = prepared.engine.projection_spec
    state = spec.initial
    for tag in ("bib", "magazine"):
        state = spec.transition(state, tag)
    assert spec.transition(state, "x") is not None


def test_a_scope_beside_a_copy_of_its_element_falls_back(monkeypatch):
    """The copy writes every child of ``e``, observed or not, so a past
    decision may not move from ``u`` to the scope's close."""
    dtd = load_dtd(
        "<!ELEMENT s (e)> <!ELEMENT e ((a, x) | u)>"
        " <!ELEMENT a EMPTY> <!ELEMENT x EMPTY> <!ELEMENT u EMPTY>",
        root_element="s",
    )
    flux = parse_flux(
        "{ ps $ROOT: on s as $s return { ps $s: on e as $e return {$e};"
        " on e as $e return { ps $e: on-first past(a) return <m/> } } }"
    )

    def run():
        prepared = FluxSession(dtd).prepare(flux)
        return _scope_of(prepared, "e").observed, prepared.execute("<s><e><u/></e></s>").output

    (observed, output), (_, full) = _erased_and_not(monkeypatch, run)
    assert observed is None
    assert output == full == "<e><m/><u></u></e>"
