"""The differential oracle: every run shape of a case, held to one reference.

The FluX guarantee (Proposition 3.2 / Theorem 4.3): a schema-scheduled run
produces exactly what conventional evaluation produces.  Per query the
:class:`NaiveDomEngine` output is the reference.  Each row of :data:`LEGS`
is one run shape: its label, its scope (each query, the first query or the
whole set), how it opens and feeds the run, and the shared checks it asks
for (see ``Oracle._verify``).

A crash is recorded and ends the case; any other divergence is recorded and
the next row runs.  :meth:`Oracle.check` raises :class:`ConformanceFailure`
carrying the :class:`Divergence` records; :meth:`Oracle.examine` returns
them in a :class:`CaseReport` with the case's coverage facts.
"""

from __future__ import annotations

import io
import json
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.baselines import NaiveDomEngine, ProjectionDomEngine
from repro.conformance.cases import Case
from repro.core.api import load_dtd
from repro.core.options import ExecutionOptions
from repro.core.session import FluxSession
from repro.dtd.validator import validate_document
from repro.engine.stats import RunStatistics
from repro.obs import serve as _serve
from repro.obs.tracer import validate_span_tree
from repro.pipeline.sinks import NullSink
from repro.xmlstream.events import Characters
from repro.xmlstream.parser import iter_events, parse_tree

#: Bounded runs never get a budget below this many bytes; the governor
#: tolerates tiny budgets (it force-seals open tails), this floor only keeps
#: page bookkeeping from dominating the oracle's runtime.
MIN_BUDGET_BYTES = 32

#: Fixed stride of the stride-split legs: a small prime, so chunk
#: boundaries drift through tags, entity references and text alike.
FEED_STRIDE = 7

#: Documents per continuous-feed stream: enough for interior boundaries
#: (first, middle, last) without dominating the sweep's runtime.
FEED_COPIES = 3


def _split_at_markup(document: str) -> List[str]:
    """Chunks cut right before *and* right after every ``<``: every piece of
    markup arrives truncated, the most hostile split for a tokenizer."""
    return _split_at(
        document, (j for i, char in enumerate(document) if char == "<" for j in (i, i + 1))
    )


def _split_in_values(document: str) -> List[str]:
    """Chunks cut one and two characters after every ``"`` and ``&``: inside
    attribute values, between a closing quote and ``>`` and inside entity
    references."""
    return _split_at(
        document,
        (j for i, char in enumerate(document) if char in '"&' for j in (i + 1, i + 2)),
    )


def _split_at_boundaries(stream: bytes) -> List[bytes]:
    """Chunks of a ``FEED_COPIES``-document stream cut right before, at and
    right after every document-boundary byte."""
    unit = len(stream) // FEED_COPIES
    return _split_at(
        stream,
        (edge * unit + shift for edge in range(1, FEED_COPIES + 1) for shift in (-2, -1, 0)),
    )


def _split_at(document, points) -> list:
    """Chunks of ``document`` (text or bytes) cut at every in-range offset in ``points``."""
    cuts = sorted({point for point in points if 0 < point < len(document)})
    return [document[begin:end] for begin, end in zip([0, *cuts], [*cuts, len(document)])]


def _strided(stride: int, encode: bool = False) -> Callable[[object], list]:
    """A splitter into chunks of a fixed stride, of the UTF-8 bytes when
    ``encode`` (fed as bytes, not text)."""

    def split(document):
        if encode:
            document = document.encode("utf-8")
        return [document[i : i + stride] for i in range(0, len(document), stride)]

    return split


def _bytes_at_markup(document: str) -> List[bytes]:
    """:func:`_split_at_markup` in UTF-8 byte chunks (fed as bytes, not text)."""
    return [chunk.encode("utf-8") for chunk in _split_at_markup(document)]


def _reference_input(document: str, expand_attrs: bool) -> Tuple[int, int]:
    """Event and byte totals of the reference event stream.

    Adjacent character events count once (one logical text node), which is
    what the engine's input statistics report.
    """
    events = cost = 0
    in_text = False
    for event in iter_events(document, expand_attrs=expand_attrs, document_events=False):
        is_text = event.__class__ is Characters
        if not (is_text and in_text):
            events += 1
        in_text = is_text
        cost += event.cost_in_bytes()
    return events, cost


@dataclass(frozen=True)
class Divergence:
    """One violated expectation of a case run."""

    query: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.query} :: {self.kind}] {self.detail}"


class ConformanceFailure(AssertionError):
    """Raised when a case violates byte-identity or a runtime invariant."""

    def __init__(self, case: Case, divergences: List[Divergence]):
        self.case = case
        self.divergences = list(divergences)
        summary = "; ".join(str(item) for item in self.divergences[:4])
        if len(self.divergences) > 4:
            summary += f"; ... ({len(self.divergences)} total)"
        super().__init__(f"{case.describe()}: {summary}")


@dataclass
class CaseReport:
    """Coverage facts of one green case (what the sweep actually exercised)."""

    case: Case
    output_bytes: int = 0
    peak_buffered_bytes: int = 0
    buffered: bool = False
    forced_spills: bool = False
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.divergences


# ------------------------------------------------------------------ the legs


@dataclass
class _Query:
    """What a leg runs on: one query of the case, or (named ``*``) the set.
    ``peak`` is the logical peak every leg must report: the
    ``flux-collect`` run's for a query, the members' sum for the set."""

    name: str
    source: str = ""
    prepared: object = None
    expected: str = ""
    peak: int = 0


@dataclass
class _State:
    """One case in flight."""

    case: Case
    schema: object
    session: FluxSession
    tree: object
    options: ExecutionOptions
    #: (events, bytes) of the reference event stream; events only for a
    #: non-ASCII document (the scanner counts UTF-8 bytes, the reference
    #: characters).
    input_totals: Tuple[int, ...]
    queries: Dict[str, _Query] = field(default_factory=dict)
    #: The first document's ``end_offset`` in a feed: ``feed-resume``'s start.
    first_end: Optional[int] = None


class _Result(NamedTuple):
    """Output and statistics of a run shape that returns no result object."""

    output: Optional[str]
    stats: object
    trace: object = None


@dataclass
class _Seen:
    """What one leg produced: ``(query name, where, result)`` per sealed run
    (``where`` names a feed's document), the findings of the leg's own
    checks, and the peak resident bytes of a bounded run."""

    runs: List[Tuple[str, str, object]]
    problems: List[str] = field(default_factory=list)
    resident: Optional[int] = None


def _one(query: _Query, result, **facts) -> _Seen:
    return _Seen([(query.name, "", result)], **facts)


def _collect(state: _State, query: _Query, budget) -> _Seen:
    """The plain pull run: it fixes the peak the query's later legs report."""
    result = query.prepared.execute(state.case.document, options=state.options)
    query.peak = result.stats.peak_buffered_bytes
    return _one(query, result)


def _execute(sink=None, projection: bool = True, **options):
    """A pull leg: ``execute`` into a fresh ``sink()`` (collected when
    ``None``) with the leg's budget and ``options`` over the case's.  The
    compiled plan is reused, so a budget is a fresh run-owned governor."""

    def run(state: _State, query: _Query, budget) -> _Seen:
        prepared = query.prepared
        if not projection:
            prepared = state.session.prepare(query.source, projection=False)
        into = sink() if sink else None
        run_options = state.options.replace(memory_budget=budget, **options)
        result = prepared.execute(state.case.document, sink=into, options=run_options)
        if isinstance(into, io.StringIO):
            result = _Result(into.getvalue(), result.stats)
        return _one(query, result, resident=result.stats.peak_resident_bytes)

    return run


def _streaming(state: _State, query: _Query, budget) -> _Seen:
    run = query.prepared.stream(state.case.document, options=state.options)
    return _one(query, _Result("".join(run), run.stats))


def _naive_stats_only(state: _State, query: _Query, budget) -> _Seen:
    result = NaiveDomEngine(query.source).run_tree(state.tree, collect_output=False)
    return _one(query, _Result(result.output, result))


def _projection_dom(state: _State, query: _Query, budget) -> _Seen:
    events = iter_events(
        state.case.document, expand_attrs=state.case.expand_attrs, document_events=False
    )
    result = ProjectionDomEngine(query.source).run_events(events)
    return _one(query, _Result(result.output, result))


def _push(split: Callable[[str], list]):
    """A push-mode leg: the document fed to ``open_run`` in ``split(document)``
    chunks; it must seal byte-identical to the pull run at *any* split."""

    def run(state: _State, query: _Query, budget) -> _Seen:
        with query.prepared.open_run(options=state.options) as handle:
            for chunk in split(state.case.document):
                handle.feed(chunk)
        return _one(query, handle.result)

    return run


def _served(state: _State, query: _Query, budget) -> _Seen:
    """A push-mode run under the metrics server, ``/progress`` and
    ``/metrics`` scraped once half the document is fed: output bytes must not
    move, and the watermarks must show the half-fed document."""
    port = _serve.ensure_server(0).port
    half = len(state.case.document) // 2
    head, tail = state.case.document[:half], state.case.document[half:]
    with query.prepared.open_run(options=state.options) as handle:
        if head:
            handle.feed(head)
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/progress", timeout=10) as got:
            progress = json.loads(got.read().decode("utf-8"))
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=10) as got:
            metrics = got.read().decode("utf-8")
        if tail:
            handle.feed(tail)
    seen = _one(query, handle.result)
    if progress.get("open_runs", 0) < 1:
        seen.problems.append("/progress showed no open runs during a live feed")
    fed_bytes = [entry.get("bytes_fed") for entry in progress.get("runs", [])]
    if half and len(head) not in fed_bytes:
        seen.problems.append(f"/progress watermarks {fed_bytes} miss the {len(head)}B fed")
    if "repro_runs_total" not in metrics:
        seen.problems.append("/metrics exposition is missing repro_runs_total")
    return seen


def _feed(split: Callable[[bytes], list], resume: bool = False):
    """A continuous-feed leg: the document ``FEED_COPIES`` times, each
    ``\\n``-terminated, as one ``open_feed`` stream in ``split(stream)``
    chunks; every sealed document is held to the solo run.  ``resume``
    restarts past the first document's recorded ``end_offset`` and must
    replay the rest (the crash-recovery contract)."""

    def run(state: _State, query: _Query, budget) -> Optional[_Seen]:
        resume_from = state.first_end if resume else None
        if resume and resume_from is None:
            return None
        stream = (state.case.document.encode("utf-8") + b"\n") * FEED_COPIES
        with query.prepared.open_feed(options=state.options, resume_from=resume_from) as feed:
            documents = [document for chunk in split(stream) for document in feed.feed(chunk)]
        summary = feed.result
        if documents and state.first_end is None:
            state.first_end = documents[0].end_offset
        seen = _Seen([(query.name, f"document {doc.index}", doc.result) for doc in documents])
        wanted = FEED_COPIES - 1 if resume else FEED_COPIES
        if len(documents) != wanted:
            seen.problems.append(f"sealed {len(documents)} documents, expected {wanted}")
        if documents and summary.resume_offset != documents[-1].end_offset:
            seen.problems.append(
                f"resume_offset {summary.resume_offset} != end_offset {documents[-1].end_offset}"
            )
        seen.problems.extend(
            f"document {doc.index}: degenerate framing [{doc.start_offset}, {doc.end_offset})"
            for doc in documents
            if doc.end_offset <= doc.start_offset
        )
        return seen

    return run


def _shared(push: bool):
    """A shared pass of the whole set, pulled or push-fed at markup splits.
    Bounded, it runs only when some member buffers, under one governor the
    pass's session owns."""

    def run(state: _State, whole: _Query, budget) -> Optional[_Seen]:
        if budget is not None and not whole.peak:
            return None
        # The case session's plan cache: no member is compiled again.
        with FluxSession(
            state.schema,
            options=ExecutionOptions(memory_budget=budget),
            plan_cache=state.session.cache,
        ) as session:
            queries = session.prepare_many(state.case.query_map)
            if push:
                with queries.open_run(options=state.options) as handle:
                    for chunk in _split_at_markup(state.case.document):
                        handle.feed(chunk)
                result = handle.result
            else:
                result = queries.execute(state.case.document, options=state.options)
        resident = (result.memory or {}).get("peak_resident_bytes")  # None unbounded
        return _Seen([(name, "", result[name]) for name in state.queries], resident=resident)

    return run


# The shared checks a leg can ask for (see ``Oracle._verify``).
OUTPUT = "output"  # output bytes equal the reference
DISCARD = "discard"  # no output text, but the reference's output byte count
BALANCED = "balanced"  # ledgers back at zero, attribution exact
PEAK = "peak"  # logical peak equals the solo peak
INPUT = "input"  # input totals equal the reference event stream's
BUDGET = "budget"  # resident bytes within the budget
SPILL = "spill"  # a page was spilled whenever the budget is below the peak
SPANS = "spans"  # a trace was recorded and its span tree is well formed

_PUSHED = (OUTPUT, BALANCED, PEAK)
_BOUNDED = (*_PUSHED, BUDGET)


@dataclass(frozen=True)
class _Leg:
    """One run shape: ``run(state, target, budget)`` opens, feeds and seals
    it, or returns ``None`` when the leg does not apply to the case.  A
    ``bounded`` leg runs under half the target's peak, so a plan that
    buffers at all must spill; ``{budget}`` in the label is filled in."""

    label: str
    scope: str  # "each" query, the "first" query, or the query "set"
    run: Callable[[_State, _Query, Optional[int]], Optional[_Seen]]
    checks: Tuple[str, ...]
    bounded: bool = False


#: Every leg, in the order a case runs them: the ``each`` rows per query in
#: case order, then the ``first`` rows, then the ``set`` rows.
LEGS: Tuple[_Leg, ...] = (
    _Leg("flux-collect", "each", _collect, (OUTPUT, BALANCED, INPUT)),
    _Leg("flux-unprojected", "each", _execute(projection=False), (OUTPUT, INPUT)),
    _Leg("flux-streaming", "each", _streaming, (OUTPUT, BALANCED)),
    _Leg("flux-sink", "each", _execute(sink=io.StringIO), (OUTPUT, BALANCED)),
    _Leg("flux-discard", "each", _execute(sink=NullSink), (DISCARD, PEAK)),
    _Leg("naive-dom", "each", _naive_stats_only, (DISCARD,)),
    _Leg("projection-dom", "each", _projection_dom, (OUTPUT,)),
    _Leg("flux-bounded", "each", _execute(), (*_BOUNDED, SPILL), bounded=True),
    _Leg("feed-markup-splits", "each", _push(_split_at_markup), _PUSHED),
    _Leg("feed-value-splits", "each", _push(_split_in_values), _PUSHED),
    _Leg(f"feed-stride-{FEED_STRIDE}", "each", _push(_strided(FEED_STRIDE)), _PUSHED),
    _Leg("feed-bytes-markup", "each", _push(_bytes_at_markup), _PUSHED),
    # A stride of 3 bytes splits every multi-byte UTF-8 sequence.
    _Leg("feed-bytes-stride-3", "each", _push(_strided(3, encode=True)), _PUSHED),
    _Leg("traced", "each", _execute(trace=True), (*_PUSHED, SPANS)),
    _Leg("serve-metrics", "first", _served, (OUTPUT, BALANCED)),
    _Leg("feed-boundary-splits", "first", _feed(_split_at_boundaries), _PUSHED),
    _Leg(f"feed-stream-stride-{FEED_STRIDE}", "first", _feed(_strided(FEED_STRIDE)), _PUSHED),
    _Leg("feed-resume", "first", _feed(_split_at_boundaries, resume=True), _PUSHED),
    _Leg("multiquery", "set", _shared(push=False), _PUSHED),
    _Leg("multiquery-push", "set", _shared(push=True), _PUSHED),
    _Leg("multiquery-bounded({budget}B)", "set", _shared(push=False), _BOUNDED, bounded=True),
    _Leg("multiquery-bounded({budget}B)-push", "set", _shared(push=True), _BOUNDED, bounded=True),
)


class Oracle:
    """Checks cases; stateless apart from configuration.

    ``check`` raises :class:`ConformanceFailure` on the first failing case;
    ``examine`` returns the :class:`CaseReport` with divergences collected
    instead (the shrinker's predicate uses this non-raising form).
    """

    def __init__(self, *, validate: bool = True):
        self.validate = validate

    def check(self, case: Case) -> CaseReport:
        """Run the full differential sweep; raise on any divergence."""
        report = self.examine(case)
        if not report.passed:
            raise ConformanceFailure(case, report.divergences)
        return report

    def examine(self, case: Case) -> CaseReport:
        """Like :meth:`check` but collects divergences instead of raising."""
        report = CaseReport(case)
        record = report.divergences.append
        try:
            schema = load_dtd(case.dtd_source, root_element=case.root)
        except Exception as exc:  # noqa: BLE001 - a bad DTD is a finding, not a crash
            record(Divergence("-", "dtd", f"DTD failed to load: {exc!r}"))
            return report
        try:
            if self.validate:
                validation = validate_document(
                    schema,
                    iter_events(case.document, expand_attrs=case.expand_attrs),
                    expected_root=case.root,
                )
                if not validation.is_valid:
                    detail = f"document does not conform to its DTD: {validation.errors[:3]}"
                    record(Divergence("-", "document", detail))
                    return report
            tree = parse_tree(case.document, expand_attrs=case.expand_attrs)
        except Exception as exc:  # noqa: BLE001
            record(Divergence("-", "document", f"document failed to parse: {exc!r}"))
            return report

        state = _State(
            case,
            schema,
            FluxSession(schema),  # one plan cache for every leg of the case
            tree,
            ExecutionOptions(expand_attrs=case.expand_attrs),
            _reference_input(case.document, case.expand_attrs)[: 1 + case.document.isascii()],
        )
        for name, source in case.queries:
            query = self._prepare(state, name, source, record)
            if query is None or not self._run_legs(state, "each", query, report):
                return report
            report.output_bytes += len(query.expected)
            report.peak_buffered_bytes = max(report.peak_buffered_bytes, query.peak)
            report.buffered = report.buffered or query.peak > 0
        if self._run_legs(state, "first", state.queries[case.queries[0][0]], report):
            whole = _Query("*", peak=sum(query.peak for query in state.queries.values()))
            self._run_legs(state, "set", whole, report)
        return report

    @staticmethod
    def _prepare(state: _State, name: str, source: str, record) -> Optional[_Query]:
        """The reference output and the compiled query; ``None`` on a crash."""
        try:
            expected = NaiveDomEngine(source).run_tree(state.tree).output
        except Exception as exc:  # noqa: BLE001
            record(Divergence(name, "naive-dom", f"reference evaluation crashed: {exc!r}"))
            return None
        try:
            prepared = state.session.prepare(source)
        except Exception as exc:  # noqa: BLE001
            record(Divergence(name, "compile", f"scheduling/compilation crashed: {exc!r}"))
            return None
        query = state.queries[name] = _Query(name, source, prepared, expected)
        return query

    def _run_legs(self, state: _State, scope: str, target: _Query, report: CaseReport) -> bool:
        """Run ``scope``'s rows of :data:`LEGS` on ``target``; ``False`` once
        one crashed, which ends the case."""
        for leg in LEGS:
            if leg.scope != scope:
                continue
            budget = max(MIN_BUDGET_BYTES, target.peak // 2) if leg.bounded else None
            label = leg.label.format(budget=budget)
            try:
                seen = leg.run(state, target, budget)
            except Exception as exc:  # noqa: BLE001 - engine crashes are findings
                report.divergences.append(Divergence(target.name, label, f"run crashed: {exc!r}"))
                return False
            if seen is not None:
                self._verify(state, leg.checks, label, target, budget, seen, report)
        return True

    @staticmethod
    def _verify(state, checks, label: str, target, budget, seen: _Seen, report) -> None:
        """The shared checks a leg asks for, then the leg's own findings."""
        record = report.divergences.append
        for name, where, result in seen.runs:
            query, stats = state.queries[name], result.stats
            found = []
            if OUTPUT in checks and result.output != query.expected:
                found.append(_diff(query.expected, result.output))
            if DISCARD in checks:
                if result.output is not None:
                    found.append("a run without output collection returned output text")
                if stats.output_bytes != len(query.expected):
                    found.append(f"output_bytes {stats.output_bytes} != {len(query.expected)}")
            if PEAK in checks and stats.peak_buffered_bytes != query.peak:
                found.append(f"logical peak {stats.peak_buffered_bytes}B != solo {query.peak}B")
            if INPUT in checks:
                counted = (stats.input_events, stats.input_bytes)[: len(state.input_totals)]
                if counted != state.input_totals:
                    found.append(f"input (events, bytes) {counted} != {state.input_totals}")
            if SPILL in checks:
                if budget < query.peak and stats.spill_count == 0:
                    found.append(f"budget {budget}B below peak {query.peak}B but nothing spilled")
                report.forced_spills = report.forced_spills or stats.spill_count > 0
            if SPANS in checks:
                if result.trace is None:
                    found.append("trace=True produced no trace report")
                else:
                    problems = validate_span_tree(result.trace.spans)
                    found.extend(f"malformed span tree: {problem}" for problem in problems)
            prefix = f"{where}: " if where else ""
            for detail in found:
                record(Divergence(name, label, prefix + detail))
            if BALANCED in checks:
                for detail in _unbalanced(stats):
                    record(Divergence(name, f"{label}:{where}" if where else label, detail))
        if BUDGET in checks and seen.resident is not None and seen.resident > budget:
            seen.problems.append(f"resident {seen.resident}B exceeds the {budget}B budget")
        for problem in seen.problems:
            record(Divergence(target.name, label, problem))


def _unbalanced(stats: RunStatistics) -> Iterator[str]:
    """Balanced releases: all *current* counters must settle to zero, and the
    per-owner ledgers (:mod:`repro.obs.attrib`) must account for every byte
    the counters report -- none unattributed, none double-charged."""
    leftovers = (
        ("buffered events", stats.buffered_events_current),
        ("buffered bytes", stats.buffered_bytes_current),
        ("resident bytes", stats.resident_bytes_current),
    )
    for what, value in leftovers:
        if value != 0:
            yield f"unbalanced buffer accounting: {value} {what} left after the run"
    attribution = getattr(stats, "attribution", None)
    if attribution is None:
        yield "run statistics carry no buffer attribution ledger"
        return
    sums = (
        ("live", attribution.total_live_bytes(), stats.buffered_bytes_current),
        ("at-peak", attribution.total_at_peak_bytes(), stats.peak_buffered_bytes),
        ("spilled", attribution.total_spilled_bytes(), stats.spilled_bytes_written),
    )
    for what, attributed, counter in sums:
        if attributed != counter:
            yield f"inexact buffer attribution: {what} owner bytes {attributed}B != {counter}B"
    for row in attribution.rows():
        if row["at_peak_bytes"] and not row["reason"]:
            yield f"owner {row['variable']!r}: {row['at_peak_bytes']}B at peak, no plan reason"


def _diff(expected: str, actual: Optional[str]) -> str:
    """A compact first-divergence description for failure reports."""
    if actual is None:
        return "engine produced no output where the reference produced text"
    limit = min(len(expected), len(actual))
    at = next((i for i in range(limit) if expected[i] != actual[i]), limit)
    window = slice(max(0, at - 20), at + 20)
    return (
        f"outputs differ at byte {at} "
        f"(expected ...{expected[window]!r}, got ...{actual[window]!r}; "
        f"lengths {len(expected)} vs {len(actual)})"
    )
