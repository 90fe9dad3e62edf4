"""The differential oracle: every engine, every sink mode, one verdict.

For each case the oracle runs the same (document, query) pair through every
execution path the repo has grown:

* the **naive baseline** (full materialisation + reference semantics) --
  this is the reference output,
* the **projection baseline** (path-projected materialisation),
* the **FluX engine** in all three sink modes (``run``, ``stream``,
  ``execute(sink=)``) plus a ``NullSink`` run for the stats-only
  path and a ``projection=False`` run; the input statistics of the
  projected and the unprojected run must both equal the totals of the
  reference event stream (the pre-drop accounting contract),
* the **multi-query engine** (all of the case's queries in one shared
  pass, pulled and push-fed at markup splits),
* a **bounded-memory** run with a budget of half the query's unbounded
  buffer peak -- small enough that any query that buffers at all is forced
  to spill -- plus a bounded multi-query pass sharing one governor,
* the **session/feed path**: a :class:`~repro.core.session.FluxSession`
  prepares every query through the plan cache and executes it in **push
  mode** (``open_run``/``feed``/``finish``), with the document split at
  adversarial chunk boundaries -- text chunks cut right before and right
  after every ``<`` (every tag truncated mid-markup), inside attribute
  values, between a closing quote and ``>`` and inside entity references,
  and at a fixed tiny prime stride (entities, names and text all straddle
  chunks); *byte* chunks cut mid-markup and at a stride of 3, which splits
  every multi-byte UTF-8 sequence.  Push mode must be byte-identical to
  pull mode at *any* split,
* the **continuous feed** (:mod:`repro.feeds`): the case document
  concatenated three times into one stream, consumed through
  ``open_feed`` with chunk splits placed right before, at, and right after
  every document-boundary byte, and again at the prime stride.  Every
  sealed document's output must be byte-identical to the solo run, its
  live-buffer counters must be back at the floor (zero) at the boundary,
  and its logical peak must equal the solo peak; a second feed resumed
  from the first document's recorded ``end_offset`` must replay the
  remaining documents byte-identically (the crash-recovery contract).

Byte-identity across all of them is the FluX guarantee (Proposition 3.2 /
Theorem 4.3) the paper's correctness story rests on.  On top of identity
the oracle asserts the runtime invariants that PRs 1-3 promised:

* balanced buffer accounting -- after every run the ``buffered`` /
  ``resident`` *current* counters are back to zero,
* ``peak_resident_bytes <= budget`` for every bounded run,
* the *logical* ``peak_buffered_bytes`` is identical across memory
  configurations (spilling must not change what the paper's figures
  report),
* multi-query per-query peaks equal the solo peaks (PR 2's parity claim),
* **buffer attribution is exact** (ISSUE 8): after every run, the
  per-owner ledgers (:mod:`repro.obs.attrib`) must account for every
  byte -- live bytes sum to the (zero) current counter, the at-peak
  snapshot sums to ``peak_buffered_bytes`` exactly, and spilled bytes sum
  to ``spilled_bytes_written`` -- in every mode: solo and multi-query,
  bounded and unbounded,
* the **live-inspection endpoint** is side-effect free: one push-mode run
  per case executes with the metrics server up and ``/metrics`` +
  ``/progress`` scraped mid-run; output bytes must be identical and the
  progress watermarks must reflect the half-fed document.

A violation raises :class:`ConformanceFailure` carrying structured
:class:`Divergence` records; a pass returns a :class:`CaseReport` with the
case's coverage facts (did it buffer, did it spill, output size).
"""

from __future__ import annotations

import io
import json
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines import NaiveDomEngine, ProjectionDomEngine
from repro.conformance.cases import Case
from repro.core.api import load_dtd
from repro.core.options import ExecutionOptions
from repro.core.session import FluxSession
from repro.dtd.validator import validate_document
from repro.engine.stats import RunStatistics
from repro.obs.tracer import validate_span_tree
from repro.pipeline.sinks import NullSink
from repro.xmlstream.events import Characters
from repro.xmlstream.parser import iter_events, parse_tree

#: Bounded runs never get a budget below this many bytes; the governor
#: tolerates tiny budgets (it force-seals open tails), this floor only keeps
#: page bookkeeping from dominating the oracle's runtime.
MIN_BUDGET_BYTES = 32

#: Fixed stride of the second feed-mode sweep: a small prime, so chunk
#: boundaries drift through tags, entity references and text alike.
FEED_STRIDE = 7


def _split_at_markup(document: str) -> List[str]:
    """Chunks cut right before *and* right after every ``<``.

    The most hostile split family for a tokenizer: every single piece of
    markup arrives truncated (a chunk ends on a lone ``<``, the next begins
    with the tag name).
    """
    return _split_at(
        document, (j for i, char in enumerate(document) if char == "<" for j in (i, i + 1))
    )


def _split_in_values(document: str) -> List[str]:
    """Chunks cut one and two characters after every ``"`` and ``&``.

    Cuts land inside attribute values, between a closing quote and the
    ``>`` (or the next attribute) and inside entity references -- the
    splits an attribute-expanding scanner must survive.
    """
    return _split_at(
        document,
        (j for i, char in enumerate(document) if char in '"&' for j in (i + 1, i + 2)),
    )


def _split_at(document, points) -> list:
    """Chunks of ``document`` (text or bytes) cut at every in-range offset in ``points``."""
    cuts = sorted({point for point in points if 0 < point < len(document)})
    return [document[begin:end] for begin, end in zip([0, *cuts], [*cuts, len(document)])]


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


def _split_fixed(document: str, stride: int) -> List[str]:
    """Chunks of a fixed character stride."""
    return [document[i : i + stride] for i in range(0, len(document), stride)]


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


class Oracle:
    """Checks cases; stateless apart from configuration.

    ``check`` raises :class:`ConformanceFailure` on the first failing case;
    ``examine`` returns the :class:`CaseReport` with divergences collected
    instead (the shrinker's predicate uses this non-raising form).
    """

    def __init__(self, *, min_budget_bytes: int = MIN_BUDGET_BYTES, validate: bool = True):
        self.min_budget_bytes = min_budget_bytes
        self.validate = validate

    # ------------------------------------------------------------------- API

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

        if self.validate:
            try:
                validation = validate_document(
                    schema,
                    iter_events(case.document, expand_attrs=case.expand_attrs),
                    expected_root=case.root,
                )
            except Exception as exc:  # noqa: BLE001
                record(Divergence("-", "document", f"document failed to parse: {exc!r}"))
                return report
            if not validation.is_valid:
                record(
                    Divergence(
                        "-",
                        "document",
                        f"document does not conform to its DTD: {validation.errors[:3]}",
                    )
                )
                return report

        try:
            reference_tree = parse_tree(case.document, expand_attrs=case.expand_attrs)
        except Exception as exc:  # noqa: BLE001
            record(Divergence("-", "document", f"tree materialisation failed: {exc!r}"))
            return report

        # One session for the whole case: every query's second prepare (the
        # feed path below) must be a plan-cache hit.
        session = FluxSession(schema)
        solo_outputs: Dict[str, str] = {}
        solo_peaks: Dict[str, int] = {}
        for name, source in case.queries:
            solo = self._check_query(case, schema, session, name, source, reference_tree, report)
            if report.divergences:
                return report
            solo_outputs[name], solo_peaks[name] = solo

        first_name, first_source = case.queries[0]
        self._check_serve(
            case, session, first_name, first_source, solo_outputs[first_name], report
        )
        if report.divergences:
            return report

        self._check_feed(
            case,
            session,
            first_name,
            first_source,
            solo_outputs[first_name],
            solo_peaks[first_name],
            report,
        )
        if report.divergences:
            return report

        self._check_multiquery(case, schema, session, solo_outputs, solo_peaks, report)
        return report

    # ----------------------------------------------------------- single query

    def _check_query(
        self,
        case: Case,
        schema,
        session: FluxSession,
        name: str,
        source: str,
        reference_tree,
        report: CaseReport,
    ) -> Tuple[str, int]:
        record = report.divergences.append
        options = ExecutionOptions(expand_attrs=case.expand_attrs)
        expand = case.expand_attrs
        try:
            reference = NaiveDomEngine(source).run_tree(reference_tree)
        except Exception as exc:  # noqa: BLE001
            record(Divergence(name, "naive-dom", f"reference evaluation crashed: {exc!r}"))
            return "", 0
        expected = reference.output

        try:
            prepared = session.prepare(source)
        except Exception as exc:  # noqa: BLE001
            record(Divergence(name, "compile", f"scheduling/compilation crashed: {exc!r}"))
            return "", 0

        # --- sink mode 1: collect ---------------------------------------
        try:
            collected = prepared.execute(case.document, options=options)
        except Exception as exc:  # noqa: BLE001 - engine crashes are findings
            record(Divergence(name, "flux-collect", f"run crashed: {exc!r}"))
            return expected, 0
        if collected.output != expected:
            record(Divergence(name, "flux-collect", _diff(expected, collected.output)))
            return expected, collected.stats.peak_buffered_bytes
        self._check_balanced(name, "flux-collect", collected.stats, record)
        peak = collected.stats.peak_buffered_bytes

        # --- input accounting: projected (pre-drop) and unprojected ------
        # Byte totals are only comparable for ASCII documents: the scanner
        # counts raw text in UTF-8 bytes, the reference in characters.
        comparable = 2 if case.document.isascii() else 1
        wanted = _reference_input(case.document, expand)[:comparable]
        try:
            unprojected = session.prepare(source, projection=False).execute(
                case.document, options=options
            )
        except Exception as exc:  # noqa: BLE001
            record(Divergence(name, "flux-unprojected", f"run crashed: {exc!r}"))
            return expected, peak
        if unprojected.output != expected:
            record(Divergence(name, "flux-unprojected", _diff(expected, unprojected.output)))
        for label, stats in (
            ("flux-collect", collected.stats),
            ("flux-unprojected", unprojected.stats),
        ):
            counted = (stats.input_events, stats.input_bytes)[:comparable]
            if counted != wanted:
                record(
                    Divergence(
                        name,
                        label,
                        f"input statistics (events, bytes) {counted} != {wanted} "
                        "of the reference event stream",
                    )
                )

        # --- sink mode 2: streaming fragments ---------------------------
        try:
            run = prepared.stream(case.document, options=options)
            streamed = "".join(run)
        except Exception as exc:  # noqa: BLE001
            record(Divergence(name, "flux-streaming", f"run crashed: {exc!r}"))
            return expected, peak
        if streamed != expected:
            record(Divergence(name, "flux-streaming", _diff(expected, streamed)))
        self._check_balanced(name, "flux-streaming", run.stats, record)

        # --- sink mode 3: writable sink ---------------------------------
        sink = io.StringIO()
        try:
            sink_result = prepared.execute(case.document, sink=sink, options=options)
        except Exception as exc:  # noqa: BLE001
            record(Divergence(name, "flux-sink", f"run crashed: {exc!r}"))
            return expected, peak
        if sink.getvalue() != expected:
            record(Divergence(name, "flux-sink", _diff(expected, sink.getvalue())))
        self._check_balanced(name, "flux-sink", sink_result.stats, record)

        # --- stats-only run (a NullSink) --------------------------------
        try:
            discarded = prepared.execute(case.document, sink=NullSink(), options=options)
        except Exception as exc:  # noqa: BLE001
            record(Divergence(name, "flux-discard", f"run crashed: {exc!r}"))
            return expected, peak
        if discarded.output is not None:
            record(Divergence(name, "flux-discard", "a NullSink run returned output text"))
        if discarded.stats.output_bytes != collected.stats.output_bytes:
            record(
                Divergence(
                    name,
                    "flux-discard",
                    f"output_bytes {discarded.stats.output_bytes} != "
                    f"{collected.stats.output_bytes} with output collection off",
                )
            )
        if discarded.stats.peak_buffered_bytes != peak:
            record(
                Divergence(
                    name,
                    "flux-discard",
                    f"peak_buffered {discarded.stats.peak_buffered_bytes} != {peak}",
                )
            )

        # --- baseline stats without output collection -------------------
        try:
            stats_only = NaiveDomEngine(source).run_tree(reference_tree, collect_output=False)
        except Exception as exc:  # noqa: BLE001
            record(Divergence(name, "naive-dom", f"stats-only run crashed: {exc!r}"))
            return expected, peak
        if stats_only.output is not None:
            record(Divergence(name, "naive-dom", "collect_output=False returned output text"))
        if stats_only.output_bytes != len(expected):
            record(
                Divergence(
                    name,
                    "naive-dom",
                    f"collect_output=False output_bytes {stats_only.output_bytes} != "
                    f"{len(expected)}",
                )
            )

        # --- projection baseline ----------------------------------------
        try:
            projected = ProjectionDomEngine(source).run_events(
                iter_events(case.document, expand_attrs=expand, document_events=False)
            )
        except Exception as exc:  # noqa: BLE001
            record(Divergence(name, "projection-dom", f"projection baseline crashed: {exc!r}"))
        else:
            if projected.output != expected:
                record(Divergence(name, "projection-dom", _diff(expected, projected.output)))

        # --- bounded-memory run (budget forces spills when buffering) ---
        # The compiled plan is reused: the budget is a per-run option (a
        # fresh, run-owned governor each time).
        budget = max(self.min_budget_bytes, peak // 2)
        try:
            bounded = prepared.execute(
                case.document, options=options.replace(memory_budget=budget)
            )
        except Exception as exc:  # noqa: BLE001
            record(Divergence(name, "flux-bounded", f"run crashed: {exc!r}"))
            return expected, peak
        stats = bounded.stats
        if bounded.output != expected:
            record(Divergence(name, "flux-bounded", _diff(expected, bounded.output)))
        self._check_balanced(name, "flux-bounded", stats, record)
        if stats.peak_resident_bytes > budget:
            record(
                Divergence(
                    name,
                    "flux-bounded",
                    f"resident {stats.peak_resident_bytes}B exceeds the {budget}B budget",
                )
            )
        if stats.peak_buffered_bytes != peak:
            record(
                Divergence(
                    name,
                    "flux-bounded",
                    f"logical peak {stats.peak_buffered_bytes}B != unbounded peak {peak}B "
                    "(spilling must not change the paper's figure)",
                )
            )
        if budget < peak and stats.spill_count == 0:
            record(
                Divergence(
                    name,
                    "flux-bounded",
                    f"budget {budget}B below peak {peak}B but no page was ever spilled",
                )
            )

        # --- session push mode at adversarial chunk splits ---------------
        # Text chunks first; then byte chunks, the zero-copy entry: a stride
        # of 3 bytes guarantees every multi-byte UTF-8 sequence in the
        # document is split mid-sequence at least once, the markup family
        # re-runs the hostile truncated-tag splits as bytes.
        encoded = case.document.encode("utf-8")
        for label, chunks in (
            ("feed-markup-splits", _split_at_markup(case.document)),
            ("feed-value-splits", _split_in_values(case.document)),
            (f"feed-stride-{FEED_STRIDE}", _split_fixed(case.document, FEED_STRIDE)),
            (
                "feed-bytes-markup",
                [chunk.encode("utf-8") for chunk in _split_at_markup(case.document)],
            ),
            ("feed-bytes-stride-3", [encoded[i : i + 3] for i in range(0, len(encoded), 3)]),
        ):
            try:
                run = prepared.open_run(expand_attrs=expand)
                for chunk in chunks:
                    run.feed(chunk)
                fed = run.finish()
            except Exception as exc:  # noqa: BLE001
                record(Divergence(name, label, f"feed run crashed: {exc!r}"))
                return expected, peak
            if fed.output != expected:
                record(Divergence(name, label, _diff(expected, fed.output)))
            self._check_balanced(name, label, fed.stats, record)
            if fed.stats.peak_buffered_bytes != peak:
                record(
                    Divergence(
                        name,
                        label,
                        f"push-mode peak {fed.stats.peak_buffered_bytes}B != "
                        f"pull-mode peak {peak}B (chunking must not change buffering)",
                    )
                )

        # --- tracing must be invisible (:mod:`repro.obs`) -----------------
        # A traced run executes instrumented stage loops; output bytes and
        # the paper's logical buffering figure must not move, and the span
        # tree a run leaves behind must be structurally well-formed.
        label = "traced"
        try:
            traced = prepared.execute(case.document, options=options.replace(trace=True))
        except Exception as exc:  # noqa: BLE001
            record(Divergence(name, label, f"traced run crashed: {exc!r}"))
            return expected, peak
        if traced.output != expected:
            record(Divergence(name, label, _diff(expected, traced.output)))
        self._check_balanced(name, label, traced.stats, record)
        if traced.stats.peak_buffered_bytes != peak:
            record(
                Divergence(
                    name,
                    label,
                    f"traced peak {traced.stats.peak_buffered_bytes}B != "
                    f"untraced peak {peak}B (tracing must not change buffering)",
                )
            )
        if traced.trace is None:
            record(Divergence(name, label, "trace=True produced no trace report"))
        else:
            for problem in validate_span_tree(traced.trace.spans):
                record(Divergence(name, label, f"malformed span tree: {problem}"))

        report.output_bytes += len(expected)
        report.peak_buffered_bytes = max(report.peak_buffered_bytes, peak)
        report.buffered = report.buffered or peak > 0
        report.forced_spills = report.forced_spills or stats.spill_count > 0
        return expected, peak

    # --------------------------------------------------------- continuous feed

    #: Documents per oracle feed stream: enough for interior boundaries
    #: (first, middle, last) without dominating the sweep's runtime.
    FEED_COPIES = 3

    def _check_feed(
        self,
        case: Case,
        session: FluxSession,
        name: str,
        source: str,
        expected: str,
        peak: int,
        report: CaseReport,
    ) -> None:
        """The case document concatenated FEED_COPIES times, as one feed.

        Chunk splits are placed right before, at, and right after every
        document-boundary byte (the splits most likely to confuse boundary
        detection), then at the prime stride.  Per sealed document:
        byte-identity with the solo run, live buffers back at the zero
        floor, logical peak equal to the solo peak.  Finally one resumed
        feed replays everything past the first document's recorded
        ``end_offset`` byte-identically.
        """
        record = report.divergences.append
        doc = case.document.encode("utf-8")
        unit = len(doc) + 1  # document plus its "\n" separator
        stream = (doc + b"\n") * self.FEED_COPIES
        boundary_chunks = _split_at(
            stream,
            (
                point
                for copy in range(1, self.FEED_COPIES + 1)
                for point in (copy * unit - 2, copy * unit - 1, copy * unit)
            ),
        )
        stride_chunks = [
            stream[i : i + FEED_STRIDE] for i in range(0, len(stream), FEED_STRIDE)
        ]
        first_end = None
        options = ExecutionOptions(expand_attrs=case.expand_attrs)
        for label, chunks in (
            ("feed-boundary-splits", boundary_chunks),
            (f"feed-stride-{FEED_STRIDE}", stride_chunks),
        ):
            documents = self._run_feed(session, source, options, chunks, record, name, label)
            if documents is None:
                return
            self._check_feed_documents(name, label, documents, expected, peak, record)
            if documents and first_end is None:
                first_end = documents[0].end_offset

        # Crash-recovery contract: resume past document 0, replay the rest.
        if first_end is not None and self.FEED_COPIES > 1:
            label = "feed-resume"
            documents = self._run_feed(
                session,
                source,
                options,
                boundary_chunks,
                record,
                name,
                label,
                resume_from=first_end,
            )
            if documents is None:
                return
            if len(documents) != self.FEED_COPIES - 1:
                record(
                    Divergence(
                        name,
                        label,
                        f"resume from {first_end} replayed {len(documents)} documents, "
                        f"expected {self.FEED_COPIES - 1}",
                    )
                )
            self._check_feed_documents(name, label, documents, expected, peak, record)

    @staticmethod
    def _run_feed(session, source, options, chunks, record, name, label, resume_from=None):
        """One oracle feed pass; returns the sealed documents or None on crash."""
        try:
            feed = session.prepare(source).open_feed(
                options=options, resume_from=resume_from
            )
            documents = []
            for chunk in chunks:
                documents.extend(feed.feed(chunk))
            summary = feed.finish()
        except Exception as exc:  # noqa: BLE001 - feed crashes are findings
            record(Divergence(name, label, f"feed crashed: {exc!r}"))
            return None
        if documents and summary.resume_offset != documents[-1].end_offset:
            record(
                Divergence(
                    name,
                    label,
                    f"resume_offset {summary.resume_offset} != last document "
                    f"end_offset {documents[-1].end_offset}",
                )
            )
        return documents

    def _check_feed_documents(self, name, label, documents, expected, peak, record) -> None:
        for document in documents:
            where = f"document {document.index}"
            if document.result.output != expected:
                record(
                    Divergence(
                        name, label, f"{where}: {_diff(expected, document.result.output)}"
                    )
                )
            self._check_balanced(name, f"{label}:{where}", document.result.stats, record)
            if document.result.stats.peak_buffered_bytes != peak:
                record(
                    Divergence(
                        name,
                        label,
                        f"{where}: per-document peak "
                        f"{document.result.stats.peak_buffered_bytes}B != solo peak {peak}B",
                    )
                )
            if document.end_offset <= document.start_offset:
                record(
                    Divergence(
                        name,
                        label,
                        f"{where}: degenerate framing "
                        f"[{document.start_offset}, {document.end_offset})",
                    )
                )

    # ------------------------------------------------------- live inspection

    def _check_serve(
        self,
        case: Case,
        session: FluxSession,
        name: str,
        source: str,
        expected: str,
        report: CaseReport,
    ) -> None:
        """One push-mode run per case under the metrics server with a mid-run
        scrape of both endpoints.  The live-inspection guarantee is *zero
        effect on output bytes*: the scraped run must be byte-identical to
        every other mode, and the progress watermarks must reflect exactly
        the half-fed document at scrape time."""
        from repro.obs import serve as _serve

        record = report.divergences.append
        label = "serve-metrics"
        try:
            server = _serve.ensure_server(0)
        except Exception as exc:  # noqa: BLE001 - a dead loopback is a finding
            record(Divergence(name, label, f"metrics server failed to start: {exc!r}"))
            return
        half = len(case.document) // 2
        head, tail = case.document[:half], case.document[half:]
        try:
            run = session.prepare(source).open_run(
                options=ExecutionOptions(expand_attrs=case.expand_attrs)
            )
            if head:
                run.feed(head)
            progress, metrics = self._scrape(server.port)
            if tail:
                run.feed(tail)
            fed = run.finish()
        except Exception as exc:  # noqa: BLE001
            record(Divergence(name, label, f"served push run crashed: {exc!r}"))
            return
        if fed.output != expected:
            record(Divergence(name, label, _diff(expected, fed.output)))
        self._check_balanced(name, label, fed.stats, record)
        if progress.get("open_runs", 0) < 1:
            record(
                Divergence(
                    name, label, "/progress showed no open runs during a live feed"
                )
            )
        fed_bytes = [entry.get("bytes_fed") for entry in progress.get("runs", [])]
        if half and len(head) not in fed_bytes:
            record(
                Divergence(
                    name,
                    label,
                    f"/progress watermarks {fed_bytes} never showed the "
                    f"{len(head)}B actually fed at scrape time",
                )
            )
        if "repro_runs_total" not in metrics:
            record(
                Divergence(
                    name, label, "/metrics exposition is missing repro_runs_total"
                )
            )

    @staticmethod
    def _scrape(port: int) -> Tuple[dict, str]:
        """GET ``/progress`` (parsed) and ``/metrics`` (raw text)."""
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/progress", timeout=10
        ) as response:
            progress = json.loads(response.read().decode("utf-8"))
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ) as response:
            metrics = response.read().decode("utf-8")
        return progress, metrics

    # ------------------------------------------------------------ multi-query

    def _check_multiquery(
        self,
        case: Case,
        schema,
        session: FluxSession,
        solo_outputs: Dict[str, str],
        solo_peaks: Dict[str, int],
        report: CaseReport,
    ) -> None:
        record = report.divergences.append
        budgets: List[Optional[int]] = [None]
        if any(solo_peaks.values()):
            total_peak = sum(solo_peaks.values())
            budgets.append(max(self.min_budget_bytes, total_peak // 2))
        # Each set runs twice: pulled, and push-fed in chunks split at
        # markup.  Both legs must seal to the solo outputs and peaks.
        legs = [(budget, push) for budget in budgets for push in (False, True)]
        for budget, push in legs:
            label = "multiquery" if budget is None else f"multiquery-bounded({budget}B)"
            if push:
                label += "-push"
            try:
                # Sharing the case session's plan cache skips recompiling
                # every query per budget pass (keys embed the fingerprint).
                with FluxSession(
                    schema,
                    options=ExecutionOptions(memory_budget=budget),
                    plan_cache=session.cache,
                ) as bounded_session:
                    queries = bounded_session.prepare_many(case.query_map)
                    if push:
                        with queries.open_run(expand_attrs=case.expand_attrs) as handle:
                            for chunk in _split_at_markup(case.document):
                                handle.feed(chunk)
                        run = handle.result
                    else:
                        run = queries.execute(case.document, expand_attrs=case.expand_attrs)
            except Exception as exc:  # noqa: BLE001
                record(Divergence("*", label, f"shared pass crashed: {exc!r}"))
                return
            for name, expected in solo_outputs.items():
                result = run[name]
                if result.output != expected:
                    record(Divergence(name, label, _diff(expected, result.output)))
                self._check_balanced(name, label, result.stats, record)
                if result.stats.peak_buffered_bytes != solo_peaks[name]:
                    record(
                        Divergence(
                            name,
                            label,
                            f"per-query peak {result.stats.peak_buffered_bytes}B != "
                            f"solo peak {solo_peaks[name]}B",
                        )
                    )
            if budget is not None and run.memory is not None:
                if run.memory["peak_resident_bytes"] > budget:
                    record(
                        Divergence(
                            "*",
                            label,
                            f"shared resident {run.memory['peak_resident_bytes']}B "
                            f"exceeds the {budget}B budget",
                        )
                    )

    # -------------------------------------------------------------- invariants

    @staticmethod
    def _check_balanced(name: str, mode: str, stats: RunStatistics, record) -> None:
        """Balanced releases: all *current* counters must settle to zero."""
        leftovers = (
            ("buffered events", stats.buffered_events_current),
            ("buffered bytes", stats.buffered_bytes_current),
            ("resident bytes", stats.resident_bytes_current),
        )
        for what, value in leftovers:
            if value != 0:
                record(
                    Divergence(
                        name, mode, f"unbalanced buffer accounting: {value} {what} left after the run"
                    )
                )
        # Attribution exactness (ISSUE 8): the per-owner ledgers must account
        # for every byte the paper's counters report -- no byte unattributed,
        # no byte double-charged, in this mode exactly like every other.
        attribution = getattr(stats, "attribution", None)
        if attribution is None:
            record(
                Divergence(
                    name, mode, "run statistics carry no buffer attribution ledger"
                )
            )
            return
        sums = (
            ("live", attribution.total_live_bytes(), stats.buffered_bytes_current),
            ("at-peak", attribution.total_at_peak_bytes(), stats.peak_buffered_bytes),
            ("spilled", attribution.total_spilled_bytes(), stats.spilled_bytes_written),
        )
        for what, attributed, counter in sums:
            if attributed != counter:
                record(
                    Divergence(
                        name,
                        mode,
                        f"inexact buffer attribution: {what} owner bytes sum to "
                        f"{attributed}B but the stats counter says {counter}B",
                    )
                )
        for row in attribution.rows():
            if row["at_peak_bytes"] and not row["reason"]:
                record(
                    Divergence(
                        name,
                        mode,
                        f"owner {row['variable']!r} buffered {row['at_peak_bytes']}B "
                        "at peak without a plan-level reason",
                    )
                )


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
