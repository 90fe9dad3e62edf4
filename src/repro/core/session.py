"""The session-oriented public API: prepare once, execute many times.

A :class:`FluxSession` is the long-lived object a service keeps per schema:

* **plan cache** -- ``session.prepare(query)`` compiles through an LRU
  :class:`PlanCache` keyed on the *normalized query text* and the DTD's
  stable :meth:`~repro.dtd.schema.DTD.fingerprint`.  Preparing the same
  query again skips parsing, scheduling and plan compilation entirely --
  the expensive, perfectly cacheable step of FluX execution (the schedule
  depends only on query and DTD, never on the document).
* **one prepared shape** -- ``prepare(query)`` and ``prepare_many({...})``
  both return a :class:`PreparedQuery`: one unnamed member, or N named
  ones sharing one document pass.  Its four verbs -- ``execute``,
  ``stream``, ``open_run`` (push mode: ``feed(chunk)`` / ``finish()``) and
  ``open_feed`` (concatenated documents) -- each open one
  :class:`~repro.engine.engine.RunHandle` with a seat per member.  Where
  the output goes is a :mod:`~repro.pipeline.sinks` value (``sinks`` per
  name for a set); how the run behaves is one
  :class:`~repro.core.options.ExecutionOptions`.  A run seals to a
  :class:`~repro.engine.engine.FluxRunResult` for an unnamed member and to
  a :class:`~repro.engine.engine.MultiQueryRun` for named ones.
* **shared memory governance** -- a session whose ``options`` set a
  ``memory_budget`` owns one :class:`~repro.storage.governor.MemoryGovernor`
  for all of its runs, so the budget caps the *session's* resident buffered
  bytes, not each run separately.
* **cumulative telemetry** -- :class:`SessionStatistics` aggregates every
  completed run (every seat of a shared pass).

Typical service shape::

    with FluxSession(DTD_SOURCE, root_element="bib") as session:
        q = session.prepare(QUERY)             # compiled once, cached
        for document in documents:
            result = q.execute(document)       # plan reused, zero recompiles
        with q.open_run() as run:              # push mode: chunks, not docs
            for chunk in socket_chunks:
                run.feed(chunk)
        print(run.result.output, session.statistics.summary())
        both = session.prepare_many({"a": QUERY, "b": OTHER})
        print(both.execute(document).outputs())  # one scan, a seat per query
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.dtd.parser import parse_dtd
from repro.dtd.schema import DTD
from repro.engine.engine import (
    FluxEngine,
    RunHandle,
    RunResult,
    StreamingRun,
    ensure_rooted,
    governor_for,
)
from repro.engine.stats import RunStatistics
from repro.feeds import FeedHandle
from repro.flux.ast import FluxExpr
from repro.obs.metrics import global_registry
from repro.pipeline.fanout import DynamicFanout
from repro.pipeline.sinks import FragmentSink
from repro.storage.governor import MemoryGovernor
from repro.xmlstream.source import DocumentSource
from repro.xquery.ast import XQExpr

#: Anything a session accepts as a query: source text, a parsed XQuery⁻
#: expression, or a ready-made FluX query.
QuerySource = Union[str, XQExpr, FluxExpr]

#: Default number of compiled plans a session retains.
DEFAULT_PLAN_CACHE_SIZE = 64

# Process-wide plan-cache telemetry (:mod:`repro.obs`): totals across every
# PlanCache instance, bumped alongside each cache's own counters -- plan
# lookups are per prepare(), far off any hot path.
_metrics = global_registry()
_CACHE_HITS = _metrics.counter("repro.plan_cache.hits.total", "Plan-cache lookups served from cache")
_CACHE_MISSES = _metrics.counter("repro.plan_cache.misses.total", "Plan-cache lookups that compiled")
_CACHE_EVICTIONS = _metrics.counter("repro.plan_cache.evictions.total", "Plans evicted by the LRU")
# Shared multi-query passes: bumped once per pass a named set opens.
_PASSES = _metrics.counter("repro.multiquery.passes.total", "Shared multi-query passes")
_PASS_QUERIES = _metrics.counter(
    "repro.multiquery.queries.total", "Queries served across all shared passes"
)


def _normalize_query(query: QuerySource) -> Tuple[str, str]:
    """A stable ``(kind, text)`` cache identity for a query argument.

    Source text is keyed after stripping *surrounding* whitespace only:
    whitespace inside the query can be significant (literal text in
    element constructors, string literals), so collapsing it could make
    two different queries share one plan.  AST arguments are keyed on
    their source rendering.  The kind tag keeps an XQuery⁻ source from
    ever colliding with a FluX source that happens to render identically.
    """
    if isinstance(query, str):
        return ("xquery", query.strip())
    if isinstance(query, FluxExpr):
        return ("flux", query.to_source())
    if isinstance(query, XQExpr):
        return ("xquery-ast", query.to_source())
    raise TypeError(f"not a query: {query!r}")


@dataclass(frozen=True)
class PlanKey:
    """Everything that determines a compiled plan, and nothing else."""

    query_kind: str
    query_text: str
    dtd_fingerprint: str
    projection: bool


class PlanCache:
    """A thread-safe LRU of compiled engines, with hit/miss/eviction counters.

    One cache can back any number of sessions (pass it to
    ``FluxSession(plan_cache=...)``); entries are keyed by
    :class:`PlanKey`, which embeds the DTD fingerprint, so sessions over
    different schemas never collide.  ``capacity=0`` disables retention
    (every lookup compiles).
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_SIZE):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[PlanKey, FluxEngine]" = OrderedDict()
        self._lock = threading.RLock()
        #: In-flight builds: key -> Event set when the build settles.
        self._building: Dict[PlanKey, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(self, key: PlanKey, builder) -> FluxEngine:
        """The cached engine for ``key``, building (and retaining) on miss.

        Builds are single-flight *per key* but run outside the cache lock:
        concurrent sessions asking for the same plan compile it exactly
        once, while hits for other keys are never blocked behind a slow
        compilation.  If a build fails, one waiter takes over.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    _CACHE_HITS.inc()
                    return entry
                pending = self._building.get(key)
                if pending is None:
                    pending = threading.Event()
                    self._building[key] = pending
                    self.misses += 1
                    _CACHE_MISSES.inc()
                    break  # this thread builds
            pending.wait()
            # Either the entry is cached now (hit on the next loop), or the
            # build failed / was not retained and this thread takes over.
        try:
            engine = builder()
        except BaseException:
            with self._lock:
                del self._building[key]
            pending.set()  # a waiter takes over the build
            raise
        with self._lock:
            # Retain before signalling: a waiter must find the entry, not a
            # gap that would trigger a redundant second compilation.
            if self.capacity > 0:
                self._entries[key] = engine
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    _CACHE_EVICTIONS.inc()
            del self._building[key]
        pending.set()
        return engine

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self):
        """The cached keys, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every cached plan (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> dict:
        """Counters and occupancy, for telemetry and tests."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


@dataclass
class SessionStatistics:
    """Cumulative counters over every completed run of a session.

    ``absorb`` locks: the session's documented threading contract allows
    concurrent (unbounded) runs, and each run folds its totals in here
    once at completion -- far off the hot path.
    """

    runs: int = 0
    feed_runs: int = 0
    input_events: int = 0
    input_bytes: int = 0
    output_events: int = 0
    output_bytes: int = 0
    elapsed_seconds: float = 0.0
    peak_buffered_bytes: int = 0
    peak_resident_bytes: int = 0
    spill_count: int = 0
    handler_executions: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def absorb(self, stats: RunStatistics, *, feed: bool = False) -> None:
        """Fold one completed run's statistics into the session totals."""
        with self._lock:
            self.runs += 1
            if feed:
                self.feed_runs += 1
            self.input_events += stats.input_events
            self.input_bytes += stats.input_bytes
            self.output_events += stats.output_events
            self.output_bytes += stats.output_bytes
            self.elapsed_seconds += stats.elapsed_seconds
            self.peak_buffered_bytes = max(self.peak_buffered_bytes, stats.peak_buffered_bytes)
            self.peak_resident_bytes = max(self.peak_resident_bytes, stats.peak_resident_bytes)
            self.spill_count += stats.spill_count
            self.handler_executions += stats.handler_executions

    def summary(self) -> str:
        """One line of session-lifetime telemetry."""
        return (
            f"runs={self.runs} (feed={self.feed_runs}) "
            f"in={self.input_events}ev/{self.input_bytes}B "
            f"out={self.output_events}ev/{self.output_bytes}B "
            f"peak-buffer={self.peak_buffered_bytes}B "
            f"spills={self.spill_count} "
            f"elapsed={self.elapsed_seconds:.3f}s"
        )


class PreparedQuery:
    """N >= 1 compiled, cached plans bound to their session: one run shape.

    ``session.prepare(query)`` gives one *unnamed* member and
    ``session.prepare_many({...})`` named ones.  Either way every verb opens
    one :class:`~repro.engine.engine.RunHandle` with a seat per member, in
    :meth:`_open`:

    * :meth:`execute` -- pull a document through, output to any sink,
    * :meth:`stream` -- pull mode with lazily-yielded output fragments
      (one member only: a fragment sink drains one seat),
    * :meth:`open_run` -- push mode (``feed``/``finish``),
    * :meth:`open_feed` -- an endless stream of concatenated documents.

    A run seals to an unnamed member's
    :class:`~repro.engine.engine.FluxRunResult`, or to one
    :class:`~repro.engine.engine.MultiQueryRun` keyed by member name.  A one-member query scans
    through its cached engine's warm one-slot fanout; a set attaches each
    member's projection automaton to an N-slot fanout, once, here.  A pass
    hands member *i* exactly the events its solo filter would keep, so
    per-member output and peak-buffer numbers equal N solo runs; only the
    scan is shared.
    """

    def __init__(self, session: "FluxSession", engines: Mapping[Optional[str], FluxEngine]):
        self.session = session
        self.engines = dict(engines)
        if len(self.engines) == 1:
            self.fanout = self.engine.fanout
        else:
            self.fanout = DynamicFanout()
            for engine in self.engines.values():
                self.fanout.attach(engine.projection_spec)

    # ------------------------------------------------------------ inspection

    @property
    def names(self) -> tuple:
        """The member names, in preparation order (``(None,)`` for ``prepare``)."""
        return tuple(self.engines)

    def __len__(self) -> int:
        return len(self.engines)

    @property
    def engine(self) -> FluxEngine:
        """The compiled engine of a one-member query."""
        if len(self.engines) != 1:
            raise TypeError(f"a set of {len(self.engines)} queries has no single engine; use .engines")
        return next(iter(self.engines.values()))

    @property
    def flux_source(self) -> str:
        """The scheduled FluX query in concrete syntax."""
        return self.engine.flux_source()

    @property
    def plan(self):
        """The compiled executor plan."""
        return self.engine.plan

    def describe_buffers(self) -> str:
        """Human-readable buffer trees (what the engine will buffer)."""
        return self.engine.describe_buffers()

    # ------------------------------------------------------------- execution

    def execute(
        self,
        document: DocumentSource,
        *,
        sink=None,
        sinks: Optional[Mapping[str, object]] = None,
        options: Optional[ExecutionOptions] = None,
        **overrides,
    ) -> RunResult:
        """Execute every member over one document in one pass.

        ``sink`` receives a one-member query's output: ``None`` collects it
        into ``result.output``, a writable streams, an
        :class:`~repro.pipeline.sinks.OutputSink` instance is used directly
        (a :class:`~repro.pipeline.sinks.NullSink` only counts it).
        ``sinks`` maps *every* member name to its own sink instead.
        ``options`` (or keyword overrides of the session defaults) carry the
        per-run knobs.
        """
        run = self._open("pull", self._seats(sink, sinks), self.session._lend(options, overrides))
        return run.drive(document).result

    def stream(
        self,
        document: DocumentSource,
        *,
        options: Optional[ExecutionOptions] = None,
        **overrides,
    ) -> StreamingRun:
        """Pull-mode run yielding serialized output fragments lazily.

        The returned :class:`~repro.engine.engine.StreamingRun` scans and
        executes as fragments are pulled; no full-output string is ever
        materialized.  A set of several queries raises :class:`TypeError`.
        """
        if len(self.engines) != 1:
            raise TypeError(
                f"stream drains one query's fragments, not {len(self.engines)}; "
                "use open_run(sinks=...) for a set"
            )
        seats = self._seats(FragmentSink(), None)
        return self._open("stream", seats, self.session._lend(options, overrides), document=document)

    def open_run(
        self,
        sink=None,
        *,
        sinks: Optional[Mapping[str, object]] = None,
        options: Optional[ExecutionOptions] = None,
        **overrides,
    ) -> RunHandle:
        """Open a push-mode run: feed chunks as they arrive, then finish.

        Pass a :class:`~repro.pipeline.sinks.FragmentSink` to get each
        ``feed`` call's output back incrementally (duplex streaming), a
        writable to forward output as it is produced, or nothing to collect
        the result; ``sinks`` as for :meth:`execute`.
        """
        lent = self.session._lend(options, overrides, feed=True)
        return self._open("push", self._seats(sink, sinks), lent)

    def open_feed(
        self,
        sink=None,
        *,
        sinks: Optional[Mapping[str, object]] = None,
        options: Optional[ExecutionOptions] = None,
        on_document=None,
        on_heartbeat=None,
        resume_from: Optional[int] = None,
        **overrides,
    ) -> "FeedHandle":
        """Open a continuous feed: unboundedly many concatenated documents.

        Each document executes as its own push run over the shared compiled
        plans (buffers, statistics and attribution reset at every boundary),
        against the session's shared memory governor when one is
        configured.  ``on_document`` receives each sealed
        :class:`~repro.feeds.DocumentResult`; ``on_heartbeat`` fires every
        :data:`~repro.feeds.HEARTBEAT_INTERVAL_BYTES` fed bytes;
        ``resume_from`` skips an already-processed stream prefix
        byte-exactly.  See :mod:`repro.feeds`.
        """
        seats = self._seats(sink, sinks)
        lent = self.session._lend(options, overrides, feed=True)
        governor = lent.pop("governor")
        return FeedHandle(
            partial(self._open, "push", seats, lent),
            options=lent["options"],
            governor=governor,
            on_document=on_document,
            on_heartbeat=on_heartbeat,
            resume_from=resume_from,
        )

    # ------------------------------------------------------------- internals

    def _seats(self, sink, sinks: Optional[Mapping[str, object]]) -> list:
        """One seat per member.  The one check of ``sink``/``sinks``,
        before anything runs: ``sinks`` must name every member and no
        other, and ``sink`` serves a one-member query only."""
        if sinks is None:
            sinks = {}
        else:
            unknown = [name for name in sinks if name not in self.engines]
            if unknown:
                raise ValueError(f"sinks for queries that are not members: {unknown}")
            missing = [name for name in self.engines if name not in sinks]
            if missing:
                raise ValueError(f"no writable provided for queries: {missing}")
        if sink is not None:
            if sinks or len(self.engines) != 1:
                raise TypeError("sink= serves a one-member query; pass sinks={name: sink}")
            sinks = dict.fromkeys(self.engines, sink)
        return [(engine.plan, sinks.get(name), name) for name, engine in self.engines.items()]

    def _open(self, mode: str, seats: list, lent: dict, *, document=None, **framing) -> RunHandle:
        """The run every verb opens: ``lent`` is the session's
        (:meth:`FluxSession._lend`), ``document`` makes it a
        :class:`StreamingRun`, ``framing`` is a feed document's.  A named
        set's run is one shared multi-query pass."""
        if self.names != (None,):
            mode = "multiquery"
            _PASSES.inc()
            _PASS_QUERIES.inc(len(seats))
        if document is not None:
            return StreamingRun(document, self.fanout, seats, mode=mode, **lent, **framing)
        return RunHandle(self.fanout, seats, mode=mode, **lent, **framing)


class FluxSession:
    """A long-lived execution context: one DTD, cached plans, shared budget.

    Parameters
    ----------
    dtd:
        DTD source text or a parsed :class:`~repro.dtd.schema.DTD`.
    root_element:
        Name of the document element (required unless the DTD already has
        an attached root).
    options:
        Session-default :class:`~repro.core.options.ExecutionOptions`;
        every run starts from these and may override per call.  A
        ``memory_budget`` here is one governor shared by all of the
        session's runs: it caps resident buffered memory session-wide.
    plan_cache:
        The :class:`PlanCache` compiled plans are retained in; pass one to
        share it between sessions or to size it (default: a private cache
        of ``DEFAULT_PLAN_CACHE_SIZE`` plans).

    Sessions are context managers; :meth:`close` releases the shared
    governor's spill file.

    Threading: ``prepare``/``prepare_many`` are thread-safe (the plan
    cache locks; concurrent sessions compile each plan exactly once), and
    *unbounded* runs are independent.  The shared memory governor of a
    session-level budget is deliberately lock-free -- admission
    accounting sits on the per-event hot path -- so **bounded runs of one
    session must not execute concurrently**; give each thread its own
    session (they can still share a ``plan_cache``) or pass per-run
    budgets via ``options`` (those governors are private to the run).
    """

    def __init__(
        self,
        dtd: Union[str, DTD],
        *,
        root_element: Optional[str] = None,
        options: Optional[ExecutionOptions] = None,
        plan_cache: Optional[PlanCache] = None,
    ):
        schema = parse_dtd(dtd) if isinstance(dtd, str) else dtd
        self.dtd = ensure_rooted(schema, root_element)
        self.options = options if options is not None else DEFAULT_OPTIONS
        self.cache = plan_cache if plan_cache is not None else PlanCache()
        self.statistics = SessionStatistics()
        self._fingerprint = self.dtd.fingerprint()
        self._governor: Optional[MemoryGovernor] = None
        self._closed = False

    # -------------------------------------------------------------- prepare

    def prepare(self, query: QuerySource, *, projection: bool = True) -> PreparedQuery:
        """Schedule and compile ``query`` (or fetch it from the plan cache).

        This is the one way to compile a query.  ``projection`` is the one
        compile-time choice and is part of the cache key; per-run behaviour
        lives in :class:`~repro.core.options.ExecutionOptions` at execute
        time.
        """
        self._ensure_open()
        kind, text = _normalize_query(query)
        key = PlanKey(
            query_kind=kind,
            query_text=text,
            dtd_fingerprint=self._fingerprint,
            projection=projection,
        )
        engine = self.cache.get_or_build(
            key, lambda: FluxEngine(query, self.dtd, projection=projection)
        )
        return PreparedQuery(self, {None: engine})

    def prepare_many(
        self,
        queries: Union[Mapping[str, QuerySource], Sequence[QuerySource]],
        *,
        projection: bool = True,
    ) -> PreparedQuery:
        """Prepare N named queries for shared-pass execution.

        ``queries`` is a mapping ``name -> query`` or a plain sequence
        (auto-named ``q0``, ``q1``, ...).  Every member compiles through
        the session's plan cache -- preparing a query solo and again in a
        set costs one compilation, not two.  The result is the same
        :class:`PreparedQuery` ``prepare`` returns, with named members: its
        runs seal to a :class:`~repro.engine.engine.MultiQueryRun`.
        """
        self._ensure_open()
        if isinstance(queries, str):
            raise TypeError(
                "queries must be a mapping or a sequence of queries; "
                "for a single query use prepare(...)"
            )
        if not isinstance(queries, Mapping):
            queries = {f"q{index}": query for index, query in enumerate(queries)}
        if not queries:
            raise ValueError("prepare_many needs at least one query")
        engines = {
            name: self.prepare(query, projection=projection).engine
            for name, query in queries.items()
        }
        return PreparedQuery(self, engines)

    # ------------------------------------------------------------- internals

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("this FluxSession is closed")

    def _resolve_options(
        self, options: Optional[ExecutionOptions], overrides: dict
    ) -> ExecutionOptions:
        """Per-run options: the caller's (or the session defaults) plus
        keyword overrides.

        A session-level memory budget applies to *every* run, as the
        session contract promises: an explicit ``options`` object that
        does not set its own budget inherits the session's, so passing
        options for an unrelated knob can never silently unbound a run.
        """
        self._ensure_open()
        if options is None:
            base = self.options
        else:
            base = options
            if base.memory_budget is None and self.options.memory_budget is not None:
                base = base.replace(memory_budget=self.options.memory_budget)
        return ExecutionOptions.from_kwargs(base, **overrides)

    def _lend(self, options: Optional[ExecutionOptions], overrides: dict, *, feed: bool = False):
        """What every run of this session is opened with: its resolved
        options, the session governor when it shares it, and the hook that
        folds the finished run into the session statistics."""
        options = self._resolve_options(options, overrides)
        absorb = self.statistics.absorb
        return {
            "options": options,
            "governor": self._shared_governor(options),
            "on_finish": partial(absorb, feed=True) if feed else absorb,
        }

    def _shared_governor(self, options: ExecutionOptions) -> Optional[MemoryGovernor]:
        """The governor the session lends a run: its own (lazily created)
        when the run's budget matches the session's, ``None`` otherwise --
        no budget, or a per-run override, for which the run creates and
        closes a private one."""
        budget = options.memory_budget
        if budget is None or budget != self.options.memory_budget:
            return None
        if self._governor is None:
            # Owned under the runs' own rule: a session that is dropped
            # without close() does not leak the governor's spill file.
            self._governor, self._release_governor = governor_for(self, self.options)
        return self._governor

    # ------------------------------------------------------------- telemetry

    def memory_telemetry(self) -> Optional[dict]:
        """The shared governor's counters, ``None`` when unbounded/unused."""
        return self._governor.telemetry() if self._governor is not None else None

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release the session governor (spill file included).  Idempotent."""
        self._closed = True
        if self._governor is not None:
            self._release_governor()  # runs governor.close() exactly once
        self._governor = None

    def __enter__(self) -> "FluxSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
