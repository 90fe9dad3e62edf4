"""The streaming executor.

The executor drives a :class:`~repro.engine.plan.QueryPlan` with the events
of the input document.  A frame per open element that the plan needs holds
the scopes opened *at* it (by ``on a as $x`` handlers of the parent
scope), whether it lies in a region copied to the output, the buffers
capturing its events (whole subtrees below marked buffer-tree nodes, tags
only along unmarked paths), the condition values accumulating, and the
parent scope's ``on-first`` handlers that fired on it and run at its end.
Per child a scope observes, at most one transition of its (erased)
Glushkov automaton is taken, and the handlers whose past tables it
satisfies come with it -- the cheap punctuation mechanism of Appendix B;
any other child of the scope element is skipped outright.

Hot-path structure (the pipeline's *execute* stage):

* what a start tag does that depends only on the plan is compiled once into
  **frame templates**, interned in :attr:`QueryPlan.frames
  <repro.engine.plan.QueryPlan.frames>` and shared by every run of the plan
  (so by every hub seat of one query text).  A template is a tuple of plan
  *positions* -- the scopes opened at the element, and the buffer-tree and
  value-trie nodes it sits on -- and maps each child tag, when first seen,
  to a :class:`_Step`: which positions capture the child or accumulate its
  value, which scopes observe it (their automaton moves, memoized per
  state, list the ``on-first`` handlers each move fires), which ``on``
  handlers open nested scopes or copy it, and its own template.  A frame
  pairs its template with ``acts``, the activations of its positions, and
  the parts that change at run time: capture sinks, accumulators, the copy
  flag and the work waiting for the end tag,
* a child that nothing needs gets no frame: it and its subtree only go to
  the parent frame's captures, accumulators and copy, and the executor
  keeps just their names (:meth:`StreamExecutor.position`),
* events arrive in *batches*; scope buffers are charged once per batch and
  before any buffer is read or released.  The run handle counts the input
  and notes each batch in the flight recorder once for every seat
  (:attr:`StreamExecutor.batch_events`),
* :meth:`StreamExecutor.begin` / :meth:`StreamExecutor.process_batch` /
  :meth:`StreamExecutor.finish` let a :class:`~repro.engine.engine.RunHandle`
  drain the output sink between batches and execute in **push mode**, with
  whatever events one fed chunk completed: all executor state is held
  between batches.  ``finish`` returns the sink's text.
"""

from __future__ import annotations

from collections import defaultdict
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dtd.glushkov import INITIAL_STATE
from repro.engine.buffers import BufferManager, EventBuffer
from repro.engine.plan import (
    CompiledOnFirst,
    QueryPlan,
    ScopeSpec,
    StreamCopyAction,
)
from repro.engine.stats import RunStatistics
from repro.flux.ast import maximal_xquery_subexpressions
from repro.pipeline.sinks import CollectSink, OutputSink
from repro.xmlstream.events import (
    Characters,
    EndDocument,
    EndElement,
    Event,
    RawContent,
    StartDocument,
    StartElement,
)
from repro.xquery.analysis import free_variables

Path = Tuple[str, ...]

#: Shared placeholder for frame sequences never written.
_EMPTY: tuple = ()
#: The value store of a scope before its first value is stored.
_NO_VALUES = MappingProxyType({})
#: What a root-marked root scope captures as its start tag.
_ROOT_START = StartElement("#ROOT")
#: Steps a template caches; later tags get uncached steps, so a run over an
#: unbounded vocabulary cannot grow a shared plan without bound.
_STEP_CAP = 4096
#: Position kinds of a template.
_SCOPE, _BUFFER, _VALUE = 0, 1, 2


# ---------------------------------------------------------------------------
# Frame templates: what a start tag does, per plan


class _Scope:
    """What opening one scope does, whatever the run.  A scope is *inert*
    when nothing fires in it and nothing reads its variable: it gets no
    activation, only its position."""

    __slots__ = (
        "spec",
        "var",
        "buffered",
        "root_marked",
        "valued",
        "positions",
        "extra",
        "initial",
        "fired",
        "finals",
        "every",
        "stepped",
        "listed",
        "inert",
    )

    def __init__(self, spec: ScopeSpec, read: frozenset):
        self.spec = spec
        self.var = spec.var
        self.buffered = spec.needs_buffer
        self.root_marked = spec.root_marked
        self.valued = spec.value_trie is not None
        self.positions = ((_SCOPE, self),)
        if self.buffered and not self.root_marked:
            self.positions += ((_BUFFER, spec.buffer_tree),)
        if self.valued:
            self.positions += ((_VALUE, spec.value_trie),)
        #: Positions past the first that the scope's activation also fills.
        self.extra = len(self.positions) - 1
        #: The handlers whose past set holds before any child (i = 0), and
        #: ``(handler, bit)`` of every handler (i = n+1 at close).
        self.initial = tuple(h for h in spec.on_first if h.fires_initially())
        self.fired = sum(1 << h.index for h in self.initial)
        self.finals = tuple((h, 1 << h.index) for h in spec.on_first)
        self.every = sum(bit for _handler, bit in self.finals)
        #: The automaton state matters only to past tables.
        self.stepped = spec.automaton is not None and any(
            h.past_table is not None for h in spec.on_first
        )
        self.listed = self.var in read
        self.inert = not (spec.on_first or self.buffered or self.valued or self.listed)


class _Step:
    """What a start tag does under one template.

    ``carry``: parent positions that the child's first positions continue;
    ``captures``: ``(position, marked)``; ``values``: ``(position, path)``;
    ``scopes``: ``(position, moves, ons)`` per scope that observes the tag,
    where ``moves`` (``None`` when the state matters to nothing) maps a
    state to its move and ``ons`` lists the ``on`` handlers as
    ``(nested scope, stream copy)``, inert nested scopes left out.
    """

    __slots__ = (
        "child",
        "carry",
        "captures",
        "values",
        "collects",
        "scopes",
        "name",
    )

    def __init__(self, child, carry, captures, values, scopes, name):
        self.child = child
        self.carry = carry
        self.captures = captures
        self.values = values
        self.scopes = scopes
        self.name = name
        self.collects = bool(captures or values)

    def move(self, moves: dict, activation: "ScopeActivation") -> tuple:
        """The move of ``activation``'s automaton on this tag, memoized:
        ``(next state, handlers to run now, handlers to run at the child's
        end, their bits)``.  A handler is listed when the move makes its
        past table true; past tables are monotone along the automaton, so
        no handler is listed twice in one run, nor one fired at i = 0."""
        state = activation.dfa_state
        spec = activation.scope.spec
        after = spec.automaton.step(state, self.name)
        fired = [] if after is None else [
            h for h in spec.on_first
            if h.past_table is not None and h.past_table.get(after, False)
            and not h.past_table.get(state, False)
        ]
        # A child in the past set (``past(S)`` holds once its subtree is
        # read) runs the handler at its end; otherwise Definition 3.6 holds
        # already and listing order puts the body before a copy of it.
        now = tuple(h for h in fired if self.name not in h.symbols)
        later = tuple(h for h in fired if self.name in h.symbols)
        moves[state] = move = (after, now, later, sum(1 << h.index for h in fired))
        return move


#: The step of a child nothing needs: it and its subtree get no frame.
_PASSIVE = _Step(None, _EMPTY, _EMPTY, _EMPTY, _EMPTY, None)


class _Template:
    """A frame's positions and, per child tag, its step."""

    __slots__ = ("frames", "positions", "scopes", "steps")

    def __init__(self, frames: dict, positions: tuple):
        self.frames = frames
        self.positions = positions
        #: Positions of the (non-inert) scopes opened here, closed at the end.
        self.scopes = tuple(
            i for i, (kind, node) in enumerate(positions) if kind == _SCOPE and not node.inert
        )
        self.steps: Dict[str, _Step] = {}

    def step(self, name: str) -> _Step:
        """Build (and cache, below the cap) the step of child tag ``name``.
        The child's positions are the deeper buffer and value positions,
        then those of the scopes it opens, inert ones last (past ``acts``)."""
        carry = []
        positions = []
        captures = []
        values = []
        scopes = []
        opened = []
        inert = []
        for index, (kind, node) in enumerate(self.positions):
            if kind == _SCOPE:
                spec = node.spec
                if spec.observed is not None and name not in spec.observed:
                    continue  # a silent move of the scope's automaton
                ons = []
                for handler in spec.on_by_tag.get(name, _EMPTY):
                    nested = handler.nested and _scope(self.frames, handler.nested)
                    if nested is not None and nested.inert:
                        inert += nested.positions
                        continue
                    ons.append((nested, handler.copy))
                    opened += nested.positions if nested is not None else _EMPTY
                moves = {None: (None, _EMPTY, _EMPTY, 0)} if node.stepped else None
                if moves is not None or ons:
                    scopes.append((index, moves, tuple(ons)))
                continue
            child = node.children.get(name)
            if child is None:
                continue
            if kind == _BUFFER:
                captures.append((index, child.marked))
                deeper = not child.marked and child.children
            else:
                if child.terminal_path is not None:
                    values.append((index, child.terminal_path))
                deeper = child.children
            if deeper:
                carry.append(index)
                positions.append((kind, child))
        positions += opened + inert
        step = _PASSIVE
        if captures or values or scopes or positions:
            child = _template(self.frames, tuple(positions))
            step = _Step(child, tuple(carry), tuple(captures), tuple(values), tuple(scopes), name)
        if len(self.steps) < _STEP_CAP:
            self.steps[name] = step
        return step


def _scope(frames: dict, spec: ScopeSpec) -> _Scope:
    scope = frames.get(id(spec))
    return scope or frames.setdefault(id(spec), _Scope(spec, frames["read"]))


def _template(frames: dict, positions: tuple) -> _Template:
    key = tuple((kind, id(node)) for kind, node in positions)
    template = frames.get(key)
    return template or frames.setdefault(key, _Template(frames, positions))


def _root(plan: QueryPlan) -> Tuple[_Scope, _Template]:
    """The root scope and the root frame's template of ``plan`` (interned
    under ``None``, next to the variables the plan's bodies read)."""
    frames = plan.frames
    read = frozenset().union(*map(free_variables, maximal_xquery_subexpressions(plan.flux)))
    frames.setdefault("read", read)
    scope = _scope(frames, plan.root_scope)
    return frames.setdefault(None, (scope, _template(frames, scope.positions)))


# ---------------------------------------------------------------------------
# Runtime state


class _ValueAccumulator:
    """Collects the text content of one matched condition-path element."""

    __slots__ = ("activation", "path", "parts")

    def __init__(self, activation: "ScopeActivation", path: Path):
        self.activation = activation
        self.path = path
        self.parts: List[str] = []

    def finish(self, stats: RunStatistics) -> None:
        value = "".join(self.parts)
        activation = self.activation
        if activation.value_store is _NO_VALUES:
            activation.value_store = {}
        activation.value_store.setdefault(self.path, []).append(value)
        activation.condition_bytes += len(value)
        stats.record_condition_bytes(len(value))


class ScopeActivation:
    """One live instance of a ``process-stream`` scope: what compiled
    bodies read for its variable, and ``memo``, the results of repeated
    conditions that it owns (:mod:`repro.engine.xquery_exec`).  ``fired``
    is a bitset over handler indexes."""

    __slots__ = (
        "scope",
        "element_name",
        "dfa_state",
        "fired",
        "buffer",
        "value_store",
        "memo",
        "condition_bytes",
    )

    def __init__(self, scope: _Scope, element_name: str, buffer: Optional[EventBuffer]):
        self.scope = scope
        self.element_name = element_name
        self.dfa_state: Optional[int] = INITIAL_STATE
        self.fired = scope.fired
        self.buffer = buffer
        self.value_store: Dict[Path, List[str]] = _NO_VALUES
        self.memo: Optional[dict] = None
        self.condition_bytes = 0


class _Frame:
    """Per-open-element execution state.  ``sinks`` and ``accs`` start as
    the parent's sequences and are copied on every append; ``pending``
    holds parent-scope handlers to run at the end, and ``work`` -- tags-only
    captures and accumulators to close, copy suffixes and deferred copies
    -- is made on first need."""

    __slots__ = (
        "template",
        "acts",
        "name",
        "sinks",
        "copy",
        "accs",
        "pending",
        "work",
    )

    def __init__(self, template, acts, name, sinks, copy, accs):
        self.template = template
        self.acts = acts
        self.name = name
        self.sinks = sinks
        self.copy = copy
        self.accs = accs
        self.pending: tuple = _EMPTY
        self.work: Optional[tuple] = None

    def ends(self) -> tuple:
        self.work = self.work or ([], [], [], [])
        return self.work


# ---------------------------------------------------------------------------
# The executor


class StreamExecutor:
    """Executes a compiled plan over an event stream.

    ``sink`` may be any :class:`~repro.pipeline.sinks.OutputSink`; omitted,
    the output is collected.  ``governor`` is the memory governor the
    scope buffers page under (:mod:`repro.engine.buffers`); omitted, they
    stay on the heap.
    """

    def __init__(
        self,
        plan: QueryPlan,
        *,
        stats: Optional[RunStatistics] = None,
        sink: Optional[OutputSink] = None,
        governor=None,
    ):
        self.plan = plan
        self.stats = stats or RunStatistics()
        self.sink = sink if sink is not None else CollectSink(self.stats)
        self.buffers = BufferManager(self.stats, governor=governor)
        self._stack: List[_Frame] = []
        #: Names of the open elements below the top frame that got none.
        self._passive: List[str] = []
        self._active_scopes: Dict[str, List[ScopeActivation]] = defaultdict(list)
        #: Events of the last batch (raw content counts as its events).
        self.batch_events = 0

    # ------------------------------------------------------------------ API

    def begin(self) -> None:
        """Start a run: emit the plan prelude and open the root scope."""
        self.sink.write_text(self.plan.pre)
        scope, template = self.plan.frames.get(None) or _root(self.plan)
        self._stack.append(_Frame(template, [], "#ROOT", _EMPTY, False, _EMPTY))
        self._open_scope(scope, _ROOT_START, self._stack[-1])

    def process_batch(self, batch: Sequence[Event]) -> None:
        """Feed one batch of events through the compiled plan."""
        stack = self._stack
        passive = self._passive
        sink = self.sink
        top = stack[-1]
        extra = 0
        for event in batch:
            cls = event.__class__
            if cls is StartElement:
                # Events inside fully-captured (marked) regions.
                for capture in top.sinks:
                    capture.append(event)
                if not passive:
                    step = top.template.steps.get(event.name) or top.template.step(event.name)
                    if step is not _PASSIVE:
                        acts = top.acts
                        carried = list(map(acts.__getitem__, step.carry)) if step.carry else []
                        frame = _Frame(step.child, carried, event.name, top.sinks, top.copy, top.accs)
                        if step.collects:
                            self._collect(event, step, top, frame)
                        for index, moves, ons in step.scopes:
                            if moves is not None:
                                activation = acts[index]
                                move = moves.get(activation.dfa_state) or step.move(moves, activation)
                                activation.dfa_state = move[0]
                                if move[3]:
                                    activation.fired |= move[3]
                                    for handler in move[1]:
                                        self._execute_handler(handler)
                                    if move[2]:
                                        frame.pending += move[2]
                            for nested, copy in ons:
                                if nested is None:
                                    self._apply_stream_copy(copy, event, frame)
                                else:
                                    self._open_scope(nested, event, frame)
                        if frame.copy:
                            sink.write_event(event)
                        stack.append(frame)
                        top = frame
                        continue
                passive.append(event.name)
                if top.copy:
                    sink.write_event(event)
            elif cls is EndElement:
                # The end tag belongs to every full-subtree capture.
                for capture in top.sinks:
                    capture.append(event)
                if passive:
                    passive.pop()
                    if top.copy:
                        sink.write_event(event)
                    continue
                stack.pop()
                work = top.work
                if work is not None:
                    # Tags-only captures and accumulators opened here close.
                    for buffer in work[0]:
                        buffer.append(event)
                    for accumulator in work[1]:
                        accumulator.finish(self.stats)
                # Scopes opened here reach their end-of-children point.
                for index in top.template.scopes:
                    self._finish_scope(top.acts[index])
                if top.copy:
                    sink.write_event(event)
                if work is not None:
                    self._close_copies(work)
                # Parent-scope handlers that fired on this child run now
                # that it is complete.
                for handler in top.pending:
                    self._execute_handler(handler)
                top = stack[-1]
            elif cls is Characters:
                for capture in top.sinks:
                    capture.append(event)
                for accumulator in top.accs:
                    accumulator.parts.append(event.text)
                if top.copy:
                    sink.write_event(event)
            elif cls is RawContent:
                # An opaque element's content: the projection guarantees
                # that no scope, capture position or handler sits inside
                # it, so it goes where its events would have gone.
                extra += event.count - 1
                for capture in top.sinks:
                    capture.append(event)
                for accumulator in top.accs:
                    accumulator.parts.append(event.characters())
                if top.copy:
                    sink.write_event(event)
            elif cls is StartDocument or cls is EndDocument:
                extra -= 1
            else:
                raise TypeError(f"not an XML event: {event!r}")
        if self.buffers.dirty:
            self.buffers.flush()
        self.batch_events = len(batch) + extra

    def position(self) -> Tuple[int, Optional[str]]:
        """The open-element depth (the virtual root counts) and the
        innermost open element's name, for the flight recorder."""
        if self._passive:
            return len(self._stack) + len(self._passive), self._passive[-1]
        return len(self._stack), self._stack[-1].name if self._stack else None

    def abort(self) -> None:
        """Best-effort teardown of an abandoned run.

        Releases every live scope buffer and deferred-copy buffer so a
        *shared* (session-owned) memory governor gets its pages and
        spill-store space back -- an aborted push-mode feed or abandoned
        stream must not let dead pages count against the session budget
        forever.  Safe to call at any point and idempotent; the executor
        is unusable afterwards.
        """
        for frame in self._stack:
            buffers = [frame.acts[index].buffer for index in frame.template.scopes]
            if frame.work is not None:
                buffers += [buffer for _action, buffer in frame.work[3]]
            for buffer in buffers:
                if buffer is not None:
                    buffer.release()
        self._stack = []
        self._active_scopes = defaultdict(list)

    def finish(self) -> Optional[str]:
        """End of stream: close the root scope and emit the plan postlude.

        Returns the sink's collected text (``None`` for a sink that does
        not collect).
        """
        if self.buffers.dirty:
            self.buffers.flush()
        # Fires e.g. the final "on-first past(<document element>)" handlers.
        root_frame = self._stack.pop()
        for index in root_frame.template.scopes:
            self._finish_scope(root_frame.acts[index])
        if self._stack or self._passive:
            raise ValueError("unbalanced input stream: elements left open")
        self.sink.write_text(self.plan.post)
        return self.sink.text()

    # ------------------------------------------------------------ internals

    def _holds(self, test) -> bool:
        # Every buffer read charges first.
        if self.buffers.dirty:
            self.buffers.flush()
        return test(self._active_scopes)

    def _write_gated(self, parts) -> None:
        for text, test in parts:
            if test is None or self._holds(test):
                self.sink.write_text(text)

    def _execute_handler(self, handler: CompiledOnFirst) -> None:
        self.stats.handler_executions += 1
        if self.buffers.dirty:
            self.buffers.flush()
        handler.run(self._active_scopes, self.sink)

    def _open_scope(self, scope: _Scope, event: StartElement, frame: _Frame) -> None:
        buffer = None
        if scope.buffered:
            buffer = self.buffers.create_buffer(scope.var, source=scope.spec, scope=event.name)
        activation = ScopeActivation(scope, event.name, buffer)
        frame.acts.append(activation)
        if scope.extra:
            frame.acts += [activation] * scope.extra
        if scope.listed:
            self._active_scopes[scope.var].append(activation)
        if scope.root_marked:
            # The scope element itself is buffered (``{$x}`` is output):
            # capture its start tag now and its subtree via the frame.
            buffer.append(StartElement(event.name) if event.attributes else event)
            frame.sinks = [*frame.sinks, buffer]
        # i = 0 scan: handlers whose past set is already satisfied fire now.
        for handler in scope.initial:
            self._execute_handler(handler)

    def _finish_scope(self, activation: ScopeActivation) -> None:
        scope = activation.scope
        # i = n+1 scan: handlers that have not fired yet fire at end-of-children.
        if activation.fired != scope.every:
            for handler, bit in scope.finals:
                if not activation.fired & bit:
                    activation.fired |= bit
                    self._execute_handler(handler)
        if scope.listed:
            self._active_scopes[scope.var].pop()
        if scope.buffered:
            activation.buffer.release()
        if activation.condition_bytes:
            self.stats.record_condition_bytes(-activation.condition_bytes)
            activation.condition_bytes = 0

    def _collect(self, event: StartElement, step: _Step, parent: _Frame, frame: _Frame) -> None:
        """The child's buffer captures and value accumulators."""
        for index, marked in step.captures:
            buffer = parent.acts[index].buffer
            buffer.append(StartElement(event.name) if event.attributes else event)
            if marked:
                frame.sinks = [*frame.sinks, buffer]
            else:
                frame.ends()[0].append(buffer)
        for index, path in step.values:
            accumulator = _ValueAccumulator(parent.acts[index], path)
            frame.accs = [*frame.accs, accumulator]
            frame.ends()[1].append(accumulator)

    def _apply_stream_copy(self, action: StreamCopyAction, event: StartElement, frame: _Frame) -> None:
        if action.defer:
            # Gating conditions only become decidable once this child has
            # been fully read: capture the subtree transiently and emit the
            # whole action at the end event (see StreamCopyAction.defer).
            buffer = None
            if action.copy_var is not None:
                buffer = self.buffers.create_buffer(
                    action.copy_var, source=action, scope=frame.name
                )
                buffer.append(event)
                frame.sinks = [*frame.sinks, buffer]
            frame.ends()[3].append((action, buffer))
            return
        self._write_gated(action.prefix)
        if action.copy_var is not None:
            if action.copy_test is None or self._holds(action.copy_test):
                frame.copy = True
        if action.suffix:
            frame.ends()[2].extend(action.suffix)

    def _close_copies(self, work: tuple) -> None:
        """Stream-copy suffixes, then deferred copies: the child is now
        fully read, so their gating conditions are decidable."""
        self._write_gated(work[2])
        for action, buffer in work[3]:
            self._write_gated(action.prefix)
            if buffer is not None:
                if action.copy_test is None or self._holds(action.copy_test):
                    self.buffers.flush()
                    self.sink.write_events(buffer.events)
                buffer.release()
            self._write_gated(action.suffix)
