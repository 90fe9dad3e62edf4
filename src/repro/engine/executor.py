"""The streaming executor.

The executor drives a :class:`~repro.engine.plan.QueryPlan` with the events
of the input document.  It maintains one frame per open element; a frame
records

* the evaluator scopes opened *at* that element (by ``on a as $x`` handlers
  of the parent scope),
* whether the element lies inside a region that is being copied to the
  output,
* which buffers capture the element's events (full subtrees below marked
  buffer-tree nodes, tags only along unmarked buffer-tree paths),
* which condition values are being accumulated,
* ``on-first`` handlers of the parent scope that fired on this child and must
  execute when the child is complete.

Per child of an active scope, exactly one Glushkov transition and one
PastTable lookup per watched symbol set are performed -- the cheap
punctuation mechanism of Appendix B.

Hot-path structure (the pipeline's *execute* stage):

* events arrive in *batches*; statistics are recorded once per batch, and
  so are scope buffers' charges (:meth:`~repro.engine.buffers.BufferManager.flush`
  at the end of a batch, before any buffer is read or released),
* the run loop dispatches on the event class directly, and per-scope child
  dispatch uses the plan's precompiled ``on_by_tag`` / ``on_first`` tables
  -- no ``isinstance`` chains per event,
* frames are ``__slots__`` objects whose list fields start as a shared empty
  tuple and are copied only on first write, so untouched elements cost one
  object allocation,
* the run is decomposed into :meth:`StreamExecutor.begin` /
  :meth:`StreamExecutor.process_batch` / :meth:`StreamExecutor.finish`, which
  is what lets the engine drain the output sink between batches, expose a
  streaming-fragment API, and -- since the session redesign -- execute in
  **push mode**: a :class:`~repro.engine.engine.RunHandle` calls
  ``process_batch`` with whatever events one fed chunk completed, at any
  chunk boundary, and ``finish`` validates and flushes exactly as in pull
  mode.  All executor state (frames, scopes, buffers) is held between
  batches, so no stage ever needs the whole document.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dtd.glushkov import INITIAL_STATE
from repro.engine.buffers import BufferManager, EventBuffer
from repro.engine.plan import (
    CompiledOn,
    CompiledOnFirst,
    QueryPlan,
    ScopeSpec,
    StreamCopyAction,
    ValueTrieNode,
)
from repro.engine.projection import BufferTreeNode
from repro.engine.stats import RunStatistics
from repro.obs import recorder as _recorder
from repro.engine.xquery_exec import (
    RuntimeEnvironment,
    ScopeBinding,
    evaluate_condition_runtime,
    execute_expression,
)
from repro.pipeline.sinks import CollectSink, OutputSink
from repro.xmlstream.events import (
    Characters,
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
)
from repro.xquery.ast import Condition

Path = Tuple[str, ...]

#: Shared placeholder for never-written frame list fields (copy-on-write).
_EMPTY: tuple = ()


@dataclass
class ExecutionResult:
    """Outcome of one streaming run."""

    output: Optional[str]
    stats: RunStatistics


# ---------------------------------------------------------------------------
# Runtime state


class _ValueAccumulator:
    """Collects the text content of one matched condition-path element."""

    __slots__ = ("activation", "path", "parts")

    def __init__(self, activation: "ScopeActivation", path: Path):
        self.activation = activation
        self.path = path
        self.parts: List[str] = []

    def add(self, text: str) -> None:
        self.parts.append(text)

    def finish(self, stats: RunStatistics) -> None:
        value = "".join(self.parts)
        store = self.activation.value_store.setdefault(self.path, [])
        store.append(value)
        self.activation.condition_bytes += len(value)
        stats.record_condition_bytes(len(value))


class ScopeActivation:
    """One live instance of a ``process-stream`` scope."""

    __slots__ = (
        "spec",
        "element_name",
        "dfa_state",
        "fired",
        "buffer",
        "value_store",
        "binding",
        "condition_bytes",
    )

    def __init__(self, spec: ScopeSpec, element_name: str, buffer: Optional[EventBuffer]):
        self.spec = spec
        self.element_name = element_name
        self.dfa_state: Optional[int] = INITIAL_STATE if spec.automaton is not None else None
        self.fired: set = set()
        self.buffer = buffer
        self.value_store: Dict[Path, List[str]] = {}
        self.condition_bytes = 0
        self.binding = ScopeBinding(
            spec.var,
            element_name,
            buffer=buffer,
            buffer_tree=spec.buffer_tree,
            value_store=self.value_store,
        )


class _Frame:
    """Per-open-element execution state.

    All sequence fields start as the shared empty tuple; ``subtree_sinks``
    and ``value_accumulators`` may additionally *alias the parent frame's
    sequence* and must be copied before the first append (``owns_sinks``
    tracks ownership for the one field two methods append to).
    """

    __slots__ = (
        "name",
        "scopes",
        "copy_active",
        "copy_suffix",
        "pending_on_first",
        "deferred_copies",
        "subtree_sinks",
        "owns_sinks",
        "tags_only",
        "buffer_positions",
        "value_positions",
        "value_accumulators",
        "value_closers",
    )

    def __init__(self, name, copy_active=False, subtree_sinks=_EMPTY, value_accumulators=_EMPTY):
        self.name = name
        self.scopes = _EMPTY
        self.copy_active = copy_active
        self.copy_suffix = _EMPTY
        self.pending_on_first = _EMPTY
        self.deferred_copies = _EMPTY
        self.subtree_sinks = subtree_sinks
        self.owns_sinks = False
        self.tags_only = _EMPTY
        self.buffer_positions = _EMPTY
        self.value_positions = _EMPTY
        self.value_accumulators = value_accumulators
        self.value_closers = _EMPTY


# ---------------------------------------------------------------------------
# The executor


class StreamExecutor:
    """Executes a compiled plan over an event stream.

    ``sink`` may be any :class:`~repro.pipeline.sinks.OutputSink`; omitted,
    the output is collected.  ``count_input`` disables the executor's own
    input accounting when an upstream stage (the document pass) already
    records it.  ``buffer_factory`` swaps the scope buffers' implementation
    (a memory governor's ``make_buffer`` makes them spillable under a byte
    budget); omitted, buffers are plain in-heap event lists.
    """

    def __init__(
        self,
        plan: QueryPlan,
        *,
        stats: Optional[RunStatistics] = None,
        sink: Optional[OutputSink] = None,
        count_input: bool = True,
        buffer_factory=None,
    ):
        self.plan = plan
        self.stats = stats or RunStatistics()
        self.sink = sink if sink is not None else CollectSink(self.stats)
        self.buffers = BufferManager(self.stats, factory=buffer_factory)
        self._count_input = count_input
        # Bound at construction so a run started after the flight recorder
        # is swapped (tests) picks up the new one.
        self._recorder = _recorder.RECORDER
        self._started_at = 0.0
        self._stack: List[_Frame] = []
        self._active_scopes: Dict[str, List[ScopeActivation]] = {}

    # ------------------------------------------------------------------ API

    def begin(self) -> None:
        """Start a run: emit the plan prelude and open the root scope."""
        self._started_at = time.perf_counter()
        self.sink.write_text(self.plan.pre)
        root_frame = _Frame("#ROOT")
        self._stack.append(root_frame)
        self._open_scope(self.plan.root_scope, "#ROOT", root_frame)

    def process_batch(self, batch: Iterable[Event]) -> None:
        """Feed one batch of events through the compiled plan."""
        start = self._start_element
        end = self._end_element
        chars = self._characters
        count_input = self._count_input
        count = 0
        cost = 0
        for event in batch:
            cls = event.__class__
            if cls is StartElement:
                count += 1
                if count_input:
                    cost += event.cost_in_bytes()
                start(event)
            elif cls is Characters:
                count += 1
                if count_input:
                    cost += len(event.text)
                chars(event)
            elif cls is EndElement:
                count += 1
                if count_input:
                    cost += len(event.name) + 3
                end(event)
            elif cls is StartDocument or cls is EndDocument:
                continue
            else:
                raise TypeError(f"not an XML event: {event!r}")
        self.buffers.flush()
        if count:
            stats = self.stats
            if count_input:
                stats.record_input(count, cost)
            stack = self._stack
            self._recorder.note_batch(
                count,
                stats.input_bytes,
                stats.buffered_bytes_current,
                len(stack),
                stack[-1].name if stack else None,
            )

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
            for activation in frame.scopes:
                if activation.buffer is not None:
                    activation.buffer.release()
            for _action, buffer in frame.deferred_copies:
                if buffer is not None:
                    buffer.release()
        self._stack = []
        self._active_scopes = {}

    def finish(self) -> ExecutionResult:
        """End of stream: close the root scope and emit the plan postlude."""
        self.buffers.flush()
        # Fires e.g. the final "on-first past(<document element>)" handlers.
        root_frame = self._stack.pop()
        for activation in root_frame.scopes:
            self._finish_scope(activation)
        if self._stack:
            raise ValueError("unbalanced input stream: elements left open")

        self.sink.write_text(self.plan.post)
        self.stats.elapsed_seconds = time.perf_counter() - self._started_at
        return ExecutionResult(output=self.sink.text(), stats=self.stats)

    # ------------------------------------------------------------ internals

    def _runtime_environment(self, joins=None) -> RuntimeEnvironment:
        # Every buffer read goes through an environment: charge first.
        self.buffers.flush()
        bindings = {
            var: activations[-1].binding
            for var, activations in self._active_scopes.items()
            if activations
        }
        return RuntimeEnvironment(bindings, joins)

    def _evaluate_condition(self, condition: Condition) -> bool:
        return evaluate_condition_runtime(condition, self._runtime_environment())

    def _execute_handler(self, handler: CompiledOnFirst) -> None:
        self.stats.handler_executions += 1
        execute_expression(handler.body, self._runtime_environment(handler.joins), self.sink)

    # ------------------------------------------------------- scope lifecycle

    def _open_scope(self, spec: ScopeSpec, element_name: str, frame: _Frame) -> ScopeActivation:
        buffer = (
            self.buffers.create_buffer(spec.var, source=spec, scope=element_name)
            if spec.needs_buffer
            else None
        )
        activation = ScopeActivation(spec, element_name, buffer)
        if frame.scopes is _EMPTY:
            frame.scopes = [activation]
        else:
            frame.scopes.append(activation)
        self._active_scopes.setdefault(spec.var, []).append(activation)

        if buffer is not None:
            if spec.root_marked:
                # The scope element itself is buffered (``{$x}`` is output):
                # capture its start tag now and its whole subtree via the
                # frame's subtree sinks.
                buffer.append(StartElement(element_name))
                if frame.owns_sinks:
                    frame.subtree_sinks.append(buffer)
                else:
                    frame.subtree_sinks = [*frame.subtree_sinks, buffer]
                    frame.owns_sinks = True
            elif spec.buffer_tree is not None:
                if frame.buffer_positions is _EMPTY:
                    frame.buffer_positions = [(activation, spec.buffer_tree)]
                else:
                    frame.buffer_positions.append((activation, spec.buffer_tree))
        if spec.value_trie is not None:
            if frame.value_positions is _EMPTY:
                frame.value_positions = [(activation, spec.value_trie)]
            else:
                frame.value_positions.append((activation, spec.value_trie))

        # i = 0 scan: handlers whose past set is already satisfied fire now.
        for handler in spec.on_first:
            if handler.fires_initially():
                activation.fired.add(handler.index)
                self._execute_handler(handler)
        return activation

    def _finish_scope(self, activation: ScopeActivation) -> None:
        # i = n+1 scan: handlers that have not fired yet fire at end-of-children.
        for handler in activation.spec.on_first:
            if handler.index not in activation.fired:
                activation.fired.add(handler.index)
                self._execute_handler(handler)
        stack = self._active_scopes.get(activation.spec.var)
        if stack and stack[-1] is activation:
            stack.pop()
        if activation.buffer is not None:
            activation.buffer.release()
        if activation.condition_bytes:
            self.stats.record_condition_bytes(-activation.condition_bytes)
            activation.condition_bytes = 0

    # --------------------------------------------------------- event handling

    def _start_element(self, event: StartElement) -> None:
        name = event.name
        parent = self._stack[-1]
        inherited_sinks = parent.subtree_sinks

        # Events inside fully-captured (marked) regions.
        for sink in inherited_sinks:
            sink.append(event)

        frame = _Frame(name, parent.copy_active, inherited_sinks, parent.value_accumulators)

        # Buffer-tree matching against the parent's capture positions.
        if parent.buffer_positions:
            for activation, node in parent.buffer_positions:
                child = node.children.get(name)
                if child is None:
                    continue
                activation.buffer.append(StartElement(name))
                if child.marked:
                    if frame.owns_sinks:
                        frame.subtree_sinks.append(activation.buffer)
                    else:
                        frame.subtree_sinks = [*frame.subtree_sinks, activation.buffer]
                        frame.owns_sinks = True
                else:
                    if frame.tags_only is _EMPTY:
                        frame.tags_only = [activation.buffer]
                    else:
                        frame.tags_only.append(activation.buffer)
                    if child.children:
                        if frame.buffer_positions is _EMPTY:
                            frame.buffer_positions = [(activation, child)]
                        else:
                            frame.buffer_positions.append((activation, child))

        # Condition-value matching.
        if parent.value_positions:
            owns_accumulators = False
            for activation, node in parent.value_positions:
                child = node.children.get(name)
                if child is None:
                    continue
                if child.terminal_path is not None:
                    accumulator = _ValueAccumulator(activation, child.terminal_path)
                    if owns_accumulators:
                        frame.value_accumulators.append(accumulator)
                    else:
                        frame.value_accumulators = [*frame.value_accumulators, accumulator]
                        owns_accumulators = True
                    if frame.value_closers is _EMPTY:
                        frame.value_closers = [accumulator]
                    else:
                        frame.value_closers.append(accumulator)
                if child.children:
                    if frame.value_positions is _EMPTY:
                        frame.value_positions = [(activation, child)]
                    else:
                        frame.value_positions.append((activation, child))

        # Handler dispatch for every scope whose children we are processing.
        if parent.scopes:
            for activation in parent.scopes:
                self._dispatch_child(activation, event, frame)

        if frame.copy_active:
            self.sink.write_event(event)

        self._stack.append(frame)

    def _dispatch_child(self, activation: ScopeActivation, event: StartElement, frame: _Frame) -> None:
        name = event.name
        spec = activation.spec
        previous_state = activation.dfa_state
        if spec.automaton is not None and previous_state is not None:
            new_state = spec.automaton.step(previous_state, name)
            activation.dfa_state = new_state
            if spec.on_first and new_state is not None:
                fired = activation.fired
                for handler in spec.on_first:
                    table = handler.past_table
                    if table is None or handler.index in fired:
                        continue
                    if table.get(new_state, False) and not table.get(previous_state, False):
                        fired.add(handler.index)
                        if name in handler.symbols:
                            # The arriving child belongs to the past set:
                            # ``past(S)`` only holds once its subtree has
                            # been read, so run at the child's end event.
                            if frame.pending_on_first is _EMPTY:
                                frame.pending_on_first = [(activation, handler)]
                            else:
                                frame.pending_on_first.append((activation, handler))
                        else:
                            # The past set closed *before* this child:
                            # Definition 3.6 already holds, and listing
                            # order puts the body before any stream-copy
                            # of this same child.
                            self._execute_handler(handler)

        handlers = spec.on_by_tag.get(name)
        if handlers is not None:
            for handler in handlers:
                if handler.nested is not None:
                    self._open_scope(handler.nested, name, frame)
                else:
                    self._apply_stream_copy(handler.copy, event, frame)

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
                if frame.owns_sinks:
                    frame.subtree_sinks.append(buffer)
                else:
                    frame.subtree_sinks = [*frame.subtree_sinks, buffer]
                    frame.owns_sinks = True
            if frame.deferred_copies is _EMPTY:
                frame.deferred_copies = [(action, buffer)]
            else:
                frame.deferred_copies.append((action, buffer))
            return
        for part in action.prefix:
            if part.condition is None or self._evaluate_condition(part.condition):
                self.sink.write_text(part.text)
        if action.copy_var is not None:
            allowed = action.copy_condition is None or self._evaluate_condition(action.copy_condition)
            if allowed:
                frame.copy_active = True
        if action.suffix:
            if frame.copy_suffix is _EMPTY:
                frame.copy_suffix = list(action.suffix)
            else:
                frame.copy_suffix.extend(action.suffix)

    def _characters(self, event: Characters) -> None:
        frame = self._stack[-1]
        for sink in frame.subtree_sinks:
            sink.append(event)
        if frame.value_accumulators:
            text = event.text
            for accumulator in frame.value_accumulators:
                accumulator.add(text)
        if frame.copy_active:
            self.sink.write_event(event)

    def _end_element(self, event: EndElement) -> None:
        frame = self._stack.pop()

        # 1. Close captures: the end tag belongs to every full-subtree sink and
        #    to every tags-only capture opened for this element.
        for sink in frame.subtree_sinks:
            sink.append(event)
        if frame.tags_only:
            tag = EndElement(frame.name)
            for buffer in frame.tags_only:
                buffer.append(tag)
        for accumulator in frame.value_closers:
            accumulator.finish(self.stats)

        # 2. Scopes opened at this element reach their end-of-children point.
        for activation in frame.scopes:
            self._finish_scope(activation)

        # 3. Stream-copy output: closing tag, then conditional suffix strings.
        if frame.copy_active:
            self.sink.write_event(event)
        for part in frame.copy_suffix:
            if part.condition is None or self._evaluate_condition(part.condition):
                self.sink.write_text(part.text)

        # 4. Deferred actions: the child is now fully read, so their gating
        #    conditions are decidable -- emit the whole action in order.
        for action, buffer in frame.deferred_copies:
            for part in action.prefix:
                if part.condition is None or self._evaluate_condition(part.condition):
                    self.sink.write_text(part.text)
            if buffer is not None:
                allowed = action.copy_condition is None or self._evaluate_condition(
                    action.copy_condition
                )
                if allowed:
                    self.buffers.flush()
                    self.sink.write_events(buffer.events)
                buffer.release()
            for part in action.suffix:
                if part.condition is None or self._evaluate_condition(part.condition):
                    self.sink.write_text(part.text)

        # 5. Parent-scope ``on-first`` handlers that fired on this child run
        #    now that the child is complete.
        for activation, handler in frame.pending_on_first:
            self._execute_handler(handler)
