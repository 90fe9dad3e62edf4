"""Execution of XQuery⁻ subexpressions over runtime buffers.

When an ``on-first`` handler fires (or a conditional string has to be
emitted), the engine evaluates an XQuery⁻ expression whose free variables are
*scope variables* -- variables bound by the surrounding ``process-stream``
blocks.  The data available for a scope variable is

* its event buffer, projected according to the buffer tree (Section 5), and
* its on-the-fly condition value store (for paths that are compared against
  constants and are therefore never buffered).

This module provides the environment abstraction
(:class:`ScopeBinding` / :class:`RuntimeEnvironment`) and an evaluator that
mirrors :mod:`repro.xquery.semantics` but resolves paths through that hybrid
environment.

Buffered data has one form, the events.  A buffered element is a
:class:`_Span` -- its slice ``events[start:stop]`` of a scope buffer's
events -- and one walk (:func:`_path_spans`) finds the elements a path
reaches, from a scope buffer or from inside a span.  ``for`` loops bind
their variable to a span, so nested loops and conditions on loop variables
walk the same events; ``exists`` / ``empty`` count spans, a value is a
span's character data, and ``{$x}`` / ``{$x/path}`` output writes each
span's events -- start tags without attributes, still-open elements closed,
as the reference evaluator's attribute-free tree serialises them --
through the sink's ``write_events``.  An opaque element's content may sit
in a buffer as one raw content item: output writes its text as it is, and a
path that steps inside it takes out only the children it names.

Joins are indexed.  A ``for`` loop the plan gave a
:class:`~repro.engine.plan.JoinGuard` does not iterate all its nodes:
:meth:`RuntimeEnvironment.loop_nodes` keys them once per source binding in a
:class:`_JoinIndex` (values from the evaluator's own ``_operand_values``,
classified by the same xs:double rule ``compare_existential`` applies), and
each outer binding probes it by ``bisect`` for the nodes that can satisfy the
guard.  The unchanged loop -- ``where`` and body included -- then runs over
those candidates in document order; since they are a superset of the nodes
that could emit anything, output is identical to the nested loop's.  The
indexes, the scope buffers' events (read once, so a paged buffer faults each
page once per handler execution), the spans over them and memoised
``resolve_values`` results live in one :class:`_HandlerCache` per handler
execution.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple, Union

from repro.engine.buffers import EventBuffer
from repro.engine.plan import JoinGuard
from repro.engine.projection import BufferTreeNode
from repro.xmlstream.events import Characters, EndElement, Event, RawContent, StartElement
from repro.xquery.ast import (
    AndCondition,
    ComparisonCondition,
    Condition,
    EmptyCondition,
    EmptyExpr,
    ExistsCondition,
    ForExpr,
    IfExpr,
    NotCondition,
    NumberLiteral,
    OrCondition,
    PathOutputExpr,
    PathRef,
    ScaledPath,
    SequenceExpr,
    StringLiteral,
    TextExpr,
    TrueCondition,
    VarOutputExpr,
    XQExpr,
)
from repro.xquery.errors import XQueryEvaluationError
from repro.xquery.semantics import compare_existential, _format_number, _as_number

Path = Tuple[str, ...]


class ScopeBinding:
    """Runtime data bound to one scope variable."""

    def __init__(
        self,
        var: str,
        element_name: str,
        *,
        buffer: Optional[EventBuffer] = None,
        buffer_tree: Optional[BufferTreeNode] = None,
        value_store: Optional[Dict[Path, List[str]]] = None,
    ):
        self.var = var
        self.element_name = element_name
        self.buffer = buffer
        self.buffer_tree = buffer_tree
        self.value_store = value_store if value_store is not None else {}

    # --------------------------------------------------------------- data

    @property
    def root_marked(self) -> bool:
        """Whether the buffer captures the scope element itself (``{$x}`` output)."""
        return self.buffer_tree is not None and self.buffer_tree.marked

    def covers_path(self, path: Path) -> bool:
        """Whether the buffer tree captures the content reachable via ``path``."""
        return self.buffer_tree is not None and self.buffer_tree.covers(path)

    def stored_values(self, path: Path) -> Optional[List[str]]:
        """On-the-fly captured values for ``path``, if it is tracked."""
        return self.value_store.get(path)


class _Span:
    """One buffered element: its events are ``events[start:stop]``.

    ``closed`` is false for an element still open at the end of the buffer
    (a mid-stream read); its output closes it virtually.  Spans are what
    ``for`` loops bind their variable to.
    """

    __slots__ = ("events", "start", "stop", "closed")

    def __init__(self, events: List[Event], start: int, stop: int, closed: bool):
        self.events = events
        self.start = start
        self.stop = stop
        self.closed = closed

    def text(self) -> str:
        """The element's character data (its atomised value)."""
        parts = []
        for event in self.events[self.start : self.stop]:
            cls = event.__class__
            if cls is Characters:
                parts.append(event.text)
            elif cls is RawContent:
                parts.append(event.characters())
        return "".join(parts)


Binding = Union[ScopeBinding, _Span]

#: No indexed loops (conditions evaluated outside an ``on-first`` body).
_NO_JOINS: Dict[int, JoinGuard] = {}


class _HandlerCache:
    """What one handler execution computes once for all its loop iterations.

    ``events`` holds each scope binding's buffered events and ``matches``
    the :func:`_path_spans` of a ``(binding, path)`` over them, keyed by
    binding identity: a loop returns the same span objects every time, so
    ``values`` (memoised :meth:`RuntimeEnvironment.resolve_values`) and
    ``indexes`` (one :class:`_JoinIndex` per guard and source binding), both
    keyed by identity too and allocated on first use, always see the same
    nodes.  Everything goes when the handler returns, so none of it is
    charged to a memory governor.
    """

    __slots__ = ("events", "matches", "values", "indexes")

    def __init__(self):
        self.events: Dict[int, List[Event]] = {}
        self.matches: Dict[tuple, List[_Span]] = {}
        self.values: Optional[Dict[tuple, List[str]]] = None
        self.indexes: Optional[Dict[tuple, "_JoinIndex"]] = None


class RuntimeEnvironment:
    """Variable environment mixing scope bindings and loop-bound spans.

    ``joins`` is the handler's :attr:`~repro.engine.plan.CompiledOnFirst.joins`:
    the ``for`` loops of its body that run as indexed joins.
    """

    def __init__(
        self,
        bindings: Optional[Dict[str, Binding]] = None,
        joins: Optional[Dict[int, JoinGuard]] = None,
    ):
        self._bindings: Dict[str, Binding] = dict(bindings or {})
        self._joins = joins or _NO_JOINS
        self._cache = _HandlerCache()

    def with_node(self, var: str, node: Binding) -> "RuntimeEnvironment":
        """Child environment with ``var`` bound to ``node`` (a loop variable)."""
        child = object.__new__(RuntimeEnvironment)
        child._bindings = {**self._bindings, var: node}
        child._joins = self._joins
        child._cache = self._cache
        return child

    def binding(self, var: str) -> Binding:
        try:
            return self._bindings[var]
        except KeyError:
            raise XQueryEvaluationError(f"unbound variable {var} at handler execution time") from None

    def _matches(self, binding: Binding, path: Path) -> List[_Span]:
        """The buffered elements ``path`` reaches from ``binding``, in document order."""
        cache = self._cache
        key = (id(binding), path)
        spans = cache.matches.get(key)
        if spans is not None:
            return spans
        if binding.__class__ is _Span:
            events = binding.events
            spans = _path_spans(
                events, (events[binding.start].name, *path), binding.start, binding.stop
            )
        else:
            events = cache.events.get(id(binding))
            if events is None:
                # A paged buffer decodes its spilled pages here, once.
                buffer = binding.buffer
                events = cache.events[id(binding)] = [] if buffer is None else buffer.events
            # Without the scope element itself the buffer holds its children.
            steps = (binding.element_name, *path) if binding.root_marked else path
            spans = _path_spans(events, steps, 0, len(events)) if steps else []
        cache.matches[key] = spans
        return spans

    # ----------------------------------------------------------- resolution

    def resolve_nodes(self, var: str, path: Path) -> List[_Span]:
        """Nodes reachable from ``var`` via ``path`` (what a ``for`` loop iterates)."""
        return self._matches(self.binding(var), path)

    def loop_nodes(self, loop: ForExpr) -> List[_Span]:
        """The nodes ``loop`` iterates, in document order.

        For an indexed join these are only the candidates the guard's index
        admits for the current outer binding: a superset of the nodes whose
        ``where`` and body emit anything, so the loop's output is unchanged.
        """
        guard = self._joins.get(id(loop))
        if guard is None:
            return self.resolve_nodes(loop.source, loop.path)
        source = self.binding(loop.source)
        cache = self._cache
        if cache.indexes is None:
            cache.indexes = {}
        key = (id(guard), id(source))
        index = cache.indexes.get(key)
        if index is None:
            nodes = self.resolve_nodes(loop.source, loop.path)
            keys = [_operand_values(guard.inner, self.with_node(loop.var, node)) for node in nodes]
            index = cache.indexes[key] = _JoinIndex(nodes, keys)
        if not index.nodes:  # like the nested loop, never evaluate the outer side
            return index.nodes
        return index.probe(guard.op, _operand_values(guard.outer, self))

    def resolve_values(self, var: str, path: Path) -> List[str]:
        """Atomised string values reachable from ``var`` via ``path`` (for conditions).

        Memoised per handler execution: callers must not mutate the list.
        """
        binding = self.binding(var)
        cache = self._cache
        if cache.values is None:
            cache.values = {}
        key = (id(binding), path)
        values = cache.values.get(key)
        if values is None:
            values = cache.values[key] = self._resolve_values(binding, path)
        return values

    def _resolve_values(self, binding: Binding, path: Path) -> List[str]:
        if binding.__class__ is _Span or binding.covers_path(path):
            return [span.text() for span in self._matches(binding, path)]
        stored = binding.stored_values(path)
        if stored is not None:
            return list(stored)
        # The path is neither buffered nor tracked: for a safe query this
        # means it simply cannot have any matches in the current scope.
        return []

    def resolve_count(self, var: str, path: Path) -> int:
        """Number of nodes reachable via ``path`` (for ``exists`` / ``empty``)."""
        binding = self.binding(var)
        if binding.__class__ is _Span or binding.covers_path(path):
            return len(self._matches(binding, path))
        stored = binding.stored_values(path)
        if stored is not None:
            return len(stored)
        return 0

    def write_output(self, var: str, path: Path, sink) -> None:
        """Write the nodes ``{$var}`` (empty ``path``) or ``{$var/path}`` outputs."""
        for span in self._matches(self.binding(var), path):
            sink.write_events(_copied_element(span))


# ---------------------------------------------------------------------------
# Reading buffered events


def _path_spans(events: List[Event], steps: Path, lo: int, hi: int) -> List[_Span]:
    """The elements a non-empty child path reaches from the forest ``events[lo:hi]``.

    One span per element, in document order; an element still open at
    ``hi`` (a mid-stream read) gets an open span ending there.  ``matched``
    is how many leading ``steps`` the chain of open elements spells; a start
    tag extends it only while the whole chain matches.  Raw content is
    balanced, so it is stepped over -- unless the path continues inside it:
    then the walk goes on in each of its children the next step names.
    """
    last = len(steps)
    spans = []
    depth = matched = start = 0
    for index, event in enumerate(events[lo:hi], lo):
        cls = event.__class__
        if cls is StartElement:
            if matched == depth and depth < last and event.name == steps[depth]:
                matched += 1
                if matched == last:
                    start = index
            depth += 1
        elif cls is EndElement:
            depth -= 1
            if matched > depth:
                if matched == last:
                    spans.append(_Span(events, start, index + 1, True))
                matched = depth
        elif cls is RawContent and matched == depth < last:
            rest = steps[depth:]
            for child in _raw_children(event.text, rest[0]):
                spans += _path_spans(child, rest, 0, len(child))
    if matched == last:
        spans.append(_Span(events, start, hi, False))
    return spans


def _raw_children(text: str, name: str) -> List[List[Event]]:
    """The children named ``name`` of raw content ``text``, each as its own
    events: start tag, content (one text or raw content item, if any), end
    tag.  In canonical text every tag has one ``<`` and only end tags a
    ``</``, so the depth at a position is the count of ``<`` before it less
    twice the count of ``</``."""
    opening = f"<{name}>"
    closing = f"</{name}>"
    children = []
    depth = counted = 0  # open elements before ``counted``
    at = text.find(opening)
    while at != -1:
        depth += text.count("<", counted, at) - 2 * text.count("</", counted, at)
        counted = at
        if depth:  # a deeper element of that name
            at = text.find(opening, at + 1)
            continue
        inner = at + len(opening)
        close = text.find(closing, inner)
        level = text.count("<", inner, close) - 2 * text.count("</", inner, close)
        while level:  # an end tag of a nested same-name element
            after = close
            close = text.find(closing, after + 1)
            level += text.count("<", after, close) - 2 * text.count("</", after, close)
        content = text[inner:close]
        child: List[Event] = [StartElement(name)]
        if "<" in content:
            child.append(RawContent(content, _raw_event_count(content)))
        elif content:
            child.append(Characters(content))
        child.append(EndElement(name))
        children.append(child)
        counted = close + len(closing)
        at = text.find(opening, counted)
    return children


def _raw_event_count(text: str) -> int:
    """How many events canonical raw content ``text`` (with a tag) stands for:
    its tags, and its text runs -- the gaps between tags that are not empty,
    and text before the first tag or after the last."""
    tags = text.count("<")
    runs = tags - 1 - text.count("><") + (text[0] != "<") + (text[-1] != ">")
    return tags + runs


def _copied_element(span: _Span) -> List[Event]:
    """The events ``{$x}`` writes for a buffered element.

    As in the reference evaluator's trees, start tags lose their
    attributes; an element still open at the end of the buffer gets the
    end tags that close it.
    """
    copied = [
        StartElement(event.name) if event.__class__ is StartElement and event.attributes else event
        for event in span.events[span.start : span.stop]
    ]
    if not span.closed:
        open_names = []
        for event in copied:
            if event.__class__ is StartElement:
                open_names.append(event.name)
            elif event.__class__ is EndElement:
                open_names.pop()
        copied.extend(EndElement(name) for name in reversed(open_names))
    return copied


# ---------------------------------------------------------------------------
# Join indexes


class _SortedKeys:
    """Keys in ascending order beside the loop position each came from."""

    __slots__ = ("keys", "positions")

    def __init__(self, pairs: List[tuple]):
        pairs.sort()
        self.keys = [key for key, _ in pairs]
        self.positions = [position for _, position in pairs]

    def matching(self, op: str, probe) -> List[int]:
        """Positions of the keys ``k`` with ``probe op k``."""
        keys = self.keys
        if op == "=":
            return self.positions[bisect_left(keys, probe) : bisect_right(keys, probe)]
        if op == "<":
            return self.positions[bisect_right(keys, probe) :]
        if op == "<=":
            return self.positions[bisect_left(keys, probe) :]
        if op == ">":
            return self.positions[: bisect_left(keys, probe)]
        if op == ">=":
            return self.positions[: bisect_right(keys, probe)]
        raise ValueError(f"comparison operator {op!r} is not indexed")


class _JoinIndex:
    """The guarded side of a join: one loop's nodes keyed by their atomised values.

    A probe value meets a key exactly as ``_compare_atomic`` pairs them:
    numerically when both are xs:double, otherwise as stripped strings.  So
    numeric keys sit in ``numbers`` (NaN dropped -- it satisfies no indexed
    operator) and again, as strings, in ``numeric_text``; all other keys sit
    in ``text``.  A node with several values has several keys.
    """

    __slots__ = ("nodes", "numbers", "numeric_text", "text")

    def __init__(self, nodes: List[_Span], keys: List[List[str]]):
        self.nodes = nodes
        numbers, numeric_text, text = [], [], []
        for position, values in enumerate(keys):
            for value in values:
                number = _as_number(value)
                if number is None:
                    text.append((value.strip(), position))
                else:
                    numeric_text.append((value.strip(), position))
                    if number == number:
                        numbers.append((number, position))
        self.numbers = _SortedKeys(numbers)
        self.numeric_text = _SortedKeys(numeric_text)
        self.text = _SortedKeys(text)

    def probe(self, op: str, values: List[str]) -> List[_Span]:
        """The nodes, in document order, with a key ``k`` such that ``v op k`` for a ``v``."""
        hits = set()
        for value in values:
            number = _as_number(value)
            stripped = value.strip()
            hits.update(self.text.matching(op, stripped))
            if number is None:
                hits.update(self.numeric_text.matching(op, stripped))
            elif number == number:
                hits.update(self.numbers.matching(op, number))
        nodes = self.nodes
        return [nodes[position] for position in sorted(hits)]


# ---------------------------------------------------------------------------
# Expression evaluation


def execute_expression(expr: XQExpr, env: RuntimeEnvironment, sink) -> None:
    """Evaluate ``expr`` over the runtime environment, writing to ``sink``."""
    if isinstance(expr, EmptyExpr):
        return
    if isinstance(expr, TextExpr):
        sink.write_text(expr.text)
        return
    if isinstance(expr, SequenceExpr):
        for item in expr.items:
            execute_expression(item, env, sink)
        return
    if isinstance(expr, ForExpr):
        for node in env.loop_nodes(expr):
            inner = env.with_node(expr.var, node)
            if expr.where is not None and not evaluate_condition_runtime(expr.where, inner):
                continue
            execute_expression(expr.body, inner, sink)
        return
    if isinstance(expr, IfExpr):
        if evaluate_condition_runtime(expr.condition, env):
            execute_expression(expr.body, env, sink)
        return
    if isinstance(expr, PathOutputExpr):
        env.write_output(expr.var, expr.path, sink)
        return
    if isinstance(expr, VarOutputExpr):
        env.write_output(expr.var, (), sink)
        return
    raise TypeError(f"not an XQuery- expression: {expr!r}")


# ---------------------------------------------------------------------------
# Condition evaluation


def evaluate_condition_runtime(condition: Condition, env: RuntimeEnvironment) -> bool:
    """Evaluate a condition over the runtime environment."""
    if isinstance(condition, TrueCondition):
        return True
    if isinstance(condition, AndCondition):
        return all(evaluate_condition_runtime(item, env) for item in condition.items)
    if isinstance(condition, OrCondition):
        return any(evaluate_condition_runtime(item, env) for item in condition.items)
    if isinstance(condition, NotCondition):
        return not evaluate_condition_runtime(condition.inner, env)
    if isinstance(condition, ExistsCondition):
        return env.resolve_count(condition.ref.var, condition.ref.path) > 0
    if isinstance(condition, EmptyCondition):
        return env.resolve_count(condition.ref.var, condition.ref.path) == 0
    if isinstance(condition, ComparisonCondition):
        left = _operand_values(condition.left, env)
        right = _operand_values(condition.right, env)
        return compare_existential(left, condition.op, right)
    raise TypeError(f"not a condition: {condition!r}")


def _operand_values(operand, env: RuntimeEnvironment) -> List[str]:
    if isinstance(operand, PathRef):
        return env.resolve_values(operand.var, operand.path)
    if isinstance(operand, StringLiteral):
        return [operand.value]
    if isinstance(operand, NumberLiteral):
        return [_format_number(operand.value)]
    if isinstance(operand, ScaledPath):
        values = []
        for raw in env.resolve_values(operand.ref.var, operand.ref.path):
            number = _as_number(raw)
            if number is not None:
                values.append(_format_number(operand.coefficient * number))
        return values
    raise TypeError(f"not an operand: {operand!r}")
