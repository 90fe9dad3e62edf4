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

A scope buffer is read as events, not as a tree: ``exists`` / ``empty``,
value reads and ``{$x}`` / ``{$x/path}`` output find the elements a path
reaches by one walk over the buffered events (:func:`_path_spans`), and
output writes those events -- start tags without attributes, still-open
elements closed, exactly what serialising the tree wrote -- through the
sink's ``write_events``.  An :class:`~repro.xmlstream.tree.XMLNode` tree is
built only when a ``for`` loop iterates buffered nodes; variables bound by
for-loops are then ordinary tree nodes, so nested loops and join
conditions work exactly as in the reference evaluator.

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
page once for its event reads), the path matches over them, the materialised
scope trees and memoised ``resolve_values`` results live in one
:class:`_HandlerCache` per handler execution.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple, Union

from repro.engine.buffers import EventBuffer
from repro.engine.plan import JoinGuard
from repro.engine.projection import BufferTreeNode
from repro.xmlstream.events import Characters, EndElement, Event, StartElement
from repro.xmlstream.tree import XMLNode
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

    def materialize(self) -> XMLNode:
        """Build a navigable node for this scope from the buffered events.

        ``allow_open=True``: handler conditions may navigate a scope buffer
        *mid-stream*, while the scope element (and the deferred child being
        gated) are still open; Definition 3.6 safety guarantees the
        navigated paths themselves are complete.
        """
        if self.buffer is None:
            return XMLNode(self.element_name)
        if self.root_marked:
            node = self.buffer.to_single_node(allow_open=True)
            if node is None:
                return XMLNode(self.element_name)
            return node
        return self.buffer.to_tree(self.element_name, allow_open=True)

    def covers_path(self, path: Path) -> bool:
        """Whether the buffer tree captures the content reachable via ``path``."""
        return self.buffer_tree is not None and self.buffer_tree.covers(path)

    def stored_values(self, path: Path) -> Optional[List[str]]:
        """On-the-fly captured values for ``path``, if it is tracked."""
        return self.value_store.get(path)


Binding = Union[XMLNode, ScopeBinding]

#: No indexed loops (conditions evaluated outside an ``on-first`` body).
_NO_JOINS: Dict[int, JoinGuard] = {}


class _HandlerCache:
    """What one handler execution computes once for all its loop iterations.

    ``events`` holds each scope variable's buffered events, ``matches`` the
    :func:`_path_spans` of a ``(variable, path)`` over them, and ``trees``
    the materialised scope trees; ``values`` (memoised
    :meth:`RuntimeEnvironment.resolve_values`, keyed by binding identity and
    path) and ``indexes`` (one :class:`_JoinIndex` per guard and source
    binding) are allocated on first use.  Everything goes when the handler
    returns, so none of it is charged to a memory governor.
    """

    __slots__ = ("events", "matches", "trees", "values", "indexes")

    def __init__(self):
        self.events: Dict[str, List[Event]] = {}
        self.matches: Dict[tuple, List[Tuple[int, int, bool]]] = {}
        self.trees: Dict[str, XMLNode] = {}
        self.values: Optional[Dict[tuple, List[str]]] = None
        self.indexes: Optional[Dict[tuple, "_JoinIndex"]] = None


class RuntimeEnvironment:
    """Variable environment mixing tree nodes and scope bindings.

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

    def with_node(self, var: str, node: XMLNode) -> "RuntimeEnvironment":
        """Child environment with an additional tree-node binding."""
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

    def _materialized_scope(self, var: str, binding: ScopeBinding) -> XMLNode:
        trees = self._cache.trees
        if var not in trees:
            trees[var] = binding.materialize()
        return trees[var]

    def _buffered_matches(self, var: str, binding: ScopeBinding, path: Path):
        """``(events, spans)`` of the elements ``path`` reaches in ``var``'s buffer.

        ``None`` for the one read only the tree answers: the empty path of
        a buffer that does not capture the scope element itself.
        """
        steps = (binding.element_name, *path) if binding.root_marked else path
        if not steps:
            return None
        cache = self._cache
        events = cache.events.get(var)
        if events is None:
            # A paged buffer decodes its spilled pages here, once.
            buffer = binding.buffer
            events = cache.events[var] = [] if buffer is None else buffer.events
        key = (var, steps)
        spans = cache.matches.get(key)
        if spans is None:
            spans = cache.matches[key] = _path_spans(events, steps)
        return events, spans

    # ----------------------------------------------------------- resolution

    def resolve_nodes(self, var: str, path: Path) -> List[XMLNode]:
        """Nodes reachable from ``var`` via ``path`` (what a ``for`` loop iterates)."""
        binding = self.binding(var)
        if isinstance(binding, XMLNode):
            return binding.select_path(path)
        return self._materialized_scope(var, binding).select_path(path)

    def loop_nodes(self, loop: ForExpr) -> List[XMLNode]:
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
            values = cache.values[key] = self._resolve_values(binding, var, path)
        return values

    def _resolve_values(self, binding: Binding, var: str, path: Path) -> List[str]:
        if isinstance(binding, XMLNode):
            return [node.text_content() for node in binding.select_path(path)]
        if binding.covers_path(path):
            # Never None: only a root-marked buffer covers the empty path.
            events, spans = self._buffered_matches(var, binding, path)
            return [
                "".join([e.text for e in events[start:stop] if e.__class__ is Characters])
                for start, stop, _closed in spans
            ]
        stored = binding.stored_values(path)
        if stored is not None:
            return list(stored)
        # The path is neither buffered nor tracked: for a safe query this
        # means it simply cannot have any matches in the current scope.
        return []

    def resolve_count(self, var: str, path: Path) -> int:
        """Number of nodes reachable via ``path`` (for ``exists`` / ``empty``)."""
        binding = self.binding(var)
        if isinstance(binding, XMLNode):
            return len(binding.select_path(path))
        if binding.covers_path(path):
            return len(self._buffered_matches(var, binding, path)[1])
        stored = binding.stored_values(path)
        if stored is not None:
            return len(stored)
        return 0

    def write_output(self, var: str, path: Path, sink) -> None:
        """Write the nodes ``{$var}`` (empty ``path``) or ``{$var/path}`` outputs."""
        binding = self.binding(var)
        if isinstance(binding, ScopeBinding):
            found = self._buffered_matches(var, binding, path)
            if found is not None:
                events, spans = found
                for start, stop, closed in spans:
                    sink.write_events(_copied_element(events, start, stop, closed))
                return
            nodes = self._materialized_scope(var, binding).select_path(path)
        else:
            nodes = binding.select_path(path)
        for node in nodes:
            sink.write_node(node)


# ---------------------------------------------------------------------------
# Reading buffered events


def _path_spans(events: List[Event], steps: Path) -> List[Tuple[int, int, bool]]:
    """Where the elements a non-empty child path reaches from a buffered forest lie.

    One ``(start, stop, closed)`` per element, in document order: its events
    are ``events[start:stop]``, and ``closed`` is false for an element still
    open at the end of the buffer (a mid-stream read), which the tree path
    closes virtually.  ``matched`` is how many leading ``steps`` the chain of
    open elements spells; a start tag extends it only while the whole chain
    matches.
    """
    last = len(steps)
    spans = []
    depth = matched = start = 0
    for index, event in enumerate(events):
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
                    spans.append((start, index + 1, True))
                matched = depth
    if matched == last:
        spans.append((start, len(events), False))
    return spans


def _copied_element(events: List[Event], start: int, stop: int, closed: bool) -> List[Event]:
    """The events serialising the tree of ``events[start:stop]`` wrote.

    Trees drop attributes, so start tags lose theirs; an element still open
    at the end of the buffer gets the end tags ``close_open`` would add.
    """
    copied = [
        StartElement(event.name) if event.__class__ is StartElement and event.attributes else event
        for event in events[start:stop]
    ]
    if not closed:
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

    def __init__(self, nodes: List[XMLNode], keys: List[List[str]]):
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

    def probe(self, op: str, values: List[str]) -> List[XMLNode]:
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
