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
environment.  Variables bound by for-loops during the evaluation itself are
ordinary tree nodes (materialised from buffers), so nested loops and join
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
indexes, the materialised scope trees and memoised ``resolve_values`` results
live in one :class:`_HandlerCache` per handler execution.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple, Union

from repro.engine.buffers import EventBuffer
from repro.engine.plan import JoinGuard
from repro.engine.projection import BufferTreeNode
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

    ``trees`` holds the materialised scope trees; ``values`` (memoised
    :meth:`RuntimeEnvironment.resolve_values`, keyed by binding identity and
    path) and ``indexes`` (one :class:`_JoinIndex` per guard and source
    binding) are allocated on first use.  Everything goes when the handler
    returns, so none of it is charged to a memory governor.
    """

    __slots__ = ("trees", "values", "indexes")

    def __init__(self):
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

    # ----------------------------------------------------------- resolution

    def resolve_nodes(self, var: str, path: Path) -> List[XMLNode]:
        """Nodes reachable from ``var`` via ``path`` (for loops and outputs)."""
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
            return [
                node.text_content()
                for node in self._materialized_scope(var, binding).select_path(path)
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
            return len(self._materialized_scope(var, binding).select_path(path))
        stored = binding.stored_values(path)
        if stored is not None:
            return len(stored)
        return 0

    def output_node(self, var: str) -> XMLNode:
        """The node to serialise for ``{$var}``."""
        binding = self.binding(var)
        if isinstance(binding, XMLNode):
            return binding
        return self._materialized_scope(var, binding)


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
        for node in env.resolve_nodes(expr.var, expr.path):
            sink.write_node(node)
        return
    if isinstance(expr, VarOutputExpr):
        sink.write_node(env.output_node(expr.var))
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
