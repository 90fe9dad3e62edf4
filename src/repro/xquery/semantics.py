"""In-memory reference semantics for XQuery⁻.

This evaluator implements the standard (non-streaming) semantics of the
fragment over a fully materialised :class:`~repro.xmlstream.tree.XMLNode`
document.  It serves two purposes:

* it is the *reference* against which the streaming FluX engine is tested for
  equivalence (Proposition 3.2 / Theorem 4.3),
* it is the evaluation core of the two baseline engines
  (:mod:`repro.baselines`).

The streaming engine compiles XQuery⁻ subexpressions over buffered data
into its own closures (:mod:`repro.engine.xquery_exec`), which share only
``_as_number`` and ``_format_number`` below: comparisons are written
twice, so the differential oracle can see a defect in either.

Output is produced as a flat string: fixed strings are emitted verbatim
(they are literal markup in the paper's reading of queries) and subtrees are
serialized without insignificant whitespace -- the same convention the
streaming engine uses, so outputs are directly comparable.

Comparison semantics follow XQuery's existential general comparisons: a
comparison between two sequences holds if *some* pair of atomised items
satisfies it.  Items in the xs:double lexical form on both sides are
compared numerically, otherwise as whitespace-stripped strings.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional

from repro.xmlstream.serializer import serialize_events
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
    ROOT_VARIABLE,
    ScaledPath,
    SequenceExpr,
    StringLiteral,
    TextExpr,
    VarOutputExpr,
    XQExpr,
)
from repro.xquery.errors import XQueryEvaluationError

Environment = Dict[str, XMLNode]


def evaluate_query(
    expr: XQExpr,
    root: XMLNode,
    *,
    root_var: str = ROOT_VARIABLE,
    environment: Optional[Environment] = None,
) -> str:
    """Evaluate ``expr`` against the document rooted at ``root``.

    ``root`` is the node the distinguished variable ``$ROOT`` is bound to;
    paths of the form ``$ROOT/a/...`` start *at* this node, i.e. ``a`` must be
    the document element.  Wrap the document element in a virtual node if you
    follow the paper's convention -- :func:`document_environment` does this.
    """
    env: Environment = dict(environment or {})
    env.setdefault(root_var, root)
    output: List[str] = []
    _evaluate(expr, env, output)
    return "".join(output)


def document_environment(document_root: XMLNode, *, root_var: str = ROOT_VARIABLE) -> Environment:
    """Bind ``$ROOT`` to a virtual node whose single child is the document element."""
    virtual = XMLNode("#document", [document_root])
    return {root_var: virtual}


def evaluate_to_string(expr: XQExpr, document_root: XMLNode, *, root_var: str = ROOT_VARIABLE) -> str:
    """Evaluate with the paper's convention that ``$ROOT`` denotes the document.

    ``$ROOT/bib`` then selects the document element ``bib`` itself.
    """
    env = document_environment(document_root, root_var=root_var)
    output: List[str] = []
    _evaluate(expr, env, output)
    return "".join(output)


# ---------------------------------------------------------------------------
# Expression evaluation


def _evaluate(expr: XQExpr, env: Environment, output: List[str]) -> None:
    if isinstance(expr, EmptyExpr):
        return
    if isinstance(expr, TextExpr):
        output.append(expr.text)
        return
    if isinstance(expr, SequenceExpr):
        for item in expr.items:
            _evaluate(item, env, output)
        return
    if isinstance(expr, ForExpr):
        nodes = _resolve_path(env, expr.source, expr.path)
        for node in nodes:
            inner_env = dict(env)
            inner_env[expr.var] = node
            if expr.where is not None and not evaluate_condition(expr.where, inner_env):
                continue
            _evaluate(expr.body, inner_env, output)
        return
    if isinstance(expr, IfExpr):
        if evaluate_condition(expr.condition, env):
            _evaluate(expr.body, env, output)
        return
    if isinstance(expr, PathOutputExpr):
        for node in _resolve_path(env, expr.var, expr.path):
            output.append(_serialize_node(node))
        return
    if isinstance(expr, VarOutputExpr):
        node = _lookup(env, expr.var)
        output.append(_serialize_node(node))
        return
    raise TypeError(f"not an XQuery- expression: {expr!r}")


def _lookup(env: Environment, var: str) -> XMLNode:
    try:
        return env[var]
    except KeyError:
        raise XQueryEvaluationError(f"unbound variable {var}") from None


def _resolve_path(env: Environment, var: str, path) -> List[XMLNode]:
    return _lookup(env, var).select_path(path)


def _serialize_node(node: XMLNode) -> str:
    return serialize_events(node.to_events())


# ---------------------------------------------------------------------------
# Condition evaluation


def evaluate_condition(condition: Condition, env: Environment) -> bool:
    """Evaluate a condition under ``env`` with existential comparison semantics."""
    from repro.xquery.ast import TrueCondition

    if isinstance(condition, TrueCondition):
        return True
    if isinstance(condition, AndCondition):
        return all(evaluate_condition(item, env) for item in condition.items)
    if isinstance(condition, OrCondition):
        return any(evaluate_condition(item, env) for item in condition.items)
    if isinstance(condition, NotCondition):
        return not evaluate_condition(condition.inner, env)
    if isinstance(condition, ExistsCondition):
        return bool(_resolve_path(env, condition.ref.var, condition.ref.path))
    if isinstance(condition, EmptyCondition):
        return not _resolve_path(env, condition.ref.var, condition.ref.path)
    if isinstance(condition, ComparisonCondition):
        left_values = _operand_values(condition.left, env)
        right_values = _operand_values(condition.right, env)
        return compare_existential(left_values, condition.op, right_values)
    raise TypeError(f"not a condition: {condition!r}")


def _operand_values(operand, env: Environment) -> List[str]:
    if isinstance(operand, PathRef):
        return [node.text_content() for node in _resolve_path(env, operand.var, operand.path)]
    if isinstance(operand, StringLiteral):
        return [operand.value]
    if isinstance(operand, NumberLiteral):
        return [_format_number(operand.value)]
    if isinstance(operand, ScaledPath):
        values = []
        for node in _resolve_path(env, operand.ref.var, operand.ref.path):
            number = _as_number(node.text_content())
            if number is not None:
                values.append(_format_number(operand.coefficient * number))
        return values
    raise TypeError(f"not an operand: {operand!r}")


def compare_existential(left_values: List[str], op: str, right_values: List[str]) -> bool:
    """Existential general comparison over two atomised value sequences."""
    for left in left_values:
        for right in right_values:
            if _compare_atomic(left, op, right):
                return True
    return False


def _compare_atomic(left: str, op: str, right: str) -> bool:
    left_number = _as_number(left)
    right_number = _as_number(right)
    if left_number is not None and right_number is not None:
        return _apply_op(left_number, op, right_number)
    return _apply_op(left.strip(), op, right.strip())


def _apply_op(left, op: str, right) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ValueError(f"invalid comparison operator {op!r}")


#: The xs:double lexical space: ASCII digits only, so what else ``float()``
#: accepts (``1_000``, non-ASCII digits, ``nan``, ``Infinity``) stays a string.
_DOUBLE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|-?INF|NaN")


def _as_number(value: str) -> Optional[float]:
    value = value.strip()
    if _DOUBLE.fullmatch(value) is None:
        return None
    return float(value)


def _format_number(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    if float(value).is_integer():
        return str(int(value))
    return repr(value)
