"""Static analyses over XQuery⁻ expressions.

These implement the notions of Section 3 that the scheduler and the safety
checker rely on:

* :func:`free_variables` -- free variables of an expression,
* :func:`dependencies` -- ``dependencies($y, α)``: the child tags of ``$y``
  the expression depends on (first steps of condition paths and of for-loop
  paths rooted at ``$y``; :data:`WHOLE` for a condition on bare ``$y``),
* :func:`condition_paths` -- all ``$x/π`` references in conditions,
* :func:`path_references` -- every path reference of any kind, useful for the
  projection/Π computation,
* :func:`iter_subexpressions` / :func:`variables_bound` -- structural
  helpers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.xquery.ast import (
    Condition,
    EmptyExpr,
    ForExpr,
    IfExpr,
    PathOutputExpr,
    PathRef,
    SequenceExpr,
    TextExpr,
    VarOutputExpr,
    XQExpr,
    condition_path_refs,
)


def iter_subexpressions(expr: XQExpr) -> Iterator[XQExpr]:
    """Depth-first iteration over all subexpressions (including ``expr``)."""
    yield expr
    if isinstance(expr, SequenceExpr):
        for item in expr.items:
            yield from iter_subexpressions(item)
    elif isinstance(expr, ForExpr):
        yield from iter_subexpressions(expr.body)
    elif isinstance(expr, IfExpr):
        yield from iter_subexpressions(expr.body)


def expression_size(expr: XQExpr) -> int:
    """Number of AST nodes (the ``|Q|`` measure used in complexity statements)."""
    return sum(1 for _ in iter_subexpressions(expr))


def variables_bound(expr: XQExpr) -> FrozenSet[str]:
    """Variables bound by for-loops anywhere inside ``expr``."""
    return frozenset(
        sub.var for sub in iter_subexpressions(expr) if isinstance(sub, ForExpr)
    )


def free_variables(expr: XQExpr) -> FrozenSet[str]:
    """Free variables of ``expr`` (Section 3.2)."""
    return frozenset(_free_variables(expr, frozenset()))


def _free_variables(expr: XQExpr, bound: FrozenSet[str]) -> Set[str]:
    if isinstance(expr, (EmptyExpr, TextExpr)):
        return set()
    if isinstance(expr, SequenceExpr):
        out: Set[str] = set()
        for item in expr.items:
            out |= _free_variables(item, bound)
        return out
    if isinstance(expr, ForExpr):
        out = set()
        if expr.source not in bound:
            out.add(expr.source)
        if expr.where is not None:
            out |= {ref.var for ref in condition_path_refs(expr.where) if ref.var not in bound}
        out |= _free_variables(expr.body, bound | {expr.var})
        return out
    if isinstance(expr, IfExpr):
        out = {ref.var for ref in condition_path_refs(expr.condition) if ref.var not in bound}
        out |= _free_variables(expr.body, bound)
        return out
    if isinstance(expr, PathOutputExpr):
        return set() if expr.var in bound else {expr.var}
    if isinstance(expr, VarOutputExpr):
        return set() if expr.var in bound else {expr.var}
    raise TypeError(f"not an XQuery- expression: {expr!r}")


def condition_paths(expr: XQExpr) -> Tuple[PathRef, ...]:
    """All path references occurring in conditions anywhere inside ``expr``."""
    refs: List[PathRef] = []
    for sub in iter_subexpressions(expr):
        if isinstance(sub, ForExpr) and sub.where is not None:
            refs.extend(condition_path_refs(sub.where))
        elif isinstance(sub, IfExpr):
            refs.extend(condition_path_refs(sub.condition))
    return tuple(refs)


#: The dependency of a condition on a bare ``$y`` (the empty path): all of
#: ``$y``'s content, text included, which only ``past(*)`` covers.  No tag
#: name can equal it.
WHOLE = "*"


def dependencies(var: str, expr: XQExpr) -> FrozenSet[str]:
    """``dependencies($y, α)`` as defined in Section 3.3.

    The set contains the first step ``a`` of every condition path ``$y/a`` or
    ``$y/a/π`` occurring in ``α`` and the first step ``b`` of every for-loop
    ``{for $u in $y/π return Q}`` occurring in ``α`` whose path starts at
    ``$y``.  A condition on ``$y`` itself contributes :data:`WHOLE`.
    """
    out: Set[str] = set()
    for ref in condition_paths(expr):
        if ref.var == var:
            out.add(ref.path[0] if ref.path else WHOLE)
    for sub in iter_subexpressions(expr):
        if isinstance(sub, ForExpr) and sub.source == var and sub.path:
            out.add(sub.path[0])
    return frozenset(out)


def path_references(expr: XQExpr) -> Tuple[Tuple[str, Tuple[str, ...], str], ...]:
    """Every path reference in ``expr`` as ``(variable, path, kind)`` triples.

    ``kind`` is one of ``"for"``, ``"condition"``, ``"output"`` (for
    ``{$x/π}``) or ``"var-output"`` (for ``{$x}``, with an empty path).
    Used by the projection analysis and by diagnostic tooling.
    """
    refs: List[Tuple[str, Tuple[str, ...], str]] = []
    for sub in iter_subexpressions(expr):
        if isinstance(sub, ForExpr):
            refs.append((sub.source, sub.path, "for"))
            if sub.where is not None:
                for ref in condition_path_refs(sub.where):
                    refs.append((ref.var, ref.path, "condition"))
        elif isinstance(sub, IfExpr):
            for ref in condition_path_refs(sub.condition):
                refs.append((ref.var, ref.path, "condition"))
        elif isinstance(sub, PathOutputExpr):
            refs.append((sub.var, sub.path, "output"))
        elif isinstance(sub, VarOutputExpr):
            refs.append((sub.var, (), "var-output"))
    return tuple(refs)


def uses_whole_variable(expr: XQExpr, var: str) -> bool:
    """Whether ``{$var}`` or ``{$var/π}`` occurs as a subexpression of ``expr``."""
    for sub in iter_subexpressions(expr):
        if isinstance(sub, VarOutputExpr) and sub.var == var:
            return True
        if isinstance(sub, PathOutputExpr) and sub.var == var:
            return True
    return False


def rename_variable(expr: XQExpr, old: str, new: str) -> XQExpr:
    """Substitute variable ``old`` by ``new`` everywhere in ``expr``.

    Used by the Section-7 loop-fusion / re-anchoring optimisations.  Binding
    occurrences of ``old`` are renamed as well, which is only sound because
    query variables are required to be used uniquely (Section 5).
    """
    if isinstance(expr, (EmptyExpr, TextExpr)):
        return expr
    if isinstance(expr, SequenceExpr):
        return SequenceExpr([rename_variable(item, old, new) for item in expr.items])
    if isinstance(expr, ForExpr):
        return ForExpr(
            var=new if expr.var == old else expr.var,
            source=new if expr.source == old else expr.source,
            path=expr.path,
            body=rename_variable(expr.body, old, new),
            where=_rename_in_condition(expr.where, old, new) if expr.where is not None else None,
        )
    if isinstance(expr, IfExpr):
        return IfExpr(
            condition=_rename_in_condition(expr.condition, old, new),
            body=rename_variable(expr.body, old, new),
        )
    if isinstance(expr, PathOutputExpr):
        return PathOutputExpr(new if expr.var == old else expr.var, expr.path)
    if isinstance(expr, VarOutputExpr):
        return VarOutputExpr(new if expr.var == old else expr.var)
    raise TypeError(f"not an XQuery- expression: {expr!r}")


def _rename_in_condition(condition: Condition, old: str, new: str) -> Condition:
    from repro.xquery.ast import (
        AndCondition,
        ComparisonCondition,
        EmptyCondition,
        ExistsCondition,
        NotCondition,
        NumberLiteral,
        OrCondition,
        PathRef,
        ScaledPath,
        StringLiteral,
        TrueCondition,
    )

    def rename_operand(operand):
        if isinstance(operand, PathRef):
            return PathRef(new if operand.var == old else operand.var, operand.path)
        if isinstance(operand, ScaledPath):
            return ScaledPath(operand.coefficient, rename_operand(operand.ref))
        if isinstance(operand, (StringLiteral, NumberLiteral)):
            return operand
        raise TypeError(f"not an operand: {operand!r}")

    if isinstance(condition, TrueCondition):
        return condition
    if isinstance(condition, ComparisonCondition):
        return ComparisonCondition(
            rename_operand(condition.left), condition.op, rename_operand(condition.right)
        )
    if isinstance(condition, ExistsCondition):
        return ExistsCondition(rename_operand(condition.ref))
    if isinstance(condition, EmptyCondition):
        return EmptyCondition(rename_operand(condition.ref))
    if isinstance(condition, NotCondition):
        return NotCondition(_rename_in_condition(condition.inner, old, new))
    if isinstance(condition, AndCondition):
        return AndCondition([_rename_in_condition(item, old, new) for item in condition.items])
    if isinstance(condition, OrCondition):
        return OrCondition([_rename_in_condition(item, old, new) for item in condition.items])
    raise TypeError(f"not a condition: {condition!r}")


def binding_environment(expr: XQExpr, root_var: str) -> Dict[str, Tuple[str, Tuple[str, ...]]]:
    """Map every for-bound variable to ``(source variable, path)``.

    This is the static "binding chain" used by the re-anchoring optimisation
    and by the engine's plan compiler to resolve which DTD element type a
    variable ranges over.
    """
    env: Dict[str, Tuple[str, Tuple[str, ...]]] = {}

    def walk(node: XQExpr) -> None:
        if isinstance(node, SequenceExpr):
            for item in node.items:
                walk(item)
        elif isinstance(node, ForExpr):
            env[node.var] = (node.source, node.path)
            walk(node.body)
        elif isinstance(node, IfExpr):
            walk(node.body)

    walk(expr)
    return env
