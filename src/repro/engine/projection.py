"""Buffer-path analysis Π and buffer trees (Section 5).

Only data that an ``on-first`` handler body (or a condition) will actually
look at needs to be buffered.  The analysis has three steps:

1. **Buffer paths** ``Π($r, α)``: for every variable ``$r`` that is free in a
   maximal XQuery⁻ subexpression ``α`` of the FluX query, the set of paths
   under ``$r`` whose nodes must be available in ``$r``'s buffer.  A path is
   *marked* when the whole subtree is needed (it is output, or it is compared
   in a join condition); unmarked paths only contribute their start/end tags
   (they are navigated through, e.g. by a for-loop, but their content is not
   read).
2. **Prefix tree / marking / pruning**: the paths are merged into a prefix
   tree; subtrees below a marked node are pruned because the marked node is
   captured together with its whole subtree anyway.
3. **Condition value paths**: condition paths that compare against constants
   (or ``exists`` / ``empty``) and are not covered by the buffer tree are not
   buffered at all -- the engine evaluates them on the fly and only keeps the
   resulting values/flags per scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.flux.ast import (
    FluxExpr,
    OnFirstHandler,
    OnHandler,
    ProcessStream,
    SimpleFlux,
    maximal_xquery_subexpressions,
)
from repro.xquery.analysis import free_variables
from repro.xquery.ast import (
    ComparisonCondition,
    Condition,
    EmptyExpr,
    ForExpr,
    IfExpr,
    PathOutputExpr,
    PathRef,
    ScaledPath,
    SequenceExpr,
    TextExpr,
    VarOutputExpr,
    XQExpr,
    condition_path_refs,
    iter_atomic_conditions,
)

Path = Tuple[str, ...]


# ---------------------------------------------------------------------------
# Step 1: buffer paths


def buffer_paths(var: str, expr: XQExpr, *, all_conditions: bool = False) -> Dict[Path, bool]:
    """``Π($var, expr)`` as a mapping from path to "marked" flag.

    ``all_conditions=False`` (the default, used for the *scope* variable the
    analysis starts from) only records join-condition paths, following the
    paper: constant comparisons on the scope variable are evaluated on the fly
    with flags and need no buffer.  Variables bound by for-loops *inside* the
    analysed expression range over buffered nodes, so for them every condition
    path must be captured (``all_conditions=True`` in the recursion).
    """
    result: Dict[Path, bool] = {}
    _merge(result, _pi(var, expr, all_conditions))
    return result


def _merge(target: Dict[Path, bool], source: Dict[Path, bool]) -> None:
    for path, marked in source.items():
        target[path] = target.get(path, False) or marked


def _pi(var: str, expr: XQExpr, all_conditions: bool) -> Dict[Path, bool]:
    if isinstance(expr, (EmptyExpr, TextExpr)):
        return {}
    if isinstance(expr, VarOutputExpr):
        return {(): True} if expr.var == var else {}
    if isinstance(expr, PathOutputExpr):
        return {expr.path: True} if expr.var == var else {}
    if isinstance(expr, SequenceExpr):
        result: Dict[Path, bool] = {}
        for item in expr.items:
            _merge(result, _pi(var, item, all_conditions))
        return result
    if isinstance(expr, IfExpr):
        result = _pi(var, expr.body, all_conditions)
        _merge(result, _condition_paths_for(var, expr.condition, all_conditions))
        return result
    if isinstance(expr, ForExpr):
        result = _pi(var, expr.body, all_conditions)
        if expr.where is not None:
            _merge(result, _condition_paths_for(var, expr.where, all_conditions))
        if expr.source == var:
            inner = _pi(expr.var, expr.body, True)
            if expr.where is not None:
                _merge(inner, _condition_paths_for(expr.var, expr.where, True))
            if not inner:
                _merge(result, {expr.path: False})
            else:
                for suffix, marked in inner.items():
                    _merge(result, {expr.path + suffix: marked})
        return result
    raise TypeError(f"not an XQuery- expression: {expr!r}")


def _condition_paths_for(var: str, condition: Condition, all_conditions: bool) -> Dict[Path, bool]:
    """Condition paths of ``var`` that must be buffered.

    Join (two-path) comparisons always need both sides in buffers.  When
    ``all_conditions`` is set (the variable ranges over buffered nodes), every
    condition path -- including constant comparisons and ``exists``/``empty``
    -- is captured as well.  A bare ``$var`` (the empty path) is always
    captured: no on-the-fly value store tracks a variable's own value.
    """
    result: Dict[Path, bool] = {}
    for atom in iter_atomic_conditions(condition):
        if isinstance(atom, ComparisonCondition):
            refs = [
                ref for ref in (_operand_ref(atom.left), _operand_ref(atom.right)) if ref is not None
            ]
            captured = all_conditions or len(refs) == 2
        else:
            refs = list(condition_path_refs(atom))
            captured = all_conditions
        for ref in refs:
            if ref.var == var and (captured or not ref.path):
                result[ref.path] = True
    return result


def _operand_ref(operand):
    if isinstance(operand, PathRef):
        return operand
    if isinstance(operand, ScaledPath):
        return operand.ref
    return None


# ---------------------------------------------------------------------------
# Step 2: buffer trees


@dataclass
class BufferTreeNode:
    """A node of the (pruned) buffer tree of one variable.

    The root node stands for the variable itself; ``label`` is ``None`` there.
    """

    label: object = None
    marked: bool = False
    children: Dict[str, "BufferTreeNode"] = field(default_factory=dict)

    def child(self, label: str) -> "BufferTreeNode":
        if label not in self.children:
            self.children[label] = BufferTreeNode(label)
        return self.children[label]

    def is_empty(self) -> bool:
        """True when nothing at all needs to be buffered for this variable."""
        return not self.marked and not self.children

    def covers(self, path: Sequence[str]) -> bool:
        """Whether the *content* reachable via ``path`` is captured in the buffer.

        A path is covered when some prefix of it ends at a marked node (the
        whole subtree below that node is buffered).
        """
        node = self
        if node.marked:
            return True
        for step in path:
            node = node.children.get(step)
            if node is None:
                return False
            if node.marked:
                return True
        return False

    def describe(self, name: str = "$var") -> str:
        """Human-readable rendering used by examples and debugging."""
        lines: List[str] = [f"{name}{' •' if self.marked else ''}"]
        self._describe_children(lines, prefix="  ")
        return "\n".join(lines)

    def _describe_children(self, lines: List[str], prefix: str) -> None:
        for label in sorted(self.children):
            node = self.children[label]
            lines.append(f"{prefix}{label}{' •' if node.marked else ''}")
            node._describe_children(lines, prefix + "  ")

    def iter_paths(self) -> Iterable[Tuple[Path, bool]]:
        """Iterate ``(path, marked)`` over all nodes (excluding the root)."""
        stack: List[Tuple[Path, BufferTreeNode]] = [((), self)]
        while stack:
            path, node = stack.pop()
            if path:
                yield path, node.marked
            for label, child in node.children.items():
                stack.append((path + (label,), child))


def build_buffer_tree(paths: Dict[Path, bool]) -> BufferTreeNode:
    """Merge buffer paths into a prefix tree, mark, and prune below marks."""
    root = BufferTreeNode()
    for path, marked in sorted(paths.items()):
        if not path:
            root.marked = root.marked or marked
            continue
        node = root
        for step in path[:-1]:
            node = node.child(step)
        leaf = node.child(path[-1])
        leaf.marked = leaf.marked or marked
    _prune(root)
    return root


def _prune(node: BufferTreeNode) -> None:
    if node.marked:
        node.children = {}
        return
    for child in node.children.values():
        _prune(child)


def buffer_tree_for_variable(var: str, expressions: Iterable[XQExpr]) -> BufferTreeNode:
    """Union of ``Π(var, ·)`` over several expressions, as a pruned tree."""
    paths: Dict[Path, bool] = {}
    for expr in expressions:
        _merge(paths, buffer_paths(var, expr))
    return build_buffer_tree(paths)


def buffered_subexpressions(flux: FluxExpr) -> List[XQExpr]:
    """XQuery⁻ subexpressions that are evaluated over buffers.

    These are the bodies of ``on-first`` handlers (at any nesting depth).
    Simple ``on``-handler bodies are *excluded*: the engine executes them as
    on-the-fly copies of the triggering child (Section 5's ``case(on title):
    output ...`` evaluators), so they never read buffers -- which is exactly
    why queries like XMark Q1/Q13 run with zero buffering.
    """
    out: List[XQExpr] = []
    if isinstance(flux, SimpleFlux):
        return [flux.expr]
    if not isinstance(flux, ProcessStream):
        raise TypeError(f"not a FluX expression: {flux!r}")
    for handler in flux.handlers:
        if isinstance(handler, OnFirstHandler):
            out.append(handler.body)
        elif isinstance(handler, OnHandler) and isinstance(handler.body, ProcessStream):
            out.extend(buffered_subexpressions(handler.body))
    return out


def buffer_trees(flux: FluxExpr) -> Dict[str, BufferTreeNode]:
    """Buffer trees for every variable free in a buffer-evaluated subexpression.

    Variables whose tree is empty (nothing to buffer) are omitted -- those are
    the variables the query processes purely on the fly.
    """
    subexpressions = buffered_subexpressions(flux)
    variables: Set[str] = set()
    for expr in subexpressions:
        variables |= free_variables(expr)
    trees: Dict[str, BufferTreeNode] = {}
    for var in sorted(variables):
        tree = buffer_tree_for_variable(var, subexpressions)
        if not tree.is_empty():
            trees[var] = tree
    return trees


# ---------------------------------------------------------------------------
# Step 3: condition value paths


def condition_value_paths(
    var: str, expressions: Iterable[XQExpr], tree: BufferTreeNode
) -> FrozenSet[Path]:
    """Condition paths of ``var`` that must be tracked on the fly.

    These are all paths rooted at ``var`` that occur in conditions of the
    given expressions and whose content is *not* covered by the buffer tree
    (typically path-versus-constant comparisons, ``exists`` and ``empty``).
    """
    needed: Set[Path] = set()
    for expr in expressions:
        for ref in _all_condition_refs(expr):
            if ref.var != var or not ref.path:
                continue
            if not tree.covers(ref.path):
                needed.add(ref.path)
    return frozenset(needed)


def _all_condition_refs(expr: XQExpr) -> Iterable[PathRef]:
    from repro.xquery.analysis import iter_subexpressions

    for sub in iter_subexpressions(expr):
        if isinstance(sub, IfExpr):
            yield from condition_path_refs(sub.condition)
        elif isinstance(sub, ForExpr) and sub.where is not None:
            yield from condition_path_refs(sub.where)
