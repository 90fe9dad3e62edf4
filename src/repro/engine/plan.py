"""Compilation of safe FluX queries into executable plans.

A :class:`QueryPlan` is a tree of :class:`ScopeSpec` objects -- one per
``process-stream`` block -- annotated with everything the streaming executor
needs:

* per scope, the ordered handler list compiled into either
  :class:`CompiledOnFirst` (with the precomputed ``PastTable`` of Appendix B)
  or :class:`CompiledOn` (with either a nested scope or a
  :class:`StreamCopyAction` derived from the simple-expression
  decomposition),
* per scope, the pruned buffer tree (Section 5) and the set of condition
  paths to track on the fly,
* the automaton that drives the punctuation events: the Glushkov automaton
  of the scope's element type with every child the scope does not observe
  made a silent move (:meth:`~repro.dtd.constraints.OrderConstraints.erased`),
  so the executor steps it only on the children it observes -- or the
  element's own automaton where the erased one could decide differently,
* per ``on-first`` handler, the :class:`JoinGuard` of every ``for`` loop in
  its body that the executor can run as an indexed join, and the body
  compiled to a closure over them; per stream-copy action, its conditions
  compiled likewise (:mod:`repro.engine.xquery_exec`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.dtd.constraints import OrderConstraints
from repro.dtd.glushkov import GlushkovAutomaton, INITIAL_STATE
from repro.dtd.schema import DTD, ROOT_ELEMENT
from repro.engine.projection import (
    BufferTreeNode,
    buffer_tree_for_variable,
    buffered_subexpressions,
    condition_value_paths,
)
from repro.flux.ast import (
    FluxExpr,
    OnFirstHandler,
    OnHandler,
    ProcessStream,
    SimpleFlux,
    maximal_xquery_subexpressions,
)
from repro.flux.errors import UnsafeQueryError, UnschedulableQueryError
from repro.flux.safety import check_safety
from repro.flux.simple import decompose_simple
from repro.engine.xquery_exec import ConditionMemo, compile_handler, compile_test
from repro.xquery.analysis import free_variables, iter_subexpressions
from repro.xquery.ast import (
    AndCondition,
    ComparisonCondition,
    Condition,
    EmptyExpr,
    ForExpr,
    IfExpr,
    Operand,
    PathRef,
    ROOT_VARIABLE,
    ScaledPath,
    SequenceExpr,
    XQExpr,
    condition_path_refs,
    format_path,
)

Path = Tuple[str, ...]


# ---------------------------------------------------------------------------
# Join guards


@dataclass(frozen=True)
class JoinGuard:
    """A comparison every emitting iteration of ``loop`` satisfies.

    Whenever the loop's ``where`` and body emit anything for a binding of
    ``loop.var``, ``outer op inner`` holds for some pair of atomised values.
    ``inner`` reads only the loop variable and ``outer`` only variables bound
    outside the loop, so the executor probes a sorted index over ``inner``
    once per outer binding and runs the unchanged loop over the candidates
    (the compiled loop of :func:`repro.engine.xquery_exec.compile_handler`).
    """

    loop: ForExpr
    outer: Operand
    op: str
    inner: Operand

    def describe(self) -> str:
        return (
            f"join index: for {self.loop.var} in {format_path(self.loop.source, self.loop.path)}"
            f" on {self.outer.to_source()} {self.op} {self.inner.to_source()}"
        )


#: ``a op b`` is ``b flipped(op) a``; ``!=`` is not indexed.
_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

_Guard = Tuple[Operand, str, Operand]


def join_guards(body: XQExpr) -> Dict[int, JoinGuard]:
    """The guard of every indexable ``for`` in ``body``, keyed by ``id(loop)``.

    An equality guard is preferred over a range guard; otherwise the first
    one in source order wins.
    """
    guards: Dict[int, JoinGuard] = {}
    for loop in _loops(body):
        found = _then_guards(loop.where, _emit_guards(loop.body, loop.var), loop.var)
        if found:
            outer, op, inner = min(found, key=lambda guard: guard[1] != "=")
            guards[id(loop)] = JoinGuard(loop, outer, op, inner)
    return guards


def _loops(expr: XQExpr):
    if isinstance(expr, SequenceExpr):
        for item in expr.items:
            yield from _loops(item)
    elif isinstance(expr, ForExpr):
        yield expr
        yield from _loops(expr.body)
    elif isinstance(expr, IfExpr):
        yield from _loops(expr.body)


def _emit_guards(expr: XQExpr, var: str) -> Optional[Tuple[_Guard, ...]]:
    """Oriented guards on ``var`` that hold whenever ``expr`` emits anything.

    ``None`` means ``expr`` never emits, so any guard holds.
    """
    if isinstance(expr, EmptyExpr):
        return None
    if isinstance(expr, SequenceExpr):
        common = None
        for item in expr.items:
            guards = _emit_guards(item, var)
            if guards is not None:
                common = guards if common is None else tuple(g for g in common if g in guards)
        return common
    if isinstance(expr, IfExpr):
        return _then_guards(expr.condition, _emit_guards(expr.body, var), var)
    if isinstance(expr, ForExpr):
        guards = _then_guards(expr.where, _emit_guards(expr.body, var), var)
        if guards is None:
            return None
        if expr.var == var:  # the nested loop shadows the guarded variable
            return ()
        # A guard on the nested loop's own variable does not lift out of it.
        return tuple(guard for guard in guards if _operand_var(guard[0]) != expr.var)
    return ()


def _then_guards(
    condition: Optional[Condition], body: Optional[Tuple[_Guard, ...]], var: str
) -> Optional[Tuple[_Guard, ...]]:
    """Guards of ``if condition then body``: the condition's conjuncts plus the body's."""
    if body is None:
        return None
    own = (_orient(conjunct, var) for conjunct in _conjuncts(condition))
    return tuple(guard for guard in own if guard is not None) + body


def _conjuncts(condition: Optional[Condition]):
    if isinstance(condition, AndCondition):
        for item in condition.items:
            yield from _conjuncts(item)
    elif isinstance(condition, ComparisonCondition):
        yield condition


def _orient(comparison: ComparisonCondition, var: str) -> Optional[_Guard]:
    """``(outer, op, inner)`` with ``inner`` on ``var`` and ``outer`` on another variable."""
    if comparison.op not in _FLIPPED:
        return None
    left, right = _operand_var(comparison.left), _operand_var(comparison.right)
    if right == var and left not in (None, var):
        return comparison.left, comparison.op, comparison.right
    if left == var and right not in (None, var):
        return comparison.right, _FLIPPED[comparison.op], comparison.left
    return None


def _operand_var(operand: Operand) -> Optional[str]:
    if isinstance(operand, PathRef):
        return operand.var
    if isinstance(operand, ScaledPath):
        return operand.ref.var
    return None


# ---------------------------------------------------------------------------
# Value-capture trie


@dataclass
class ValueTrieNode:
    """Prefix trie over the condition paths tracked on the fly."""

    children: Dict[str, "ValueTrieNode"] = field(default_factory=dict)
    terminal_path: Optional[Path] = None

    def child(self, label: str) -> "ValueTrieNode":
        if label not in self.children:
            self.children[label] = ValueTrieNode()
        return self.children[label]

    @property
    def is_empty(self) -> bool:
        return not self.children and self.terminal_path is None


def build_value_trie(paths: FrozenSet[Path]) -> Optional[ValueTrieNode]:
    """Build the trie; ``None`` when there is nothing to track."""
    if not paths:
        return None
    root = ValueTrieNode()
    for path in sorted(paths):
        node = root
        for step in path:
            node = node.child(step)
        node.terminal_path = path
    return root


# ---------------------------------------------------------------------------
# Compiled handlers and scopes


#: A compiled condition: ``holds(active) -> bool`` over the executor's
#: active scopes (:func:`~repro.engine.xquery_exec.compile_test`).
Test = Callable[[Dict[str, list]], bool]
#: A fixed string and the test that gates it (``None``: unconditional).
GatedText = Tuple[str, Optional[Test]]


@dataclass(frozen=True)
class StreamCopyAction:
    """Runtime form of a simple ``on``-handler body.

    ``prefix`` strings are emitted when the triggering child starts,
    the child's subtree is copied through if ``copy_var`` is set (guarded by
    ``copy_test``), and ``suffix`` strings are emitted when the child
    ends.

    ``defer`` marks actions whose prefix or copy condition is only
    decidable once the triggering child has been *fully read* -- e.g. a
    gate on ``$v/a`` attached to the ``on a`` handler itself, where the
    referenced data is the arriving subtree.  Definition 3.6 admits such
    schedules (the checker treats handler execution as happening at the
    child's end), so the executor buffers the child transiently and emits
    the whole action at its end event instead of streaming it.
    """

    prefix: Tuple[GatedText, ...]
    copy_var: Optional[str]
    copy_test: Optional[Test]
    suffix: Tuple[GatedText, ...]
    defer: bool = False


@dataclass(frozen=True)
class CompiledOnFirst:
    """A compiled ``on-first past(S)`` handler."""

    index: int
    symbols: Optional[FrozenSet[str]]
    body: XQExpr
    past_table: Optional[Dict[int, bool]]
    #: :func:`join_guards` of ``body``, derived once at plan-compile time.
    joins: Dict[int, JoinGuard] = field(repr=False, compare=False)
    #: ``body`` compiled over ``joins``: ``run(active scopes, sink)``.
    run: Callable = field(repr=False, compare=False)

    def fires_initially(self) -> bool:
        """Whether the handler is already satisfied before any child (i = 0)."""
        if self.past_table is not None:
            return bool(self.past_table.get(INITIAL_STATE, False))
        # Without an automaton we only know the answer for the empty set.
        return self.symbols is not None and len(self.symbols) == 0


@dataclass(frozen=True)
class CompiledOn:
    """A compiled ``on a as $x`` handler."""

    index: int
    label: str
    var: str
    nested: Optional["ScopeSpec"]
    copy: Optional[StreamCopyAction]


CompiledHandler = Union[CompiledOnFirst, CompiledOn]


@dataclass(frozen=True)
class ScopeSpec:
    """Everything the executor needs to run one ``process-stream`` block.

    ``on_first`` and ``on_by_tag`` are the precompiled dispatch tables: the
    executor performs one dict lookup per ``(child event, tag)`` instead of
    scanning the handler list with ``isinstance`` checks per child.  They are
    derived from ``handlers`` once at plan-compile time and preserve the
    source order of same-label handlers.
    """

    var: str
    element_type: Optional[str]
    handlers: Tuple[CompiledHandler, ...]
    automaton: Optional[GlushkovAutomaton]
    buffer_tree: Optional[BufferTreeNode]
    value_trie: Optional[ValueTrieNode]
    #: The children ``automaton`` steps on (``on`` labels, buffer-tree and
    #: value-trie children, past-set symbols); ``None`` when it is the
    #: element's own automaton, which steps on every child.
    observed: Optional[FrozenSet[str]] = None
    on_first: Tuple["CompiledOnFirst", ...] = field(init=False, repr=False, compare=False)
    on_by_tag: Dict[str, Tuple["CompiledOn", ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_tag: Dict[str, List[CompiledOn]] = {}
        on_first: List[CompiledOnFirst] = []
        for handler in self.handlers:
            if isinstance(handler, CompiledOnFirst):
                on_first.append(handler)
            else:
                by_tag.setdefault(handler.label, []).append(handler)
        object.__setattr__(self, "on_first", tuple(on_first))
        object.__setattr__(
            self, "on_by_tag", {label: tuple(hs) for label, hs in by_tag.items()}
        )

    @property
    def needs_buffer(self) -> bool:
        """Whether a buffer has to be allocated when this scope activates."""
        return self.buffer_tree is not None and not self.buffer_tree.is_empty()

    @property
    def root_marked(self) -> bool:
        """Whether the buffer captures the scope element itself."""
        return self.buffer_tree is not None and self.buffer_tree.marked


@dataclass(frozen=True)
class QueryPlan:
    """A compiled FluX query, ready for streaming execution."""

    root_scope: ScopeSpec
    pre: str
    post: str
    flux: FluxExpr
    dtd: DTD
    root_var: str
    buffer_trees: Dict[str, BufferTreeNode]
    value_paths: Dict[str, FrozenSet[Path]]
    #: The executor's frame templates, interned on first use so that every
    #: run of this plan shares them (:mod:`repro.engine.executor`).
    frames: dict = field(default_factory=dict, repr=False, compare=False)

    def describe_buffers(self) -> str:
        """Human-readable rendering of all buffer trees (cf. Figure 3)."""
        if not self.buffer_trees:
            return "(no buffers required)"
        parts = []
        for var in sorted(self.buffer_trees):
            parts.append(self.buffer_trees[var].describe(var))
        return "\n".join(parts)

    def describe_joins(self) -> str:
        """One line per indexed ``for`` loop of an ``on-first`` body, in plan order."""
        return "\n".join(guard.describe() for guard in _scope_joins(self.root_scope))


def _scope_joins(scope: ScopeSpec):
    for handler in scope.handlers:
        if isinstance(handler, CompiledOnFirst):
            yield from handler.joins.values()
        elif handler.nested is not None:
            yield from _scope_joins(handler.nested)


# ---------------------------------------------------------------------------
# Compilation


def compile_plan(
    flux: FluxExpr,
    dtd: DTD,
    *,
    root_var: str = ROOT_VARIABLE,
    require_safe: bool = True,
) -> QueryPlan:
    """Compile a FluX query into a :class:`QueryPlan`.

    ``require_safe`` runs the Definition-3.6 checker first and refuses unsafe
    queries (an unsafe query would silently produce wrong answers, since the
    engine would read buffers before they are fully populated).
    """
    if require_safe:
        violations = check_safety(flux, dtd, root_var=root_var)
        if violations:
            details = "; ".join(str(violation) for violation in violations)
            raise UnsafeQueryError(f"query is not safe for the given DTD: {details}")

    buffered_exprs = buffered_subexpressions(flux)
    all_exprs = maximal_xquery_subexpressions(flux)
    referenced_vars = set()
    for expr in all_exprs:
        referenced_vars |= free_variables(expr)

    buffer_trees: Dict[str, BufferTreeNode] = {}
    value_paths: Dict[str, FrozenSet[Path]] = {}
    for var in sorted(referenced_vars):
        tree = buffer_tree_for_variable(var, buffered_exprs)
        # Conditions may occur both in buffer-evaluated bodies and in simple
        # streaming handlers; every condition path not covered by the buffer
        # must be tracked on the fly.
        paths = condition_value_paths(var, all_exprs, tree)
        if not tree.is_empty():
            buffer_trees[var] = tree
        if paths:
            value_paths[var] = paths

    memo = ConditionMemo(
        sub.condition if isinstance(sub, IfExpr) else sub.where
        for expr in all_exprs
        for sub in iter_subexpressions(expr)
        if isinstance(sub, IfExpr) or (isinstance(sub, ForExpr) and sub.where is not None)
    )
    compiler = _ScopeCompiler(dtd, buffer_trees, value_paths, memo)

    if isinstance(flux, SimpleFlux):
        # Degenerate case: the whole query is a simple expression (fixed
        # strings); run it as a single on-first past() handler at the root.
        root_spec = ScopeSpec(
            var=root_var,
            element_type=ROOT_ELEMENT if ROOT_ELEMENT in dtd else None,
            handlers=(compiler.on_first(0, frozenset(), flux.expr, ROOT_ELEMENT, (root_var,)),),
            automaton=_automaton(dtd, ROOT_ELEMENT),
            buffer_tree=buffer_trees.get(root_var),
            value_trie=build_value_trie(value_paths.get(root_var, frozenset())),
        )
        return QueryPlan(root_spec, "", "", flux, dtd, root_var, buffer_trees, value_paths)

    if not isinstance(flux, ProcessStream):
        raise TypeError(f"not a FluX expression: {flux!r}")
    if flux.var != root_var:
        raise UnschedulableQueryError(
            f"the outermost process-stream must range over {root_var}, got {flux.var}"
        )
    root_spec = compiler.compile_scope(flux, ROOT_ELEMENT, ())
    return QueryPlan(
        root_scope=root_spec,
        pre=flux.pre,
        post=flux.post,
        flux=flux,
        dtd=dtd,
        root_var=root_var,
        buffer_trees=buffer_trees,
        value_paths=value_paths,
    )


class _ScopeCompiler:
    """Recursive compiler from FluX ``process-stream`` blocks to scope specs."""

    def __init__(
        self,
        dtd: DTD,
        buffer_trees: Dict[str, BufferTreeNode],
        value_paths: Dict[str, FrozenSet[Path]],
        memo: ConditionMemo,
    ):
        self._dtd = dtd
        self._buffer_trees = buffer_trees
        self._value_paths = value_paths
        self._memo = memo

    def compile_scope(
        self,
        block: ProcessStream,
        element_type: Optional[str],
        chain: Tuple[str, ...],
        alone: bool = True,
    ) -> ScopeSpec:
        """``chain``: the enclosing scopes' variables, outermost first.
        ``alone``: no other handler of an enclosing scope acts on this
        element or an ancestor up to the root scope, so nothing but this
        scope writes while one of its unobserved children streams by."""
        chain = (*chain, block.var)
        labels = [handler.label for handler in block.handlers if isinstance(handler, OnHandler)]
        handlers: List[CompiledHandler] = []
        for index, handler in enumerate(block.handlers):
            if isinstance(handler, OnFirstHandler):
                handlers.append(
                    self.on_first(index, handler.symbols, handler.body, element_type, chain)
                )
            elif isinstance(handler, OnHandler):
                nested_alone = alone and labels.count(handler.label) == 1
                handlers.append(
                    self._compile_on(index, handler, element_type, chain, nested_alone)
                )
            else:  # pragma: no cover - exhaustive over the AST
                raise TypeError(f"not a FluX handler: {handler!r}")
        automaton = _automaton(self._dtd, element_type)
        buffer_tree = self._buffer_trees.get(block.var)
        value_trie = build_value_trie(self._value_paths.get(block.var, frozenset()))
        observed = None
        if automaton is not None and alone:
            erased = _erase(self._dtd.constraints(element_type), handlers, buffer_tree, value_trie)
            if erased is not None:
                automaton, handlers, observed = erased
        return ScopeSpec(
            var=block.var,
            element_type=element_type if element_type in self._dtd else None,
            handlers=tuple(handlers),
            automaton=automaton,
            buffer_tree=buffer_tree,
            value_trie=value_trie,
            observed=observed,
        )

    def on_first(
        self,
        index: int,
        symbols: Optional[FrozenSet[str]],
        body: XQExpr,
        element_type: Optional[str],
        chain: Tuple[str, ...],
    ) -> CompiledOnFirst:
        table = None if symbols is None else _past_table(self._dtd, element_type, symbols)
        joins = join_guards(body)
        run = compile_handler(body, self._buffer_trees, joins, self._memo, chain)
        return CompiledOnFirst(index, symbols, body, table, joins, run)

    def _test(self, condition: Optional[Condition], chain: Tuple[str, ...]):
        if condition is None:
            return None
        return compile_test(condition, self._buffer_trees, self._memo, chain)

    def _compile_on(
        self,
        index: int,
        handler: OnHandler,
        element_type: Optional[str],
        chain: Tuple[str, ...],
        alone: bool,
    ) -> CompiledOn:
        body = handler.body
        scope_var = chain[-1]
        if isinstance(body, ProcessStream):
            if body.var != handler.var:
                raise UnschedulableQueryError(
                    f"nested process-stream ranges over {body.var}, expected {handler.var}"
                )
            nested = self.compile_scope(body, handler.label, chain, alone)
            return CompiledOn(index, handler.label, handler.var, nested, None)
        if isinstance(body, SimpleFlux):
            decomposition = decompose_simple(body.expr)
            if decomposition is None:
                raise UnschedulableQueryError(
                    f"handler body for 'on {handler.label}' is neither simple nor a process-stream"
                )
            if decomposition.copy_var is not None and decomposition.copy_var != handler.var:
                raise UnschedulableQueryError(
                    f"simple handler for 'on {handler.label}' copies {decomposition.copy_var}, "
                    f"which is not the bound variable {handler.var}"
                )
            gating = [part.condition for part in decomposition.prefix]
            gating.append(decomposition.copy_condition)
            defer = any(
                condition is not None
                and not self._start_decidable(condition, element_type, scope_var, handler)
                for condition in gating
            )
            action = StreamCopyAction(
                prefix=tuple((part.text, self._test(part.condition, chain)) for part in decomposition.prefix),
                copy_var=decomposition.copy_var,
                copy_test=self._test(decomposition.copy_condition, chain),
                suffix=tuple((part.text, self._test(part.condition, chain)) for part in decomposition.suffix),
                defer=defer,
            )
            return CompiledOn(index, handler.label, handler.var, None, action)
        raise TypeError(f"not a FluX expression: {body!r}")

    def _start_decidable(
        self,
        condition: Condition,
        element_type: Optional[str],
        scope_var: str,
        handler: OnHandler,
    ) -> bool:
        """Whether a gating condition is decidable at the child's *start* event.

        The safety checker (Definition 3.6) treats an ``on a`` handler as
        executing once ``a`` has been read, so a safe condition may
        reference the arriving subtree itself.  Streaming the copy requires
        the stronger property that every referenced path is complete when
        ``a`` *starts*: the path must go through the immediate scope
        variable, must not start with the handler's own label, and its
        first step must be ordered strictly before the label by the content
        model.  Anything else (the bound variable, outer scopes, unknown
        element types) is handled conservatively by deferring the action to
        the child's end.
        """
        for ref in condition_path_refs(condition):
            if ref.var == handler.var or ref.var != scope_var:
                return False
            if not ref.path or ref.path[0] == handler.label:
                return False
            if element_type is None or element_type not in self._dtd:
                return False
            if not self._dtd.constraints(element_type).ord(ref.path[0], handler.label):
                return False
        return True


# ---------------------------------------------------------------------------
# DTD helpers


def _automaton(dtd: DTD, element_type: Optional[str]) -> Optional[GlushkovAutomaton]:
    if element_type is None or element_type not in dtd:
        return None
    return dtd.automaton(element_type)


def _past_table(
    dtd: DTD, element_type: Optional[str], symbols: FrozenSet[str]
) -> Optional[Dict[int, bool]]:
    if element_type is None or element_type not in dtd:
        if not symbols:
            return {INITIAL_STATE: True}
        return None
    return dtd.constraints(element_type).past_table(symbols)


def _erase(
    constraints: OrderConstraints,
    handlers: List[CompiledHandler],
    buffer_tree: Optional[BufferTreeNode],
    value_trie: Optional[ValueTrieNode],
) -> Optional[Tuple[GlushkovAutomaton, List[CompiledHandler], FrozenSet[str]]]:
    """The scope's automaton over the children it observes, its handlers with
    past tables over that automaton, and those children.

    An unobserved child writes nothing, so a handler whose past set closes
    at one fires just before the next observed child or at scope close
    instead.  That keeps the output only if the handlers still fire in list
    order: past tables must be monotone in it (``past(*)``, which fires at
    close, counts as never past).  ``None`` when they are not, or when the
    erased automaton could decide differently.
    """
    on_first = [handler for handler in handlers if isinstance(handler, CompiledOnFirst)]
    states = constraints.automaton.states
    never = dict.fromkeys(states, False)
    ordered = [handler.past_table or never for handler in on_first]
    if any(later[q] and not earlier[q] for earlier, later in zip(ordered, ordered[1:]) for q in states):
        return None
    observed = {handler.label for handler in handlers if isinstance(handler, CompiledOn)}
    for handler in on_first:
        observed.update(handler.symbols or ())
    for tree in (buffer_tree, value_trie):
        if tree is not None:
            observed.update(tree.children)
    tabled = [handler for handler in on_first if handler.past_table is not None]
    erased = constraints.erased(frozenset(observed), [handler.past_table for handler in tabled])
    if erased is None:
        return None
    automaton, tables = erased
    tables = iter(tables)
    handlers = [
        replace(handler, past_table=next(tables))
        if isinstance(handler, CompiledOnFirst) and handler.past_table is not None
        else handler
        for handler in handlers
    ]
    return automaton, handlers, frozenset(observed)
