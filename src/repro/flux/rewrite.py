"""The scheduling rewrite: XQuery⁻ → safe FluX (Section 4.2, Figure 2).

Given a DTD and an XQuery⁻ query, :func:`rewrite_to_flux` -- the stage
``FluxSession.prepare`` compiles through -- produces an equivalent *safe*
FluX query in which

* as many subexpressions as possible are attached to ``on`` handlers and are
  therefore executed in a purely streaming fashion (no buffering), and
* the remaining subexpressions are attached to ``on-first past(S)`` handlers
  with the smallest ``S`` the DTD's order constraints allow, which delays
  them no longer than necessary and keeps buffers small.

The recursion follows Figure 2 of the paper.  Two aspects are made explicit
here (see DESIGN.md, "faithfulness notes"):

* the ``¬Ord(b, a)`` filter of line 30 uses
  :meth:`~repro.dtd.constraints.OrderConstraints.ord_useful`, i.e. an order
  constraint only discharges a dependency when the triggering symbol can
  actually occur in the content model (this is what the paper's own Example
  4.6 requires);
* for a for-loop over a variable other than the parent variable (line 31 of
  Figure 2) the handler's ``past`` set is the full dependency set
  ``dependencies($x, α) ∪ H`` -- filtering it against the foreign loop symbol
  would be meaningless.

The rewrite expects the query in normal form; :func:`rewrite_to_flux` takes
care of normalisation and of the Section-7 simplifications (which are what
makes re-rooted paths such as XMark Q8's ``/site/closed_auctions`` inside a
person loop schedulable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from repro.dtd.constraints import OrderConstraints
from repro.dtd.errors import UnknownElementError
from repro.dtd.schema import DTD, ROOT_ELEMENT
from repro.flux.ast import (
    FluxExpr,
    OnFirstHandler,
    OnHandler,
    ProcessStream,
    SimpleFlux,
    handler_symbols,
)
from repro.flux.errors import UnschedulableQueryError
from repro.flux.simple import decompose_simple, is_simple
from repro.xquery.analysis import WHOLE, dependencies
from repro.xquery.ast import (
    ForExpr,
    ROOT_VARIABLE,
    VarOutputExpr,
    XQExpr,
    sequence_items,
)
from repro.xquery.normalize import is_normal_form, normalize
from repro.xquery.optimize import simplify


class RewriteContext:
    """Static context threaded through the rewrite recursion.

    Tracks the DTD element type every in-scope variable ranges over, so that
    ``Ord_$x`` and ``symb($x)`` can be resolved for the current parent
    variable.
    """

    def __init__(self, dtd: DTD, *, root_var: str = ROOT_VARIABLE):
        if ROOT_ELEMENT not in dtd:
            raise UnknownElementError(
                "the DTD has no virtual root; call DTD.with_root(<document element>) first"
            )
        self._dtd = dtd
        self._types: Dict[str, str] = {root_var: ROOT_ELEMENT, ROOT_VARIABLE: ROOT_ELEMENT}

    @property
    def dtd(self) -> DTD:
        """The DTD driving the rewrite."""
        return self._dtd

    def bind(self, var: str, element_type: str) -> "RewriteContext":
        """Return a copy of the context with ``var`` bound to ``element_type``."""
        clone = RewriteContext.__new__(RewriteContext)
        clone._dtd = self._dtd
        clone._types = dict(self._types)
        clone._types[var] = element_type
        return clone

    def element_type(self, var: str) -> Optional[str]:
        """The element type ``var`` is known to range over (if any)."""
        return self._types.get(var)

    def constraints_for(self, var: str) -> Optional[OrderConstraints]:
        """Order constraints of the content model of ``var``'s element type."""
        element_type = self._types.get(var)
        if element_type is None or element_type not in self._dtd:
            return None
        return self._dtd.constraints(element_type)


@dataclass(frozen=True)
class RewriteResult:
    """Outcome of :func:`rewrite_to_flux`, keeping the intermediate stages."""

    flux: FluxExpr
    normalized: XQExpr
    simplified: XQExpr
    original: XQExpr
    root_var: str = field(default=ROOT_VARIABLE)


def rewrite_to_flux(
    query: XQExpr,
    dtd: DTD,
    *,
    root_var: str = ROOT_VARIABLE,
    apply_simplifications: bool = True,
) -> RewriteResult:
    """Full pipeline: normalise, simplify (Section 7) and schedule (Figure 2).

    ``apply_simplifications=False`` skips Section 7 (the ablation that shows
    what loop fusion saves); the compile step always applies it.
    """
    normalized = normalize(query)
    if not is_normal_form(normalized):
        raise UnschedulableQueryError("query is not in XQuery- normal form")
    simplified = simplify(normalized, dtd, root_var=root_var) if apply_simplifications else normalized
    context = RewriteContext(dtd, root_var=root_var)
    flux = _rewrite(context, root_var, frozenset(), simplified)
    return RewriteResult(
        flux=flux,
        normalized=normalized,
        simplified=simplified,
        original=query,
        root_var=root_var,
    )


# ---------------------------------------------------------------------------
# The Figure-2 recursion


def _rewrite(context: RewriteContext, parent_var: str, handled: FrozenSet[str], beta: XQExpr) -> FluxExpr:
    deps = dependencies(parent_var, beta)
    if WHOLE in deps or _outputs_variable(beta, parent_var):
        # Line 5: {$x} occurs in β -- or a condition reads bare $x, which
        # needs all of $x just the same -- so β runs whole at past(*).
        if is_simple(beta) and not deps:
            return SimpleFlux(beta)
        return ProcessStream(parent_var, [OnFirstHandler(None, beta)])

    items = sequence_items(beta)
    if len(items) != 1:
        # Line 14: β = β1 β2 ... -- concatenate the handler lists, threading
        # the accumulated handler symbols H.
        handlers = []
        accumulated = frozenset(handled)
        for item in items:
            sub = _rewrite(context, parent_var, accumulated, item)
            sub_handlers = _handlers_of(sub, parent_var)
            handlers.extend(sub_handlers)
            accumulated = accumulated | handler_symbols(sub_handlers)
        return ProcessStream(parent_var, handlers)

    item = items[0]
    if isinstance(item, ForExpr):
        return _rewrite_for_loop(context, parent_var, handled, item)

    # Line 22: β is simple (a string or a conditional string).
    decomposition = decompose_simple(item)
    if decomposition is None:
        raise UnschedulableQueryError(
            f"cannot schedule subexpression under {parent_var}: {item.to_source()!r}"
        )
    if decomposition.has_copy:
        # The copied variable is not the parent variable (that case was
        # handled above), so its subtree cannot be complete when any handler
        # of this scope fires.
        raise UnschedulableQueryError(
            f"subexpression outputs {{{decomposition.copy_var}}} outside the scope of "
            f"{decomposition.copy_var}; the query cannot be scheduled safely"
        )
    past = frozenset(dependencies(parent_var, item) | handled)
    return ProcessStream(parent_var, [OnFirstHandler(past, item)])


def _rewrite_for_loop(
    context: RewriteContext, parent_var: str, handled: FrozenSet[str], loop: ForExpr
) -> FluxExpr:
    if len(loop.path) != 1:
        raise UnschedulableQueryError(
            f"for-loop over multi-step path {('/'.join(loop.path))!r} -- the query is not normalised"
        )
    symbol = loop.path[0]
    body = loop.body
    constraints = context.constraints_for(parent_var)
    deps = dependencies(parent_var, body) | handled

    # Line 30: X = {b in dependencies ∪ H | ¬Ord(b, a)}.
    if constraints is None:
        blocking = set(deps)
    else:
        blocking = {b for b in deps if not constraints.ord_useful(b, symbol)}
    # Conservative guard (see DESIGN.md): when an earlier handler of the same
    # scope already watches this symbol (a ∈ H), the loop's output may depend
    # on the triggering child itself (e.g. "{if year > 1991 then {$year}}"),
    # which cannot be decided while streaming the child.  Delay it instead.
    if symbol in handled:
        blocking.add(symbol)
    # A dependency on the loop's own symbol can never be discharged by the
    # (vacuously true, for single-occurrence content models) Ord(a, a): the
    # referenced data ``$x/a/...`` is being read *during* the very child a
    # streaming would execute under, so parts of it are incomplete whenever
    # a nested handler fires.  Buffer the loop instead.
    if symbol in deps:
        blocking.add(symbol)
    blocking = frozenset(blocking)

    if loop.source != parent_var:
        # Line 31: the loop iterates over another (ancestor) variable.  The
        # expression must wait until everything it depends on below the
        # parent variable has been seen.
        past = frozenset(dependencies(parent_var, body) | handled)
        return ProcessStream(parent_var, [OnFirstHandler(past, loop)])

    if blocking:
        # Line 34: buffer -- delay the whole loop until X ∪ {a} is past.
        return ProcessStream(parent_var, [OnFirstHandler(frozenset(blocking | {symbol}), loop)])

    # Line 36-39: stream -- attach the loop body to an ``on`` handler.
    child_context = context.bind(loop.var, symbol)
    rewritten_body = _rewrite(child_context, loop.var, frozenset(), body)
    return ProcessStream(parent_var, [OnHandler(symbol, loop.var, rewritten_body)])


# ---------------------------------------------------------------------------
# Helpers


def _outputs_variable(expr: XQExpr, var: str) -> bool:
    """Whether ``{$var}`` occurs as a subexpression of ``expr``."""
    from repro.xquery.analysis import iter_subexpressions

    return any(
        isinstance(sub, VarOutputExpr) and sub.var == var for sub in iter_subexpressions(expr)
    )


def _handlers_of(sub: FluxExpr, parent_var: str):
    if isinstance(sub, ProcessStream):
        if sub.var != parent_var:
            raise UnschedulableQueryError(
                f"internal error: expected a process-stream over {parent_var}, got {sub.var}"
            )
        return sub.handlers
    if isinstance(sub, SimpleFlux):
        # A sequence item that is itself a safe simple expression (no
        # dependencies): execute it as soon as possible.
        return (OnFirstHandler(frozenset(), sub.expr),)
    raise TypeError(f"not a FluX expression: {sub!r}")
