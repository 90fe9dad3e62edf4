"""Safety of FluX queries (Definition 3.6).

A FluX query is *safe* with respect to a DTD when every XQuery⁻ subexpression
is only executed after all data items it refers to are guaranteed to have been
read from the stream (and hence sit in main-memory buffers).  The checker
walks all ``process-stream`` blocks and verifies, per handler, the two
conditions of Definition 3.6.

The checker uses the *formal* order-constraint relation
(:meth:`~repro.dtd.constraints.OrderConstraints.ord`, which is vacuously true
for symbols that cannot occur) -- the definition in the paper is stated in
those terms.  The rewrite algorithm is deliberately more conservative than
the definition requires, so everything it produces passes this check; the
checker exists so that hand-written FluX queries can be validated too and so
that the property tests can assert Theorem 4.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dtd.constraints import OrderConstraints
from repro.dtd.schema import DTD, ROOT_ELEMENT
from repro.flux.ast import (
    FluxExpr,
    OnFirstHandler,
    OnHandler,
    ProcessStream,
    SimpleFlux,
    maximal_xquery_subexpressions,
)
from repro.xquery.analysis import WHOLE, dependencies, free_variables, iter_subexpressions
from repro.xquery.ast import ROOT_VARIABLE, VarOutputExpr, XQExpr


@dataclass(frozen=True)
class SafetyViolation:
    """One violation of Definition 3.6."""

    variable: str
    handler: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - debugging convenience
        return f"[{self.variable} :: {self.handler}] {self.message}"


def check_safety(expr: FluxExpr, dtd: DTD, *, root_var: str = ROOT_VARIABLE) -> List[SafetyViolation]:
    """Return all Definition-3.6 violations of ``expr`` (empty list = safe)."""
    violations: List[SafetyViolation] = []
    types: Dict[str, str] = {root_var: ROOT_ELEMENT, ROOT_VARIABLE: ROOT_ELEMENT}
    _check(expr, dtd, types, violations)
    return violations


def is_safe(expr: FluxExpr, dtd: DTD, *, root_var: str = ROOT_VARIABLE) -> bool:
    """Whether ``expr`` is safe w.r.t. ``dtd``."""
    return not check_safety(expr, dtd, root_var=root_var)


# ---------------------------------------------------------------------------


def _check(expr: FluxExpr, dtd: DTD, types: Dict[str, str], violations: List[SafetyViolation]) -> None:
    if isinstance(expr, SimpleFlux):
        return
    if not isinstance(expr, ProcessStream):
        raise TypeError(f"not a FluX expression: {expr!r}")

    var = expr.var
    element_type = types.get(var)
    constraints = dtd.constraints(element_type) if element_type in dtd else None
    symbols = dtd.symbols(element_type) if element_type in dtd else frozenset()

    for handler in expr.handlers:
        if isinstance(handler, OnFirstHandler):
            _check_on_first(var, handler, constraints, symbols, violations)
        else:
            _check_on(var, handler, constraints, violations)
            child_types = dict(types)
            child_types[handler.var] = handler.label
            _check(handler.body, dtd, child_types, violations)


def _past_set(handler: OnFirstHandler, symbols) -> frozenset:
    if handler.symbols is None:
        return frozenset(symbols) | {WHOLE}
    return handler.symbols


def _ord(constraints: Optional[OrderConstraints], first: str, second: str) -> bool:
    if constraints is None:
        return False
    return constraints.ord(first, second)


def _check_on_first(
    var: str,
    handler: OnFirstHandler,
    constraints: Optional[OrderConstraints],
    symbols,
    violations: List[SafetyViolation],
) -> None:
    handler_name = f"on-first past({'*' if handler.symbols is None else ','.join(sorted(handler.symbols))})"
    past = _past_set(handler, symbols)
    body = handler.body

    # Condition 1, first bullet: every dependency is covered by the past set
    # (WHOLE, a condition on bare $var, only by past(*)).
    for dep in sorted(dependencies(var, body)):
        covered = dep in past or (
            dep != WHOLE and any(_ord(constraints, dep, anchor) for anchor in past)
        )
        if not covered:
            violations.append(
                SafetyViolation(
                    var,
                    handler_name,
                    f"dependency {dep!r} of the handler body is not covered by past({sorted(past)})",
                )
            )

    # Condition 1, second bullet: whole-subtree outputs of free variables.
    free = free_variables(body)
    for sub in iter_subexpressions(body):
        if not isinstance(sub, VarOutputExpr) or sub.var not in free:
            continue
        if sub.var != var:
            violations.append(
                SafetyViolation(
                    var,
                    handler_name,
                    f"handler body outputs {{{sub.var}}} which is not the process-stream variable",
                )
            )
            continue
        for symbol in sorted(symbols):
            covered = symbol in past or any(_ord(constraints, symbol, anchor) for anchor in past)
            if not covered:
                violations.append(
                    SafetyViolation(
                        var,
                        handler_name,
                        f"handler outputs {{{var}}} but child symbol {symbol!r} may still arrive "
                        f"after past({sorted(past)})",
                    )
                )


def _check_on(
    var: str,
    handler: OnHandler,
    constraints: Optional[OrderConstraints],
    violations: List[SafetyViolation],
) -> None:
    handler_name = f"on {handler.label} as {handler.var}"
    for alpha in maximal_xquery_subexpressions(handler.body):
        for dep in sorted(dependencies(var, alpha)):
            if dep == WHOLE or not _ord(constraints, dep, handler.label):
                violations.append(
                    SafetyViolation(
                        var,
                        handler_name,
                        f"dependency {dep!r} is not ordered before {handler.label!r} "
                        "in the parent's content model",
                    )
                )
    if isinstance(handler.body, SimpleFlux):
        alpha = handler.body.expr
        for sub in iter_subexpressions(alpha):
            if isinstance(sub, VarOutputExpr) and sub.var != handler.var:
                if sub.var in free_variables(alpha):
                    violations.append(
                        SafetyViolation(
                            var,
                            handler_name,
                            f"simple handler body outputs {{{sub.var}}} instead of the bound "
                            f"variable {handler.var}",
                        )
                    )
