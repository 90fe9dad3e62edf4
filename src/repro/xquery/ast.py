"""AST of the XQuery⁻ fragment (Definition 3.1) and of its conditions.

Expressions
-----------

The eight expression forms of Definition 3.1 map to the following classes:

====  ===========================================  =======================
 #    paper syntax                                 class
====  ===========================================  =======================
 1    ``ε``                                        :class:`EmptyExpr`
 2    ``s`` (fixed string)                         :class:`TextExpr`
 3    ``α β`` (sequence)                           :class:`SequenceExpr`
 4    ``{for $x in $y/π return α}``                :class:`ForExpr`
 5    ``{for $x in $y/π where χ return α}``        :class:`ForExpr` (``where`` set)
 6    ``{$x/π}``                                   :class:`PathOutputExpr`
 7    ``{$x}``                                     :class:`VarOutputExpr`
 8    ``{if χ then α}``                            :class:`IfExpr`
====  ===========================================  =======================

Conditions are Boolean combinations of atomic conditions
``$x/π RelOp s``, ``$x/π RelOp $y/π'`` and ``exists $x/π`` (plus the
Appendix-A extensions ``empty($x/π)`` and ``$x/π RelOp c * $y/π'``).

All nodes are immutable dataclasses; rewriting passes construct new nodes.
Fixed paths are tuples of tag names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple, Union

#: The distinguished document variable.
ROOT_VARIABLE = "$ROOT"

Path = Tuple[str, ...]


def make_path(steps: Sequence[str]) -> Path:
    """Validate and normalize a fixed path given as a sequence of steps."""
    steps = tuple(steps)
    for step in steps:
        if not step or "/" in step:
            raise ValueError(f"invalid path step {step!r}")
        if step in ("*", "..", "."):
            raise ValueError(f"path step {step!r} is outside the fixed-path fragment")
    return steps


def format_path(var: str, path: Path) -> str:
    """Render ``$x/a/b`` syntax."""
    if not path:
        return var
    return var + "/" + "/".join(path)


# ---------------------------------------------------------------------------
# Condition operands


@dataclass(frozen=True)
class PathRef:
    """A path reference ``$x/π`` used inside a condition."""

    var: str
    path: Path

    def to_source(self) -> str:
        return format_path(self.var, self.path)


@dataclass(frozen=True)
class StringLiteral:
    """A string constant."""

    value: str

    def to_source(self) -> str:
        escaped = self.value.replace('"', '\\"')
        return f'"{escaped}"'


@dataclass(frozen=True)
class NumberLiteral:
    """A numeric constant."""

    value: float

    def to_source(self) -> str:
        if float(self.value).is_integer():
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class ScaledPath:
    """``c * $y/π`` -- a path reference scaled by a numeric constant.

    Needed for XMark query 11 (``$p/profile/profile_income > 5000 * $o/initial``).
    """

    coefficient: float
    ref: PathRef

    def to_source(self) -> str:
        coefficient = NumberLiteral(self.coefficient).to_source()
        return f"{coefficient} * {self.ref.to_source()}"


Operand = Union[PathRef, StringLiteral, NumberLiteral, ScaledPath]


# ---------------------------------------------------------------------------
# Conditions


class Condition:
    """Base class for conditions."""

    def to_source(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_source()


@dataclass(frozen=True)
class TrueCondition(Condition):
    """The constant ``true``."""

    def to_source(self) -> str:
        return "true"


@dataclass(frozen=True)
class ComparisonCondition(Condition):
    """An atomic comparison ``left RelOp right``."""

    left: Operand
    op: str
    right: Operand

    VALID_OPS = ("=", "!=", "<", "<=", ">", ">=")

    def __post_init__(self):
        if self.op not in self.VALID_OPS:
            raise ValueError(f"invalid comparison operator {self.op!r}")

    def to_source(self) -> str:
        return f"{_operand_source(self.left)} {self.op} {_operand_source(self.right)}"


@dataclass(frozen=True)
class ExistsCondition(Condition):
    """``exists $x/π``."""

    ref: PathRef

    def to_source(self) -> str:
        return f"exists {self.ref.to_source()}"


@dataclass(frozen=True)
class EmptyCondition(Condition):
    """``empty($x/π)`` (equivalent to ``not exists $x/π``, Appendix A)."""

    ref: PathRef

    def to_source(self) -> str:
        return f"empty({self.ref.to_source()})"


@dataclass(frozen=True)
class NotCondition(Condition):
    """Negation."""

    inner: Condition

    def to_source(self) -> str:
        return f"not({self.inner.to_source()})"


@dataclass(frozen=True)
class AndCondition(Condition):
    """Conjunction of two or more conditions."""

    items: Tuple[Condition, ...]

    def __init__(self, items: Sequence[Condition]):
        object.__setattr__(self, "items", tuple(items))

    def to_source(self) -> str:
        return "(" + " and ".join(item.to_source() for item in self.items) + ")"


@dataclass(frozen=True)
class OrCondition(Condition):
    """Disjunction of two or more conditions."""

    items: Tuple[Condition, ...]

    def __init__(self, items: Sequence[Condition]):
        object.__setattr__(self, "items", tuple(items))

    def to_source(self) -> str:
        return "(" + " or ".join(item.to_source() for item in self.items) + ")"


def _operand_source(operand: Operand) -> str:
    return operand.to_source()


def iter_atomic_conditions(condition: Condition) -> Iterator[Condition]:
    """Iterate over the atomic conditions of a Boolean combination."""
    if isinstance(condition, (AndCondition, OrCondition)):
        for item in condition.items:
            yield from iter_atomic_conditions(item)
    elif isinstance(condition, NotCondition):
        yield from iter_atomic_conditions(condition.inner)
    elif isinstance(condition, TrueCondition):
        return
    else:
        yield condition


def condition_path_refs(condition: Condition) -> Tuple[PathRef, ...]:
    """All path references occurring in a condition, in syntactic order."""
    refs = []
    for atom in iter_atomic_conditions(condition):
        if isinstance(atom, ComparisonCondition):
            for operand in (atom.left, atom.right):
                if isinstance(operand, PathRef):
                    refs.append(operand)
                elif isinstance(operand, ScaledPath):
                    refs.append(operand.ref)
        elif isinstance(atom, (ExistsCondition, EmptyCondition)):
            refs.append(atom.ref)
    return tuple(refs)


# ---------------------------------------------------------------------------
# Expressions


class XQExpr:
    """Base class for XQuery⁻ expressions."""

    def to_source(self) -> str:
        from repro.xquery.serialize import expression_to_source

        return expression_to_source(self)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_source()


@dataclass(frozen=True)
class EmptyExpr(XQExpr):
    """The empty query ``ε``."""


@dataclass(frozen=True)
class TextExpr(XQExpr):
    """Output of a fixed string (which is typically literal XML markup)."""

    text: str


@dataclass(frozen=True)
class SequenceExpr(XQExpr):
    """Sequential composition ``α β``."""

    items: Tuple[XQExpr, ...]

    def __init__(self, items: Sequence[XQExpr]):
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True)
class ForExpr(XQExpr):
    """``{for $var in $source/path [where cond] return body}``."""

    var: str
    source: str
    path: Path
    body: XQExpr
    where: Optional[Condition] = field(default=None)


@dataclass(frozen=True)
class PathOutputExpr(XQExpr):
    """``{$x/π}`` -- output of the subtrees reachable through ``π``."""

    var: str
    path: Path


@dataclass(frozen=True)
class VarOutputExpr(XQExpr):
    """``{$x}`` -- output of the subtree bound to ``$x``."""

    var: str


@dataclass(frozen=True)
class IfExpr(XQExpr):
    """``{if χ then α}``."""

    condition: Condition
    body: XQExpr


def sequence(items: Sequence[XQExpr]) -> XQExpr:
    """Build a sequence, flattening nested sequences and dropping empties."""
    flat = []
    for item in items:
        if isinstance(item, EmptyExpr):
            continue
        if isinstance(item, SequenceExpr):
            flat.extend(item.items)
        else:
            flat.append(item)
    if not flat:
        return EmptyExpr()
    if len(flat) == 1:
        return flat[0]
    return SequenceExpr(flat)


def sequence_items(expr: XQExpr) -> Tuple[XQExpr, ...]:
    """View an expression as a sequence of items (a single item if not a sequence)."""
    if isinstance(expr, SequenceExpr):
        return expr.items
    if isinstance(expr, EmptyExpr):
        return ()
    return (expr,)
