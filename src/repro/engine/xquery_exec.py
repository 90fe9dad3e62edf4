"""XQuery⁻ subexpressions compiled to closures over runtime buffers.

When an ``on-first`` handler fires (or a conditional string has to be
emitted), the engine evaluates an XQuery⁻ expression whose free variables
are *scope variables*, bound by the surrounding ``process-stream`` blocks.
A scope variable's data is its activation's event buffer, projected by the
buffer tree (Section 5), and its value store (paths compared against
constants, captured on the fly).

Each handler body and stream-copy condition is compiled once, when the plan
is built (:func:`compile_handler`, :func:`compile_test`): where each path is
read from, each comparison's operator and each literal's atomised value are
decided then.  A closure runs over a list *environment*: one slot per scope
variable it reads (the innermost activation), then one per ``for`` loop,
which binds a :class:`_Span` -- one buffered element.  A path step over a
buffer of at least ``_SKIP_MIN`` events jumps over each child subtree it
does not name, by end pointers computed in one pass over the buffer.
Output writes a span as the reference's attribute-free trees serialise it
(still-open elements closed) through the sink's ``write_events``, as one
:class:`RawContent` rendered once.  A path into a buffered raw content item
cuts out only the children it names.

Comparisons are existential over atoms, ``(stripped text, xs:double or
None)``: numeric when both sides are numbers.  A condition that occurs more
than once in a plan is evaluated once per binding of the variables it reads;
the innermost activation it reads owns the result when it reads only scope
variables, the handler execution otherwise.  A ``for`` loop with a
:class:`~repro.engine.plan.JoinGuard` keys its nodes once per source binding
in a :class:`_JoinIndex` and runs the unchanged loop over the candidates a
``bisect`` probe admits: a superset of the nodes that emit anything, in
document order.  What one handler execution computes once lives in its
:class:`_HandlerCache` and its spans, uncharged, until the handler returns.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.projection import BufferTreeNode
from repro.xmlstream.events import Characters, EndElement, Event, RawContent, StartElement
from repro.xmlstream.serializer import serialize_event
from repro.xquery.analysis import free_variables
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
    condition_path_refs,
)
from repro.xquery.errors import XQueryEvaluationError
from repro.xquery.semantics import _as_number, _format_number

Path = Tuple[str, ...]
#: An atomised value: its whitespace-stripped text and its xs:double value.
Atom = Tuple[str, Optional[float]]

#: Buffers shorter than this are walked event by event (:func:`_end_of`):
#: their end pointers cost more than the walks they save.  On XMark, Q20's
#: scope buffers hold under 64 events and a pass over each adds about 2% to
#: its run; Q8's and Q11's hold over 2,000, where the pointers save about a
#: fifth of the handler bytecodes.
_SKIP_MIN = 256

_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class _Span:
    """One buffered element, ``events[start:stop]`` (no end tag if it is
    still open), with the end pointers of ``events`` (``None`` for a short
    list) and its output once written."""

    __slots__ = ("events", "ends", "start", "stop", "rendered")

    def __init__(self, events: List[Event], ends: Optional[List[int]], start: int, stop: int):
        self.events = events
        self.ends = ends
        self.start = start
        self.stop = stop
        self.rendered: Optional[Tuple[RawContent]] = None

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


class _HandlerCache(dict):
    """What one handler execution computes once for all its loop iterations.

    A scope's events and end pointers are keyed by its activation; spans,
    atoms and join indexes by a tuple whose first item names which.  Keys
    hold their bindings (activations and spans), never their ``id()``, so a
    key cannot outlive the object it names.  A plain dict underneath, so
    making one per execution runs no Python code; ``memo`` is set on first
    use.
    """

    memo: Optional[Dict[tuple, bool]] = None


class ConditionMemo:
    """Numbers the conditions of one plan that occur more than once: only
    those are memoised, as a memo costs more than one evaluation."""

    def __init__(self, conditions: Iterable[Condition]):
        self._repeated = {condition for condition, count in Counter(conditions).items() if count > 1}
        self._numbers: Dict[tuple, int] = {}

    def number(self, condition: Condition, loop_vars: frozenset) -> Optional[int]:
        if condition not in self._repeated:
            return None
        return self._numbers.setdefault((condition, loop_vars), len(self._numbers))


# ---------------------------------------------------------------------------
# Entry points


def compile_handler(
    body: XQExpr,
    trees: Mapping[str, BufferTreeNode],
    joins: Optional[Mapping[int, object]] = None,
    memo: Optional[ConditionMemo] = None,
    chain: Sequence[str] = (),
) -> Callable:
    """``body`` as ``run(active, sink)``; ``active`` maps each scope variable
    to its activations, innermost last.  ``trees`` are the scope variables'
    buffer trees, ``joins`` the body's join guards by ``id(loop)`` and
    ``chain`` the enclosing scope variables, outermost first."""
    scopes = sorted(free_variables(body))
    compiler = _Compiler(scopes, trees, joins, memo, chain)
    run = compiler.expr(body)
    if not scopes:
        return lambda active, sink: run(None, None, sink)
    pad = [None] * (compiler.size - len(scopes))

    def handler(active, sink):
        run(_environment(active, scopes) + pad, _HandlerCache(), sink)

    return handler


def compile_test(
    condition: Condition,
    trees: Mapping[str, BufferTreeNode],
    memo: Optional[ConditionMemo] = None,
    chain: Sequence[str] = (),
) -> Callable:
    """``condition`` as ``holds(active) -> bool`` (see :func:`compile_handler`)."""
    scopes = sorted({ref.var for ref in condition_path_refs(condition)})
    test = _Compiler(scopes, trees, None, memo, chain).condition(condition)
    return lambda active: test(_environment(active, scopes), _HandlerCache())


def _environment(active, scopes: List[str]) -> list:
    try:
        return [active[var][-1] for var in scopes]
    except (KeyError, IndexError):
        missing = next(var for var in scopes if not active.get(var))
        raise XQueryEvaluationError(f"unbound variable {missing} at handler execution time") from None


# ---------------------------------------------------------------------------
# The compiler


class _Compiler:
    """Compiles one handler body or condition.  ``slots`` maps each variable
    in lexical scope to its environment index; the scope variables come
    first, the loops' slots after them."""

    def __init__(self, scopes, trees, joins, memo, chain):
        self.trees = trees
        self.joins = joins or {}
        self.memo = memo
        self.chain = tuple(chain)
        self.slots: Dict[str, int] = {var: slot for slot, var in enumerate(scopes)}
        self.scopes = len(scopes)
        self.size = len(scopes)

    # ----------------------------------------------------------- expressions

    def expr(self, expr: XQExpr) -> Callable:
        cls = expr.__class__
        if cls is TextExpr:
            text = expr.text
            return lambda env, cache, sink: sink.write_text(text)
        if cls is EmptyExpr:
            return lambda env, cache, sink: None
        if cls is SequenceExpr:
            items = tuple(map(self.expr, expr.items))

            def sequence(env, cache, sink):
                for item in items:
                    item(env, cache, sink)

            return sequence
        if cls is IfExpr:
            test, body = self.condition(expr.condition), self.expr(expr.body)

            def conditional(env, cache, sink):
                if test(env, cache):
                    body(env, cache, sink)

            return conditional
        if cls is ForExpr:
            return self._loop(expr)
        if cls is PathOutputExpr or cls is VarOutputExpr:
            nodes = self.nodes(expr.var, expr.path if cls is PathOutputExpr else ())

            def output(env, cache, sink):
                for span in nodes(env, cache):
                    rendered = span.rendered
                    if rendered is None:
                        rendered = span.rendered = (_render(span),)
                    sink.write_events(rendered)

            return output
        raise TypeError(f"not an XQuery- expression: {expr!r}")

    def _loop(self, loop: ForExpr) -> Callable:
        nodes = self.nodes(loop.source, loop.path)
        guard = self.joins.get(id(loop))
        outer = None if guard is None else self.operand(guard.outer)
        source = self.slots[loop.source]
        shadowed = self.slots.get(loop.var)
        slot = self.slots[loop.var] = self.size
        self.size += 1
        where = None if loop.where is None else self.condition(loop.where)
        body = self.expr(loop.body)
        if guard is not None:
            nodes = self._candidates(nodes, guard.op, outer, self.operand(guard.inner), source, slot)
        if shadowed is None:
            del self.slots[loop.var]
        else:
            self.slots[loop.var] = shadowed

        def loop_(env, cache, sink):
            for node in nodes(env, cache):
                env[slot] = node
                if where is None or where(env, cache):
                    body(env, cache, sink)

        return loop_

    @staticmethod
    def _candidates(nodes, op, outer, inner, source, slot) -> Callable:
        """The loop's nodes that its guard's index admits for the current
        outer binding: a superset, in document order, of the nodes whose
        ``where`` and body emit anything."""

        def candidates(env, cache):
            key = ("index", slot, env[source])
            index = cache.get(key)
            if index is None:
                spans = nodes(env, cache)
                keys = []
                for span in spans:
                    env[slot] = span
                    keys.append(inner(env, cache))
                index = cache[key] = _JoinIndex(spans, keys)
            if not index.nodes:  # like the nested loop, never evaluate the outer side
                return index.nodes
            return index.probe(op, outer(env, cache))

        return candidates

    # ------------------------------------------------------------ conditions

    def condition(self, condition: Condition) -> Callable:
        """``condition`` as ``test(env, cache)``, memoised when it repeats."""
        test = self._condition(condition)
        if self.memo is None:
            return test
        variables = sorted({ref.var for ref in condition_path_refs(condition)})
        loops = [var for var in variables if self.slots[var] >= self.scopes]
        number = self.memo.number(condition, frozenset(loops))
        # The handler execution holds the memo of a condition on loop
        # variables, keyed by their bindings; else the innermost scope does.
        owner = slots = None
        if loops:
            slots = itemgetter(*(self.slots[var] for var in loops))
        elif variables and all(var in self.chain for var in variables):
            owner = self.slots[max(variables, key=self.chain.index)]
        if number is None or (owner is None and slots is None):
            return test

        def memoised(env, cache):
            holder = cache if owner is None else env[owner]
            key = number if slots is None else (number, slots(env))
            memo = holder.memo
            if memo is None:
                memo = holder.memo = {}
            result = memo.get(key)
            if result is None:
                result = memo[key] = test(env, cache)
            return result

        return memoised

    def _condition(self, condition: Condition) -> Callable:
        cls = condition.__class__
        if cls is TrueCondition:
            return lambda env, cache: True
        if cls is AndCondition or cls is OrCondition:
            tests, combine = tuple(map(self.condition, condition.items)), all if cls is AndCondition else any
            return lambda env, cache: combine(test(env, cache) for test in tests)
        if cls is NotCondition:
            inner = self.condition(condition.inner)
            return lambda env, cache: not inner(env, cache)
        if cls is ExistsCondition or cls is EmptyCondition:
            count, exists = self.count(condition.ref.var, condition.ref.path), cls is ExistsCondition
            return lambda env, cache: (count(env, cache) > 0) is exists
        if cls is ComparisonCondition:
            compare = _OPERATORS.get(condition.op)
            if compare is None:
                raise ValueError(f"invalid comparison operator {condition.op!r}")
            left, right = self.operand(condition.left), self.operand(condition.right)
            # ``_existential`` is looked up per call, so a test can count it.
            return lambda env, cache: _existential(compare, left(env, cache), right(env, cache))
        raise TypeError(f"not a condition: {condition!r}")

    def operand(self, operand) -> Callable:
        """``operand`` as ``values(env, cache) -> atoms``."""
        cls = operand.__class__
        if cls is PathRef:
            return self.values(operand.var, operand.path)
        if cls is StringLiteral or cls is NumberLiteral:
            text = operand.value if cls is StringLiteral else _format_number(operand.value)
            atoms = [_atom(text)]
            return lambda env, cache: atoms
        if cls is ScaledPath:
            return self.values(operand.ref.var, operand.ref.path, operand.coefficient)
        raise TypeError(f"not an operand: {operand!r}")

    # ----------------------------------------------------------------- paths

    def _walked(self, var: str, path: Path) -> bool:
        """Whether ``$var/path`` is read from buffered events (else from the value store)."""
        tree = self.trees.get(var)
        return self.slots[var] >= self.scopes or (tree is not None and tree.covers(path))

    def nodes(self, var: str, path: Path) -> Callable:
        """``$var/path`` as ``spans(env, cache)``, in document order."""
        slot = self.slots[var]
        if slot >= self.scopes:  # a loop variable: a span
            if not path:
                return lambda env, cache: [env[slot]]

            def spans_in_span(env, cache):
                span = env[slot]
                key = ("spans", span, path)
                spans = cache.get(key)
                if spans is None:
                    spans = cache[key] = _path_spans(span.events, span.ends, path, span.start + 1)
                return spans

            return spans_in_span
        # A buffer holds the scope element itself, or only its children.
        tree = self.trees.get(var)
        marked = tree is not None and tree.marked
        if not marked and not path:
            return lambda env, cache: []

        def spans_in_scope(env, cache):
            scope = env[slot]
            key = ("spans", scope, path)
            spans = cache.get(key)
            if spans is None:
                events, ends = _scope_events(scope, cache)
                steps = (scope.element_name, *path) if marked else path
                spans = cache[key] = _path_spans(events, ends, steps)
            return spans

        return spans_in_scope

    def values(self, var: str, path: Path, coefficient: Optional[float] = None) -> Callable:
        """The atomised (and scaled) values of ``$var/path`` as ``values(env, cache)``."""
        slot = self.slots[var]
        nodes = self.nodes(var, path) if self._walked(var, path) else None
        key_path = path if coefficient is None else (path, coefficient)

        def values(env, cache):
            binding = env[slot]
            key = ("atoms", binding, key_path)
            atoms = cache.get(key)
            if atoms is None:
                if nodes is not None:
                    texts = [span.text() for span in nodes(env, cache)]
                else:
                    texts = binding.value_store.get(path, ())
                if coefficient is None:
                    atoms = [_atom(text) for text in texts]
                else:
                    atoms = [_scaled(coefficient, number) for number in map(_as_number, texts) if number is not None]
                cache[key] = atoms
            return atoms

        return values

    def count(self, var: str, path: Path) -> Callable:
        """How many nodes ``$var/path`` reaches, as ``count(env, cache)``."""
        if self._walked(var, path):
            nodes = self.nodes(var, path)
            return lambda env, cache: len(nodes(env, cache))
        slot = self.slots[var]
        return lambda env, cache: len(env[slot].value_store.get(path, ()))


# ---------------------------------------------------------------------------
# Values and comparisons


def _atom(text: str) -> Atom:
    return text.strip(), _as_number(text)


def _scaled(coefficient: float, number: float) -> Atom:
    text = _format_number(coefficient * number)
    return text, _as_number(text)


def _existential(compare, left: List[Atom], right: List[Atom]) -> bool:
    """Some pair of values satisfies ``compare``: numerically when both are
    xs:double, otherwise as stripped strings."""
    for text, number in left:
        for other_text, other_number in right:
            if number is not None and other_number is not None:
                if compare(number, other_number):
                    return True
            elif compare(text, other_text):
                return True
    return False


# ---------------------------------------------------------------------------
# Reading buffered events


def _scope_events(scope, cache: _HandlerCache) -> tuple:
    """A scope buffer's events and end pointers, read once per handler execution."""
    entry = cache.get(scope)
    if entry is None:
        # A governed buffer decodes its spilled pages here, once.
        buffer = scope.buffer
        events = [] if buffer is None else buffer.events
        entry = cache[scope] = (events, _end_pointers(events) if len(events) >= _SKIP_MIN else None)
    return entry


def _end_pointers(events: List[Event]) -> List[int]:
    """For each start tag's index, the index after its end tag, or
    ``len(events)`` for an element still open at the end."""
    ends = [len(events)] * len(events)
    open_at = []
    for index, event in enumerate(events):
        cls = event.__class__
        if cls is StartElement:
            open_at.append(index)
        elif cls is EndElement:
            ends[open_at.pop()] = index + 1
    return ends


def _path_spans(events: List[Event], ends: Optional[List[int]], steps: Path, start: int = 0) -> List[_Span]:
    """The elements a non-empty child path reaches from the forest that
    starts at ``events[start]``, one span each, in document order.

    The forest ends at the end tag of its parent or at the end of
    ``events``, where an element may still be open (a mid-stream read).
    Each child the first step does not name is jumped over --
    by ``ends`` (:func:`_end_pointers`), or by a scan for its end tag when
    that is ``None`` -- and the walk goes on inside each one it names.  Raw
    content is balanced: the walk goes on in each of its children the step
    names.
    """
    spans: List[_Span] = []
    _descend(events, ends, steps, start, spans)
    return spans


def _descend(events, ends, steps: Path, index: int, out: List[_Span]) -> int:
    """:func:`_path_spans` into ``out``; returns the index of the forest's end."""
    name, rest = steps[0], steps[1:]
    length = len(events)
    while index < length:
        event = events[index]
        cls = event.__class__
        if cls is StartElement:
            if rest and event.name == name:
                index = _descend(events, ends, rest, index + 1, out) + 1
                continue
            end = _end_of(events, index) if ends is None else ends[index]
            if event.name == name:
                out.append(_Span(events, ends, index, end))
            index = end
        elif cls is EndElement:
            return index
        else:
            if cls is RawContent:
                for child in _raw_children(event.text, name):
                    _descend(child, None, steps, 0, out)
            index += 1
    return length


def _end_of(events: List[Event], start: int) -> int:
    """The index after the end tag of the element starting at ``start``, or
    ``len(events)`` when it is still open."""
    depth = 0
    for index in range(start, len(events)):
        cls = events[index].__class__
        if cls is StartElement:
            depth += 1
        elif cls is EndElement:
            depth -= 1
            if not depth:
                return index + 1
    return len(events)


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


def _render(span: _Span) -> RawContent:
    """What ``{$x}`` writes for a buffered element, as one raw content item
    of the events it stands for: as in the reference evaluator's trees,
    start tags lose their attributes, and an element still open at the end
    of the buffer gets the end tags that close it."""
    parts, count, open_names = [], span.stop - span.start, []
    for event in span.events[span.start : span.stop]:
        cls = event.__class__
        if cls is StartElement:
            open_names.append(event.name)
            if event.attributes:
                event = StartElement(event.name)
        elif cls is EndElement:
            open_names.pop()
        elif cls is RawContent:
            count += event.count - 1
        parts.append(serialize_event(event))
    parts.extend(serialize_event(EndElement(name)) for name in reversed(open_names))
    return RawContent("".join(parts), count + len(open_names))


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

    A probe value meets a key exactly as :func:`_existential` pairs them:
    numerically when both are xs:double, otherwise as stripped strings.  So
    numeric keys sit in ``numbers`` (NaN dropped -- it satisfies no indexed
    operator) and again, as strings, in ``numeric_text``; all other keys sit
    in ``text``.  A node with several values has several keys.
    """

    __slots__ = ("nodes", "numbers", "numeric_text", "text")

    def __init__(self, nodes: List[_Span], keys: List[List[Atom]]):
        self.nodes = nodes
        numbers, numeric_text, text = [], [], []
        for position, atoms in enumerate(keys):
            for value, number in atoms:
                if number is None:
                    text.append((value, position))
                else:
                    numeric_text.append((value, position))
                    if number == number:
                        numbers.append((number, position))
        self.numbers = _SortedKeys(numbers)
        self.numeric_text = _SortedKeys(numeric_text)
        self.text = _SortedKeys(text)

    def probe(self, op: str, atoms: List[Atom]) -> List[_Span]:
        """The nodes, in document order, with a key ``k`` such that ``v op k`` for a ``v``."""
        hits = set()
        for value, number in atoms:
            hits.update(self.text.matching(op, value))
            if number is None:
                hits.update(self.numeric_text.matching(op, value))
            elif number == number:
                hits.update(self.numbers.matching(op, number))
        nodes = self.nodes
        return [nodes[position] for position in sorted(hits)]
