"""Case minimization: turn a failing case into a reportable repro.

Given a failing case and a predicate (``still_fails``), the shrinker

1. reduces the query set to a single failing query,
2. repeatedly deletes element subtrees from the document,
3. deletes or truncates text nodes,

accepting a mutation only when the mutated document still **conforms to the
case's DTD** (engines assume conformance; an invalid document would turn a
real engine divergence into schema noise) and the case still fails.  The
loop is greedy and runs to a fixpoint (bounded by ``max_rounds``), which is
the classic delta-debugging compromise: not globally minimal, but small
enough to read in a bug report.

The document is manipulated through a tiny attribute-preserving tree (the
reference side's :class:`~repro.xmlstream.tree.XMLNode` deliberately drops
attributes, so it cannot round-trip a document that relies on
``expand_attrs``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from repro.conformance.cases import Case
from repro.core.api import load_dtd
from repro.dtd.validator import validate_document
from repro.xmlstream.events import Characters, EndElement, StartElement
from repro.xmlstream.parser import iter_events, parse_events
from repro.xmlstream.serializer import escape_attribute, escape_text


@dataclass
class _Node:
    """Mutable element node that keeps attributes (unlike ``XMLNode``)."""

    name: str
    attributes: List[Tuple[str, str]] = field(default_factory=list)
    children: List[Union["_Node", str]] = field(default_factory=list)

    def render(self, out: List[str]) -> None:
        attrs = "".join(f' {name}="{escape_attribute(value)}"' for name, value in self.attributes)
        out.append(f"<{self.name}{attrs}>")
        for child in self.children:
            if isinstance(child, _Node):
                child.render(out)
            else:
                out.append(escape_text(child))
        out.append(f"</{self.name}>")


def _parse(document: str) -> _Node:
    stack: List[_Node] = []
    root: Optional[_Node] = None
    for event in parse_events(document, document_events=False, strip_whitespace=True):
        if isinstance(event, StartElement):
            node = _Node(event.name, list(event.attributes))
            if stack:
                stack[-1].children.append(node)
            elif root is None:
                root = node
            stack.append(node)
        elif isinstance(event, EndElement):
            stack.pop()
        elif isinstance(event, Characters):
            if stack:
                stack[-1].children.append(event.text)
    return root  # the reference parser rejects a document without an element


def _render(root: _Node) -> str:
    out: List[str] = []
    root.render(out)
    return "".join(out)


def _element_slots(root: _Node) -> List[Tuple[_Node, int]]:
    """(parent, child-index) of every non-root element, outermost first.

    Outermost-first order lets the greedy loop delete whole branches before
    it bothers with their leaves.
    """
    slots: List[Tuple[_Node, int]] = []
    queue: List[_Node] = [root]
    while queue:
        node = queue.pop(0)
        for index, child in enumerate(node.children):
            if isinstance(child, _Node):
                slots.append((node, index))
                queue.append(child)
    return slots


def _text_slots(root: _Node) -> List[Tuple[_Node, int]]:
    """(parent, child-index) of every text child, in document order."""
    slots: List[Tuple[_Node, int]] = []
    queue: List[_Node] = [root]
    while queue:
        node = queue.pop(0)
        for index, child in enumerate(node.children):
            if isinstance(child, _Node):
                queue.append(child)
            else:
                slots.append((node, index))
    return slots


class Shrinker:
    """Greedy delta-debugging over a case's queries and document."""

    def __init__(
        self,
        still_fails: Callable[[Case], bool],
        *,
        max_rounds: int = 6,
        max_probes: int = 2000,
    ):
        self.still_fails = still_fails
        self.max_rounds = max_rounds
        self.max_probes = max_probes
        self._probes = 0

    # ------------------------------------------------------------------- API

    def shrink(self, case: Case) -> Case:
        """Minimize ``case``; the result is guaranteed to still fail."""
        self._probes = 0
        case = self._shrink_queries(case)
        case = self._shrink_document(case)
        return case

    # --------------------------------------------------------------- internals

    def _attempt(self, candidate: Case) -> bool:
        if self._probes >= self.max_probes:
            return False
        self._probes += 1
        try:
            return self.still_fails(candidate)
        except Exception:  # noqa: BLE001 - a crashing probe is not a reduction
            return False

    def _shrink_queries(self, case: Case) -> Case:
        if len(case.queries) <= 1:
            return case
        # Prefer a single-query repro; fall back to dropping one at a time.
        for name, source in case.queries:
            candidate = case.with_queries({name: source})
            if self._attempt(candidate):
                return candidate
        current = case
        changed = True
        while changed and len(current.queries) > 1:
            changed = False
            for name in list(current.query_map):
                reduced = {k: v for k, v in current.queries if k != name}
                candidate = current.with_queries(reduced)
                if self._attempt(candidate):
                    current = candidate
                    changed = True
                    break
        return current

    def _is_valid(self, case: Case, document: str) -> bool:
        try:
            schema = load_dtd(case.dtd_source, root_element=case.root)
            report = validate_document(
                schema,
                iter_events(document, expand_attrs=case.expand_attrs),
                expected_root=case.root,
            )
        except Exception:  # noqa: BLE001 - unparsable mutants are simply rejected
            return False
        return report.is_valid

    def _try_document(self, case: Case, root: _Node) -> Optional[Case]:
        document = _render(root)
        if len(document) >= len(case.document):
            return None
        if not self._is_valid(case, document):
            return None
        candidate = case.with_document(document)
        if self._attempt(candidate):
            return candidate
        return None

    def _shrink_document(self, case: Case) -> Case:
        for _round in range(self.max_rounds):
            changed = False
            root = _parse(case.document)

            # Pass 1: delete element subtrees (outermost first).
            slot = 0
            while True:
                slots = _element_slots(root)
                if slot >= len(slots):
                    break
                parent, index = slots[slot]
                removed = parent.children.pop(index)
                candidate = self._try_document(case, root)
                if candidate is not None:
                    case = candidate
                    changed = True
                else:
                    parent.children.insert(index, removed)
                    slot += 1

            # Pass 2: drop text nodes, then truncate what must stay.
            root = _parse(case.document)
            slot = 0
            while True:
                slots = _text_slots(root)
                if slot >= len(slots):
                    break
                parent, index = slots[slot]
                text = parent.children[index]
                parent.children.pop(index)
                candidate = self._try_document(case, root)
                if candidate is not None:
                    case = candidate
                    changed = True
                    continue
                parent.children.insert(index, text)
                if len(text) > 1:
                    parent.children[index] = text[: max(1, len(text) // 2)]
                    candidate = self._try_document(case, root)
                    if candidate is not None:
                        case = candidate
                        changed = True
                    else:
                        parent.children[index] = text
                slot += 1

            if not changed:
                break
        return case
