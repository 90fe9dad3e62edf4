"""A small in-memory XML node tree.

The FluX engine builds no trees at all -- its compiled handler bodies
read buffers as events (:mod:`repro.engine.xquery_exec`) -- but the
reference side it is compared against needs them in two places:

* the *naive* baseline engine (Galax-like) materializes the full document
  (:func:`~repro.xmlstream.parser.parse_tree`), and the reference evaluator
  (:mod:`repro.xquery.semantics`) runs over it,
* the *projection* baseline materializes the projected document.

:class:`XMLNode` is intentionally minimal: a name, an ordered child list
(elements and text), and helpers for navigation and atomization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.xmlstream.events import (
    Characters,
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
)


@dataclass
class XMLNode:
    """An element node with ordered children (elements and text chunks)."""

    name: str
    children: List[Union["XMLNode", str]] = field(default_factory=list)

    # -------------------------------------------------------------- building

    def append_child(self, child: Union["XMLNode", str]) -> None:
        """Append an element child or a text chunk."""
        self.children.append(child)

    # ------------------------------------------------------------ navigation

    def child_elements(self) -> Iterator["XMLNode"]:
        """Iterate over element children in document order."""
        for child in self.children:
            if isinstance(child, XMLNode):
                yield child

    def children_named(self, name: str) -> List["XMLNode"]:
        """Return element children with the given tag name, in document order."""
        return [child for child in self.child_elements() if child.name == name]

    def select_path(self, path: Sequence[str]) -> List["XMLNode"]:
        """Evaluate a fixed path ``a1/a2/.../an`` relative to this node.

        Returns all matching descendant nodes in document order.  An empty
        path returns ``[self]``.
        """
        current = [self]
        for step in path:
            next_nodes: List[XMLNode] = []
            for node in current:
                next_nodes.extend(node.children_named(step))
            current = next_nodes
        return current

    # ------------------------------------------------------------- contents

    def text_content(self) -> str:
        """Concatenated character data of the whole subtree (atomization)."""
        parts: List[str] = []
        self._collect_text(parts)
        return "".join(parts)

    def _collect_text(self, parts: List[str]) -> None:
        for child in self.children:
            if isinstance(child, XMLNode):
                child._collect_text(parts)
            else:
                parts.append(child)

    # ----------------------------------------------------------- conversion

    def to_events(self) -> List[Event]:
        """Serialize the subtree rooted at this node to a list of events."""
        events: List[Event] = []
        self._emit(events)
        return events

    def _emit(self, events: List[Event]) -> None:
        events.append(StartElement(self.name))
        for child in self.children:
            if isinstance(child, XMLNode):
                child._emit(events)
            else:
                events.append(Characters(child))
        events.append(EndElement(self.name))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"XMLNode({self.name!r}, {len(self.children)} children)"


def events_to_tree(events: Iterable[Event]) -> Optional[XMLNode]:
    """Build a tree from an event stream; returns the root element.

    Document events are optional.  If the stream contains no elements the
    function returns ``None``.  If the stream contains a *forest* (several
    top-level elements, as buffered fragments may), the forest is wrapped in a
    synthetic element named ``#fragment``.
    """
    roots: List[XMLNode] = []
    stack: List[XMLNode] = []
    for event in events:
        if isinstance(event, (StartDocument, EndDocument)):
            continue
        if isinstance(event, StartElement):
            node = XMLNode(event.name)
            if stack:
                stack[-1].append_child(node)
            else:
                roots.append(node)
            stack.append(node)
        elif isinstance(event, EndElement):
            if not stack:
                raise ValueError(f"unbalanced end element </{event.name}> in event stream")
            open_node = stack.pop()
            if open_node.name != event.name:
                raise ValueError(
                    f"unbalanced events: </{event.name}> closes <{open_node.name}>"
                )
        elif isinstance(event, Characters):
            if stack:
                stack[-1].append_child(event.text)
        else:
            raise TypeError(f"not an XML event: {event!r}")
    if stack:
        raise ValueError(f"unclosed element <{stack[-1].name}> in event stream")
    if not roots:
        return None
    if len(roots) == 1:
        return roots[0]
    fragment = XMLNode("#fragment")
    for root in roots:
        fragment.append_child(root)
    return fragment


def tree_to_events(root: XMLNode, *, document_events: bool = False) -> List[Event]:
    """Serialize a tree to a list of events (optionally with document markers)."""
    events: List[Event] = []
    if document_events:
        events.append(StartDocument())
    events.extend(root.to_events())
    if document_events:
        events.append(EndDocument())
    return events

