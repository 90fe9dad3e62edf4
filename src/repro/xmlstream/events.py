"""SAX-style event vocabulary.

Buffers in the FluX engine are lists of these events (Section 5 of the
paper: "Buffers are implemented as lists of SAX events").  Keeping the event
model tiny and immutable makes buffered data indistinguishable from data read
from the input stream, which is exactly the property the paper relies on to
use one set of operators for both.

Events are plain frozen dataclasses:

* :class:`StartDocument` / :class:`EndDocument` -- document boundaries.
* :class:`StartElement` -- an opening tag; carries the tag name and an
  attribute mapping (the core data model of the paper is attribute-free, but
  the parsers still report attributes so that the expansion pass in
  :mod:`repro.xmlstream.attributes` can convert them into subelements).
* :class:`EndElement` -- a closing tag.
* :class:`Characters` -- character data.
* :class:`RawContent` -- an element's whole content as canonical text,
  standing for the events it serialises (only for content the plan never
  dispatches on).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Tuple, Union


@dataclass(frozen=True)
class StartDocument:
    """Marks the beginning of a document stream."""

    def cost_in_bytes(self) -> int:
        """Approximate main-memory footprint used for buffer accounting."""
        return 0


@dataclass(frozen=True)
class EndDocument:
    """Marks the end of a document stream."""

    def cost_in_bytes(self) -> int:
        """Approximate main-memory footprint used for buffer accounting."""
        return 0


@dataclass(frozen=True)
class StartElement:
    """An opening tag ``<name attr="...">``.

    ``attributes`` is stored as a tuple of ``(name, value)`` pairs so that the
    event is hashable; :func:`StartElement.attribute_dict` offers mapping
    access when needed.
    """

    name: str
    attributes: Tuple[Tuple[str, str], ...] = field(default=())

    @staticmethod
    def with_attributes(name: str, attributes: Mapping[str, str]) -> "StartElement":
        """Build a start-element event from a name and an attribute mapping."""
        return StartElement(name, tuple(sorted(attributes.items())))

    def attribute_dict(self) -> dict:
        """Return the attributes as a plain dictionary."""
        return dict(self.attributes)

    def cost_in_bytes(self) -> int:
        """Approximate main-memory footprint used for buffer accounting.

        We charge the tag name plus both angle-bracketed tags' fixed overhead
        and the attribute text.  The exact constant does not matter for the
        experiments; what matters is that buffered data is charged
        proportionally to its serialized size.
        """
        cost = len(self.name) + 2
        for key, value in self.attributes:
            cost += len(key) + len(value) + 4
        return cost


@dataclass(frozen=True)
class EndElement:
    """A closing tag ``</name>``."""

    name: str

    def cost_in_bytes(self) -> int:
        """Approximate main-memory footprint used for buffer accounting."""
        return len(self.name) + 3


@dataclass(frozen=True)
class Characters:
    """Character data between tags."""

    text: str

    def cost_in_bytes(self) -> int:
        """Approximate main-memory footprint used for buffer accounting."""
        return len(self.text)


@dataclass(frozen=True)
class RawContent:
    """The whole content of one element, ``count`` events as canonical text.

    ``text`` is exactly what serialising those events gives: ASCII,
    attribute-free ``<name>``/``</name>`` tags and character data without
    ``&``, ``<``, ``>`` or CR.  The byte scanner makes one for content the
    plan never looks inside (:mod:`repro.fastpath.scanner`); a buffer read
    that steps inside it cuts the children it needs out of the text.
    """

    text: str
    count: int

    def cost_in_bytes(self) -> int:
        """The summed cost of the events it stands for: each one's cost is
        its serialised length."""
        return len(self.text)

    def characters(self) -> str:
        """The character data of the content (its string value)."""
        return _TAG_RE.sub("", self.text)


#: A tag of canonical raw content.
_TAG_RE = re.compile(r"<[^>]*>")


Event = Union[StartDocument, EndDocument, StartElement, EndElement, Characters, RawContent]


def is_element_event(event: Event) -> bool:
    """Return ``True`` for start-element and end-element events."""
    return isinstance(event, (StartElement, EndElement))
