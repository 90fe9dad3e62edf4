"""Serialization of event streams back to XML text."""

from __future__ import annotations

from typing import Iterable, List

from repro.xmlstream.events import (
    Characters,
    EndDocument,
    EndElement,
    Event,
    RawContent,
    StartDocument,
    StartElement,
)

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}


def escape_text(text: str) -> str:
    """Escape character data for inclusion in element content."""
    out = text
    for char, replacement in _TEXT_ESCAPES.items():
        out = out.replace(char, replacement)
    return out


def escape_attribute(text: str) -> str:
    """Escape character data for inclusion in a double-quoted attribute."""
    out = text
    for char, replacement in _ATTR_ESCAPES.items():
        out = out.replace(char, replacement)
    return out


def serialize_event(event: Event) -> str:
    """Serialize a single event to its textual form."""
    if isinstance(event, StartElement):
        if event.attributes:
            attrs = "".join(
                f' {name}="{escape_attribute(value)}"' for name, value in event.attributes
            )
            return f"<{event.name}{attrs}>"
        return f"<{event.name}>"
    if isinstance(event, EndElement):
        return f"</{event.name}>"
    if isinstance(event, Characters):
        return escape_text(event.text)
    if isinstance(event, RawContent):
        return event.text
    if isinstance(event, (StartDocument, EndDocument)):
        return ""
    raise TypeError(f"not an XML event: {event!r}")


def serialize_events(events: Iterable[Event]) -> str:
    """Serialize an event iterable to an XML string."""
    parts: List[str] = []
    for event in events:
        parts.append(serialize_event(event))
    return "".join(parts)
