"""Streaming XML substrate.

The FluX engine (and its baselines) operate on streams of SAX-style events.
This package provides everything the rest of the library needs to produce,
consume, buffer and serialize such event streams:

* :mod:`repro.xmlstream.events` -- the event vocabulary (start/end element,
  character data, start/end document).
* :mod:`repro.xmlstream.source` -- what a document source may be (text,
  bytes, a path, a file object, a chunk iterable) and how it is read as
  bytes; the engine's scanner and the reference parser share it.
* :mod:`repro.xmlstream.parser` -- the *reference* event stream, built on
  the stdlib expat parser: :func:`~repro.xmlstream.parser.iter_events`,
  ``parse_events`` and ``parse_tree``.  The engine's byte scanner
  (:mod:`repro.fastpath.scanner`) is differentially tested against it, and
  the DOM baselines and the conformance oracle's expected output are built
  on it; it is not an engine path.
* :mod:`repro.xmlstream.serializer` -- events back to XML text.
* :mod:`repro.xmlstream.tree` -- a small in-memory node tree used by the
  reference/baseline evaluators (the engine reads its buffers as events).
* :mod:`repro.xmlstream.attributes` -- the attribute-to-subelement expansion
  the paper applies to the XMark data ("XSAX").
"""

from repro.xmlstream.events import (
    Characters,
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    is_element_event,
)
from repro.xmlstream.errors import XMLSyntaxError
from repro.xmlstream.parser import iter_events, parse_events, parse_tree
from repro.xmlstream.serializer import (
    escape_text,
    serialize_event,
    serialize_events,
)
from repro.xmlstream.tree import XMLNode, events_to_tree, tree_to_events
from repro.xmlstream.attributes import expand_attributes

__all__ = [
    "Characters",
    "EndDocument",
    "EndElement",
    "Event",
    "StartDocument",
    "StartElement",
    "XMLNode",
    "XMLSyntaxError",
    "escape_text",
    "events_to_tree",
    "expand_attributes",
    "is_element_event",
    "iter_events",
    "parse_events",
    "parse_tree",
    "serialize_event",
    "serialize_events",
    "tree_to_events",
]
