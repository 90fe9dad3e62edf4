"""Streaming XML substrate.

The FluX engine (and its baselines) operate on streams of SAX-style events.
This package provides everything the rest of the library needs to produce,
consume, buffer and serialize such event streams:

* :mod:`repro.xmlstream.events` -- the event vocabulary (start/end element,
  character data, start/end document).
* :mod:`repro.xmlstream.tokenizer` -- a hand-written, incremental XML
  tokenizer that turns text chunks into events without ever materializing
  the document.  It is the *reference implementation* the engine's byte
  scanner (:mod:`repro.fastpath.scanner`) is differentially tested
  against, and what the DOM baselines and the conformance oracle's
  expected output are built on; it is not an engine path.
* :mod:`repro.xmlstream.parser` -- user-facing parsing helpers built on the
  tokenizer: :func:`~repro.xmlstream.parser.iter_event_batches` (one event
  list per chunk), :func:`~repro.xmlstream.parser.iter_events` (flattened),
  ``parse_events`` and ``parse_tree``.  Sources can be document text (``str``/``bytes``), paths
  (``str``/:class:`os.PathLike`), file objects or chunk iterables.
* :mod:`repro.xmlstream.serializer` -- events back to XML text.
* :mod:`repro.xmlstream.tree` -- a small in-memory node tree used by the
  reference/baseline evaluators and for inspecting buffered data.
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
from repro.xmlstream.parser import (
    iter_event_batches,
    iter_events,
    parse_events,
    parse_tree,
)
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
    "iter_event_batches",
    "iter_events",
    "parse_events",
    "parse_tree",
    "serialize_event",
    "serialize_events",
    "tree_to_events",
]
