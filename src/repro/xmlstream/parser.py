"""The reference event stream, built on the stdlib expat parser.

:func:`iter_events` streams SAX-style events from any
:data:`~repro.xmlstream.source.DocumentSource`; :func:`parse_events` and
:func:`parse_tree` materialize them as a list or a tree.  Documents are read
as byte chunks through :func:`~repro.xmlstream.source.iter_byte_chunks` (the
chunks a run feeds its scanner), decoded as UTF-8 whatever an XML
declaration says, and parsed by :mod:`xml.parsers.expat`.  The engine's
byte scanner is differentially tested against this stream, and the DOM
baselines and the conformance oracle's expected output are built on it; it
is not an engine path and shares no tokenizing code with the scanner.

The stream follows the paper's data model:

* character data is one :class:`Characters` event per segment between two
  pieces of markup (tags, comments, processing instructions, CDATA section
  boundaries); with ``strip_whitespace`` a whitespace-only segment
  (``str.isspace``) is dropped.  Line ends and attribute values are
  normalised as XML 1.0 requires;
* attributes come in document order, only those the document specifies;
* only the five predefined entities and character references exist: an
  entity declaration, or a reference expat would skip, is an
  :class:`XMLSyntaxError`.

Errors: the UTF-8 codec finds invalid UTF-8 (an
:class:`XMLWellFormednessError` at the first bad byte).  Expat's errors are
translated in one place, :meth:`_Reader.feed`: nesting and document-extent
errors (:data:`_WELLFORMEDNESS_CODES`) become
:class:`XMLWellFormednessError`, all others :class:`XMLSyntaxError`, at
expat's byte offset and with expat's message.
"""

from __future__ import annotations

import codecs
from contextlib import closing
from itertools import chain
from typing import Iterator, List
from xml.parsers.expat import ExpatError, ParserCreate, errors

from repro.xmlstream.attributes import expand_attributes
from repro.xmlstream.errors import XMLSyntaxError, XMLWellFormednessError
from repro.xmlstream.events import (
    Characters,
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
)
from repro.xmlstream.source import DEFAULT_CHUNK_SIZE, DocumentSource, iter_byte_chunks
from repro.xmlstream.tree import XMLNode, events_to_tree

#: Expat errors about nesting and the document's extent.
_WELLFORMEDNESS_CODES = frozenset(
    errors.codes[message]
    for message in (
        errors.XML_ERROR_NO_ELEMENTS,
        errors.XML_ERROR_TAG_MISMATCH,
        errors.XML_ERROR_JUNK_AFTER_DOC_ELEMENT,
        errors.XML_ERROR_PARTIAL_CHAR,
    )
)


class _Reader:
    """One expat parser whose callbacks collect events, fed chunk by chunk."""

    def __init__(self, strip_whitespace: bool):
        self.events: List[Event] = []
        self._text: List[str] = []
        self._strip = strip_whitespace
        self._fed = 0
        self._utf8 = codecs.getincrementaldecoder("utf-8")()
        parser = self._parser = ParserCreate("utf-8")
        parser.buffer_text = True
        parser.ordered_attributes = True
        parser.specified_attributes = True
        parser.StartElementHandler = self._start
        parser.EndElementHandler = self._end
        parser.CharacterDataHandler = self._text.append
        # Markup that ends a character-data segment without an event.
        parser.CommentHandler = self._flush
        parser.ProcessingInstructionHandler = self._flush
        parser.StartCdataSectionHandler = self._flush
        parser.EndCdataSectionHandler = self._flush
        parser.EntityDeclHandler = self._entity_declared
        parser.SkippedEntityHandler = self._entity_skipped

    def feed(self, chunk: bytes, final: bool) -> List[Event]:
        """Parse one chunk; return (and forget) the events it completed."""
        parser = self._parser
        pending = len(self._utf8.getstate()[0])
        try:
            try:
                self._utf8.decode(chunk, final)
            except UnicodeDecodeError as exc:
                bad = self._fed - pending + exc.start
                # An error expat finds before the bad byte comes first.
                parser.Parse(chunk[: max(bad - self._fed, 0)], False)
                raise XMLWellFormednessError(f"invalid UTF-8 in document: {exc.reason}", bad)
            parser.Parse(chunk, final)
        except ExpatError as exc:
            kind = XMLWellFormednessError if exc.code in _WELLFORMEDNESS_CODES else XMLSyntaxError
            raise kind(errors.messages[exc.code], max(parser.ErrorByteIndex, 0)) from None
        self._fed += len(chunk)
        events, self.events = self.events, []
        return events

    def _flush(self, *_markup) -> None:
        text = self._text
        if text:
            segment = "".join(text)
            text.clear()
            if not (self._strip and segment.isspace()):
                self.events.append(Characters(segment))

    def _start(self, name: str, attributes: List[str]) -> None:
        if self._text:
            self._flush()
        pairs = tuple(zip(attributes[::2], attributes[1::2])) if attributes else ()
        self.events.append(StartElement(name, pairs))

    def _end(self, name: str) -> None:
        if self._text:
            self._flush()
        self.events.append(EndElement(name))

    def _entity_declared(self, name: str, *_declaration) -> None:
        at = self._parser.CurrentByteIndex
        raise XMLSyntaxError(f"unsupported entity declaration {name!r}", at)

    def _entity_skipped(self, name: str, _parameter: bool) -> None:
        raise XMLSyntaxError(f"unknown entity &{name};", self._parser.CurrentByteIndex)


def iter_events(
    source: DocumentSource,
    *,
    strip_whitespace: bool = True,
    expand_attrs: bool = False,
    document_events: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[Event]:
    """Stream SAX-style events from ``source``.

    ``strip_whitespace`` drops whitespace-only character data (the paper's
    data model has element-only content almost everywhere);
    ``expand_attrs`` applies the attribute-to-subelement expansion of
    :mod:`repro.xmlstream.attributes`; ``document_events`` adds the
    :class:`StartDocument`/:class:`EndDocument` markers.  ``chunk_size``
    bytes are parsed at a time; the events do not depend on it.
    """
    reader = _Reader(strip_whitespace)
    with closing(iter_byte_chunks(source, chunk_size)) as chunks:
        if document_events:
            yield StartDocument()
        # Sources never yield an empty chunk: the closing ``b""`` is final.
        for chunk in chain(chunks, [b""]):
            batch = reader.feed(chunk, final=not chunk)
            yield from expand_attributes(batch) if expand_attrs else batch
        if document_events:
            yield EndDocument()


def parse_events(
    source: DocumentSource,
    *,
    strip_whitespace: bool = True,
    expand_attrs: bool = False,
    document_events: bool = True,
) -> List[Event]:
    """Parse ``source`` and return the complete list of events."""
    return list(
        iter_events(
            source,
            strip_whitespace=strip_whitespace,
            expand_attrs=expand_attrs,
            document_events=document_events,
        )
    )


def parse_tree(
    source: DocumentSource, *, strip_whitespace: bool = True, expand_attrs: bool = False
) -> XMLNode:
    """Parse ``source`` into an in-memory tree and return the root element."""
    events = iter_events(
        source, strip_whitespace=strip_whitespace, expand_attrs=expand_attrs, document_events=False
    )
    return events_to_tree(events)  # expat rejects a document without an element
