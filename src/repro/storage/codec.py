"""Bulk codec for spilled event pages.

A spilled page is one flat byte string in three sections, so encoding and
decoding cost a few bulk operations per page rather than per-record
varint and ``encode``/``decode`` calls::

    header    count:u32  typecode:u8      (little-endian)
    kinds     count bytes, one per record
    lengths   one unsigned integer per string, ``array(typecode)``
    payload   every string, concatenated, as one UTF-8 run

Records, in kind order, and the strings each one takes from the payload:

    0x01  StartElement   name
    0x02  EndElement     name
    0x03  Characters     text
    0x04  attribute      key value   (of the next StartElement)
    0x05  RawContent     text count  (the count as decimal digits)

An attribute-bearing start tag is its attribute records followed by its
``StartElement`` record, so no record needs a count.  ``lengths`` counts
*characters*: the payload is decoded once and sliced.  Its typecode is the
narrowest of ``B``/``H``/``I`` that holds the page's longest string, so the
usual short names and texts cost one byte each.  Lengths are written in
native byte order; a page never leaves the process that spilled it.

The round-trip is *exact* -- ``decode_events(encode_events(events)) ==
events`` for every string the scanner can produce, ``\\x00`` and lone
surrogates (``&#xD800;``) included, which UTF-8 proper cannot carry: the
payload uses the ``surrogatepass`` error handler.  Decoding shares one
``StartElement``/``EndElement`` object per distinct tag within a page
(events are immutable); nothing is cached across pages, because tag
vocabularies are unbounded.  A corrupt page raises :class:`ValueError`.
"""

from __future__ import annotations

import struct
from array import array
from itertools import accumulate, chain
from typing import Iterable, List

from repro.xmlstream.events import Characters, EndElement, Event, RawContent, StartElement

_START = 0x01
_END = 0x02
_CHARACTERS = 0x03
_ATTRIBUTE = 0x04
_RAW = 0x05

_HEADER = struct.Struct("<IB")
_UTF8 = "utf-8"
_SURROGATES = "surrogatepass"


def encode_events(events: Iterable[Event]) -> bytes:
    """Serialize a sequence of buffered events to one page payload."""
    kinds = bytearray()
    strings: List[str] = []
    record = kinds.append
    take = strings.append
    for event in events:
        cls = event.__class__
        if cls is Characters:
            record(_CHARACTERS)
            take(event.text)
        elif cls is StartElement:
            for key, value in event.attributes:
                record(_ATTRIBUTE)
                take(key)
                take(value)
            record(_START)
            take(event.name)
        elif cls is EndElement:
            record(_END)
            take(event.name)
        elif cls is RawContent:
            record(_RAW)
            take(event.text)
            take(str(event.count))
        else:
            # Document boundary events are never buffered (the executor
            # strips them before any buffer sees the stream).
            raise TypeError(f"event cannot be spilled: {event!r}")
    lengths = list(map(len, strings))
    longest = max(lengths, default=0)
    typecode = "B" if longest <= 0xFF else "H" if longest <= 0xFFFF else "I"
    return b"".join(
        (
            _HEADER.pack(len(kinds), ord(typecode)),
            kinds,
            array(typecode, lengths).tobytes(),
            "".join(strings).encode(_UTF8, _SURROGATES),
        )
    )


def decode_events(data: bytes) -> List[Event]:
    """Reconstruct the event list of one spilled page payload."""
    if len(data) < _HEADER.size:
        raise ValueError("corrupt spill page: truncated header")
    count, code = _HEADER.unpack_from(data)
    typecode = chr(code)
    if typecode not in ("B", "H", "I"):
        raise ValueError(f"corrupt spill page: unknown length typecode 0x{code:02x}")
    at = _HEADER.size
    kinds = data[at : at + count]
    at += count
    lengths = array(typecode)
    size = (
        kinds.count(_START) + kinds.count(_END) + kinds.count(_CHARACTERS)
        + 2 * (kinds.count(_ATTRIBUTE) + kinds.count(_RAW))
    ) * lengths.itemsize
    lengths.frombytes(data[at : at + size])
    at += size
    if at > len(data):
        raise ValueError("corrupt spill page: truncated record section")
    text = data[at:].decode(_UTF8, _SURROGATES)
    ends = list(accumulate(lengths))
    if (ends[-1] if ends else 0) != len(text):
        raise ValueError("corrupt spill page: string lengths do not match the payload")
    take = iter([text[start:end] for start, end in zip(chain((0,), ends), ends)]).__next__

    events: List[Event] = []
    append = events.append
    starts: dict = {}
    closes: dict = {}
    attributes: list = []
    for kind in kinds:
        if kind == _CHARACTERS:
            append(Characters(take()))
        elif kind == _START:
            name = take()
            if attributes:
                append(StartElement(name, tuple(attributes)))
                attributes = []
            else:
                event = starts.get(name)
                if event is None:
                    event = starts[name] = StartElement(name)
                append(event)
        elif kind == _END:
            name = take()
            event = closes.get(name)
            if event is None:
                event = closes[name] = EndElement(name)
            append(event)
        elif kind == _ATTRIBUTE:
            attributes.append((take(), take()))
        elif kind == _RAW:
            append(RawContent(take(), int(take())))
        else:
            raise ValueError(f"corrupt spill page: unknown record kind 0x{kind:02x}")
    if attributes:
        raise ValueError("corrupt spill page: attributes without a start tag")
    return events
