"""Struct-of-arrays event batches and their lazy Event materialization.

Between the byte scanner and the executor boundary, events travel as
parallel columns instead of per-event dataclasses:

* ``words`` -- one packed ``int`` per surviving event:
  ``kind`` (3 bits) | ``tag id`` (30 bits) | ``fanout row`` (upper bits).
  The row indexes the union filter's membership masks, which is all the
  multi-query fan-out needs.
* ``spans`` -- ``(start, end)`` byte offsets into the batch's source
  ``buffer`` for rows that carry text: character data, CDATA content, and
  the raw body of attribute-bearing (or uninterned) tags.
* ``events`` -- ready-made event objects for :data:`K_EVENT` rows: the
  subelements ``expand_attrs`` synthesizes (their names and values exist
  nowhere in the source bytes, so there is no span to point at), and the
  :class:`~repro.xmlstream.events.RawContent` of elements the scanner
  took raw for the slots that keep them opaque.

Apart from those, nothing in a batch owns decoded text: the UTF-8 decode,
line-end normalisation, entity decoding and attribute parsing all happen in
:func:`materialize` -- once, for survivors only.  Adjacent character rows
are merged during materialization, so downstream sees one event per logical
text node (within a batch; batch boundaries never split one text node,
because the scanner holds text pending until the next ``<``).
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from repro.fastpath.markup import decode_entities, normalize_newlines, parse_tag_body
from repro.fastpath.tags import TagTable
from repro.xmlstream.errors import XMLWellFormednessError
from repro.xmlstream.events import Characters, EndElement, Event, RawContent, StartElement

#: Row kinds (3 bits of the packed word).
K_START = 0  # interned start tag, no attributes
K_END = 1  # interned end tag
K_TEXT = 2  # character data span (entity references still encoded)
K_CDATA = 3  # CDATA content span (no entity decoding)
K_START_C = 4  # complex start tag: span is the raw tag body (attrs/uninterned)
K_END_C = 5  # uninterned end tag: span is the name
K_EVENT = 6  # ready-made event (or raw content): one span slot, an index into ``events``

KIND_BITS = 3
TAG_SHIFT = KIND_BITS
STATE_SHIFT = 33
KIND_MASK = (1 << KIND_BITS) - 1
TAG_MASK = (1 << (STATE_SHIFT - TAG_SHIFT)) - 1


def decode_utf8(raw, offset: int) -> str:
    """Decode one span; invalid UTF-8 is a located well-formedness error.

    ``offset`` is the absolute stream offset of ``raw[0]``.
    """
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _invalid_utf8(exc, offset) from exc


def _invalid_utf8(exc: UnicodeDecodeError, offset: int) -> XMLWellFormednessError:
    return XMLWellFormednessError(
        f"invalid UTF-8 in document: {exc.reason}", offset + exc.start
    )


class SoABatch:
    """One scanner output batch: packed words + text spans over ``buffer``.

    ``seen`` / ``cost`` carry the batch's *pre-projection* input accounting
    (every event of the document, dropped or not), so statistics keep
    describing the document that was read, not the survivors; ``bulk`` is
    how many of the input bytes the scanner took without tokens.  ``base``
    is the absolute stream offset of ``buffer[0]`` (for located errors).
    """

    __slots__ = ("words", "spans", "events", "buffer", "tags", "base", "seen", "cost", "bulk")

    def __init__(self, buffer, tags: TagTable, base: int = 0):
        self.words = array("q")
        self.spans = array("q")
        self.events: List[Event] = []
        self.buffer = buffer
        self.tags = tags
        self.base = base
        self.seen = 0
        self.cost = 0
        self.bulk = 0

    def __len__(self) -> int:
        return len(self.words)

    def materialize(self) -> List[Event]:
        """Decode the batch into event objects (the executor boundary)."""
        words = self.words
        out: List[Event] = []
        if not words:
            return out
        append = out.append
        spans = self.spans
        buffer = self.buffer
        tags = self.tags
        starts = tags.start_events
        ends = tags.end_events
        chars = Characters
        si = 0
        start = 0
        # Pending coalesced character data: one segment almost always (extra
        # segments only appear around markup the projection filter skipped).
        pending: Optional[str] = None
        try:
            for word in words:
                kind = word & KIND_MASK
                if kind == K_START:
                    if pending is not None:
                        append(chars(pending))
                        pending = None
                    append(starts[(word >> TAG_SHIFT) & TAG_MASK])
                elif kind == K_END:
                    if pending is not None:
                        append(chars(pending))
                        pending = None
                    append(ends[(word >> TAG_SHIFT) & TAG_MASK])
                elif kind == K_TEXT or kind == K_CDATA:
                    start = spans[si]
                    end = spans[si + 1]
                    si += 2
                    text = buffer[start:end].decode("utf-8")
                    text = normalize_newlines(text) if "\r" in text else text
                    if kind == K_TEXT and "&" in text:
                        text = decode_entities(text, start)
                    pending = text if pending is None else pending + text
                else:
                    if pending is not None:
                        append(chars(pending))
                        pending = None
                    if kind == K_EVENT:
                        append(self.events[spans[si]])
                        si += 1
                        continue
                    start = spans[si]
                    end = spans[si + 1]
                    si += 2
                    if kind == K_START_C:
                        name, attributes = parse_tag_body(
                            buffer[start:end].decode("utf-8"), start
                        )
                        append(StartElement(name, tuple(attributes)))
                    else:  # K_END_C
                        append(EndElement(buffer[start:end].decode("utf-8")))
        except UnicodeDecodeError as exc:
            raise _invalid_utf8(exc, self.base + start) from exc
        if pending is not None:
            append(chars(pending))
        return out

    def materialize_split(self, fanout) -> List[List[Event]]:
        """Fan the batch out into one event sub-batch per ``fanout`` slot.

        Each word's packed state is a row of the
        :class:`~repro.pipeline.fanout.DynamicFanout` the batch was scanned
        through; its masks select the slots that receive the materialized
        event: element events go to every slot whose component keeps the
        row (``keep_masks``), character data only to those in a
        keep-everything region (``chars_masks``), and raw content, which
        carries its element's row, only to the slots opaque there
        (``opaque_masks``) -- the others read the same content as rows of
        the element's taken row.  Adjacent text rows share one state
        (nothing kept may sit between them), so coalescing before
        distribution is safe.  Slots with one spec share one sub-batch
        (:attr:`~repro.pipeline.fanout.DynamicFanout.aliases`).
        """
        subs: List[List[Event]] = [[] for _ in range(fanout.width)]
        words = self.words
        if not words:
            return subs
        keep_masks = fanout.keep_masks
        chars_masks = fanout.chars_masks
        opaque_masks = fanout.opaque_masks
        indices_for = fanout.indices_for
        leads = fanout.leads
        appends = [sub.append for sub in subs]
        spans = self.spans
        buffer = self.buffer
        tags = self.tags
        starts = tags.start_events
        ends = tags.end_events
        si = 0
        start = 0
        parts: Optional[List[str]] = None
        parts_mask = 0

        def flush_text() -> None:
            nonlocal parts
            event = Characters(parts[0] if len(parts) == 1 else "".join(parts))
            for index in indices_for(parts_mask & leads):
                appends[index](event)
            parts = None

        try:
            for word in words:
                kind = word & KIND_MASK
                state = word >> STATE_SHIFT
                if kind == K_START:
                    event = starts[(word >> TAG_SHIFT) & TAG_MASK]
                elif kind == K_END:
                    event = ends[(word >> TAG_SHIFT) & TAG_MASK]
                elif kind == K_TEXT or kind == K_CDATA:
                    start = spans[si]
                    end = spans[si + 1]
                    si += 2
                    text = buffer[start:end].decode("utf-8")
                    text = normalize_newlines(text) if "\r" in text else text
                    if kind == K_TEXT and "&" in text:
                        text = decode_entities(text, start)
                    if parts is None:
                        parts = [text]
                        parts_mask = chars_masks[state]
                    else:
                        parts.append(text)
                    continue
                elif kind == K_EVENT:
                    event = self.events[spans[si]]
                    si += 1
                    if event.__class__ is Characters:
                        # An expanded attribute value: the only text between
                        # its subelement's tags, so nothing is pending.
                        for index in indices_for(chars_masks[state] & leads):
                            appends[index](event)
                        continue
                    if event.__class__ is RawContent:
                        # Right after its element's start row, so nothing
                        # is pending: it goes to the slots opaque there.
                        for index in indices_for(opaque_masks[state] & leads):
                            appends[index](event)
                        continue
                else:
                    start = spans[si]
                    end = spans[si + 1]
                    si += 2
                    if kind == K_START_C:
                        name, attributes = parse_tag_body(
                            buffer[start:end].decode("utf-8"), start
                        )
                        event = StartElement(name, tuple(attributes))
                    else:  # K_END_C
                        event = EndElement(buffer[start:end].decode("utf-8"))
                if parts is not None:
                    flush_text()
                for index in indices_for(keep_masks[state] & leads):
                    appends[index](event)
        except UnicodeDecodeError as exc:
            raise _invalid_utf8(exc, self.base + start) from exc
        if parts is not None:
            flush_text()
        for position, leader in fanout.aliases:
            subs[position] = subs[leader]
        return subs


__all__ = [
    "SoABatch",
    "decode_utf8",
    "K_START",
    "K_END",
    "K_TEXT",
    "K_CDATA",
    "K_START_C",
    "K_END_C",
    "K_EVENT",
    "KIND_MASK",
    "TAG_MASK",
    "TAG_SHIFT",
    "STATE_SHIFT",
]
