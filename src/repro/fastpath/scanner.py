"""Bytes-native tokenizer fused with the flat-table projection filter.

:class:`ByteScanner` is the engine's only document scanner: one index-based
pass over each byte chunk it is fed that tokenizes, coalesces and projects
in a single loop and emits struct-of-arrays rows
(:class:`~repro.fastpath.batch.SoABatch`) for *surviving* events only.

What makes it fast:

* no UTF-8 decode during scanning -- XML markup is pure ASCII, so tag
  delimiters can never appear inside a multi-byte sequence and byte-level
  ``find`` is always correct; text is decoded only if and when a surviving
  span is materialized,
* tag names are interned to ints once (:class:`~repro.fastpath.tags.TagTable`);
  the steady-state cost of a start tag is one dict hit plus one index into
  the flat transition table of :class:`~repro.pipeline.fanout.DynamicFanout`,
* subtrees the projection filter drops emit *nothing*, and what the
  query never reads is mostly not tokenized at all.  The **bulk rule**
  takes a span in one piece when it lies inside the current chunk, is
  at most :data:`_BULK_MAX` bytes (the default chunk size; it bounds the
  copy and expat's buffers whatever chunks a caller feeds) and is
  *plain* (below).  It has three shapes:

  - a **dropped subtree**: from a dropped element's start tag to the
    first occurrence of its end tag, at least :data:`_BULK_MIN` bytes;
  - a **run** of dropped siblings, when the parent is dropped too or
    *hollow* (``fanout.hollow``: kept for its tag alone, it drops every
    child and forwards no text), and never at the root level, where the
    siblings would be concatenated documents: from the element's start
    tag to the *last* occurrence of its end tag before the parent's first
    end tag, at least :data:`_BULK_MIN` bytes.  A refused run falls back
    to the dropped-subtree shape for that element, and no run starts
    again before the refused one's end, so each byte reaches the proof at
    most twice;
  - the **content** of a kept element, *raw* for the slots that keep it
    :data:`~repro.pipeline.projection.OPAQUE` (``opaque_masks``: nothing
    of their plans sits inside it), at least :data:`_RAW_MIN` bytes and
    without ``\\r``.  Right after the element's start row goes one
    ``K_EVENT`` row of a :class:`~repro.xmlstream.events.RawContent`
    (the content's text and event count) stamped with the element's
    row, whose ``opaque_masks`` route it.  The element then
    goes on in ``fanout.taken(row)``, where those slots receive its end
    tag and nothing inside.  If that row is hollow -- no slot reads
    inside -- the loop jumps to the end tag and counts the content from
    the proof; otherwise (a **split**) it tokenizes the same bytes for
    the other slots and counts them itself, so no byte is counted twice.
    A split leaves ``fence`` where it was, so dropped subtrees and raw
    content inside it are still taken in one piece, but no run or other
    split starts inside a tried one (``run_fence``): each byte reaches
    at most one run or split proof and one subtree or whole-content
    proof, at most twice in all.  The raw text is byte for byte what the
    events the loop would have made serialise to: plain content with its
    blank gaps removed *is* the serialiser's output, since its tags are
    already ``<name>``/``</name>``, its text needs no escaping and,
    without CR, no line-end normalisation, and the loop drops exactly the
    blank segments.

  A span is plain when what follows its first start tag is ASCII, text
  without ``&``, ``<`` or ``>``, and tags exactly ``<name>`` /
  ``</name>``, and expat accepts the span as the content of a wrapper
  element (:func:`_plain_span`), which proves that it nests: the loop's
  stack after the span is its stack before.  The test is a handful of
  C-level byte operations, no regex: the rest is ASCII, holds no ``&`` and no ``/>``, as many ``>`` as ``<``,
  and once the name bytes are deleted every ``<`` begins ``<>`` or
  ``</>``.  Given expat's acceptance that *is* plainness: every ``<``
  then opens a tag of name bytes closed by the next ``>``, so equal
  counts leave no ``>`` in text or attribute values; comments, CDATA,
  PIs, padding and attributes leave a ``<`` that begins neither; and a
  self-closing ``<name/>``, the only well-formed tag whose skeleton
  reads ``</>``, holds ``/>``.  The span's events and bytes are then
  counted from ``<``/``><`` counts and whitespace-only gaps.  This is
  exact by construction: on plain content expat is stricter than the
  token loop and never laxer, so whatever it accepts the loop would have
  scanned without error and counted the same way, and anything else --
  including every error -- goes through the token loop unchanged.  Input
  statistics are accounted pre-drop either way, so they describe the
  document that was read, not the survivors; ``SoABatch.bulk`` counts the
  bytes taken without tokens.

The reference is the expat event stream of :mod:`repro.xmlstream.parser`
(+ :func:`~repro.xmlstream.attributes.expand_attributes`): for well-formed
documents the scanner yields the same events -- line ends and attribute
values normalised as XML 1.0 requires -- and the test suite checks it
differentially.  Input statistics count the reference's events, but the
*source's* bytes: raw text by its UTF-8 length, before line-end
normalisation, and an unexpanded attribute-bearing tag by its raw body.

On malformed input one error rule relates the two:

(i) if the scanner raises, the reference raises too, with the same class.
    Exceptions: expat stops earlier at a laxity of (iii); content outside
    the root element other than an element is a well-formedness error here
    and often a syntax error there; a malformed attribute list (junk after
    a start tag's name and whitespace) is parsed only when its tag is
    materialized, so a nesting error further on may be reported first; one
    defect that breaks two rules (an invalid byte in place of a quote) is
    reported as whichever rule each side checks first; a leading
    byte-order mark, and non-ASCII names on which ``str.isalnum`` and XML's
    name table disagree, are rejected here only.
(ii) offsets are equal, except where expat points inside the culprit: at
    the name of a mismatched end tag (two bytes on), at the first byte that
    cannot continue a malformed tag (the scanner points at its ``<``), at
    the end of input for an unterminated CDATA section or DOCTYPE, and
    anywhere for content outside the root element.
(iii) the scanner's laxities -- it accepts what expat rejects: subtrees
    that projection drops go unparsed (their attributes, unless
    ``expand_attrs``; nesting, text references and text UTF-8 are still
    checked); ``]]>`` in text; ``--`` in a comment; the content of comments
    and processing instructions, and a processing instruction without a
    target; ``&#0;`` and the other references to characters XML forbids;
    control characters; duplicate attributes; whitespace after ``<`` or
    ``</``; a DOCTYPE's internal subset; an XML declaration or DOCTYPE that
    is not at the start.

``expand_attrs`` (the paper's attribute-to-subelement adaptation) is done
here too: an attribute-bearing start tag emits its element row and then one
start/text/end row triple per attribute, each subelement name resolved
through the projection table like any other tag.

The scanner has one entry, whatever the source: :meth:`feed_batch` per
chunk, then :meth:`close_batch` at the end of input.  Chunks may be cut at
arbitrary byte positions -- **including mid-multibyte UTF-8**: an
incomplete sequence simply stays in the pending tail like any incomplete
token, because markup bytes are ASCII and can never be mistaken for
continuation bytes.  A chunk that cannot end the pending token (no ``<``
after pending text, no ``>`` after pending markup) is held unscanned, so a
token across many chunks is searched and copied once, not once per chunk.
:attr:`pending_bytes` reports whether the tail ends mid-sequence so the
run handle's text-after-partial-bytes guard holds.
:meth:`close_batch` raises every end-of-input error: a tail that ends
mid-sequence is a truncated document, located at the sequence's first
byte, in every run shape alike.
"""

from __future__ import annotations

import re
from typing import List
from xml.parsers.expat import ExpatError, ParserCreate

from repro.fastpath.batch import (
    K_CDATA,
    K_END,
    K_END_C,
    K_EVENT,
    K_START_C,
    K_TEXT,
    STATE_SHIFT,
    TAG_SHIFT,
    SoABatch,
    decode_utf8,
)
from repro.fastpath.markup import decode_entities, parse_tag_body, valid_name
from repro.fastpath.tags import DROP, UNINTERNED, UNKNOWN
from repro.xmlstream.attributes import expanded_attribute_name
from repro.xmlstream.errors import XMLSyntaxError, XMLWellFormednessError
from repro.xmlstream.events import Characters, EndElement, RawContent, StartElement
from repro.xmlstream.source import DEFAULT_CHUNK_SIZE

#: A start-tag body that is just an (ASCII) name, possibly padded.
_SIMPLE_TAG_RE = re.compile(rb"[ \t\r\n]*([A-Za-z_:][A-Za-z0-9_:.\-]*)[ \t\r\n]*\Z")
#: The leading name of a start-tag body that carries more: whitespace and
#: attributes.  A name followed by anything else goes to :func:`parse_tag_body`.
_NAME_PREFIX_RE = re.compile(rb"[ \t\r\n]*([A-Za-z_:][A-Za-z0-9_:.\-]*)(?=[ \t\r\n])")
#: A start tag up to the first ``>`` outside quoted attribute values.
_START_TAG_RE = re.compile(rb"<(?:[^\"'>]|\"[^\"]*\"|'[^']*')*>")

#: Smallest dropped subtree or run (start tag to end tag, in bytes) worth
#: taking in bulk; shorter ones are cheaper token by token.
_BULK_MIN = 256
#: Smallest opaque element taken raw.  Lower than :data:`_BULK_MIN`: each
#: event of opaque content would also be materialized, dispatched and
#: written one by one, so taking it raw pays off sooner.
_RAW_MIN = 128
#: Largest span taken in one piece (dropped subtree, run or raw content):
#: bounds the copy and expat's buffers whatever the chunk size; a larger
#: subtree is taken child by child.
_BULK_MAX = DEFAULT_CHUNK_SIZE
#: Bulk searches per chunk that may end without finding the end tag (the
#: element is larger than ``_BULK_MAX`` or still open at the chunk's end).
#: It only bounds adversarial deep nesting, where every level would search
#: up to ``_BULK_MAX`` bytes again; XMark queries never reach it (at most 5
#: misses per chunk, 8 KiB to 1 MiB chunks).
_BULK_MISSES = 8
#: The bytes of an ASCII XML name, deleted to leave a plain span's tag
#: skeleton (``<>`` and ``</>``).
_NAME_BYTES = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_:.-"
#: A whitespace-only text segment between two tags (``bytes.isspace`` class).
_BLANK_GAP_RE = re.compile(rb">[ \t\n\r\x0b\x0c]+<")


class ByteScanner:
    """One in-flight scan: tokenize + project a byte stream into SoA rows.

    ``fanout`` (its tag table and flat transition table) is shared and warm
    across runs; everything else is per-run cursor state, starting at the
    fanout's row 0.  A projection-less slot is pinned to keep-everything by
    its :class:`~repro.pipeline.fanout.DynamicFanout`, keeping a single code
    path.  ``base_offset`` is the stream offset of the document's first
    byte: every offset the scanner reports (errors, batch bases, the
    truncated-tail position) is stream-absolute by construction.
    """

    __slots__ = (
        "tags",
        "fanout",
        "_stack",
        "_states",
        "_skip",
        "_text_run",
        "_finished",
        "_seen_root",
        "_pending",
        "_held",
        "_offset",
        "_stop_root",
        "_root_closed",
        "_expand",
    )

    def __init__(
        self,
        fanout,
        *,
        stop_at_root_close: bool = False,
        expand_attrs: bool = False,
        base_offset: int = 0,
    ):
        self.tags = fanout.tags
        self.fanout = fanout
        self._stack: List[object] = []  # tag ids; raw name bytes past the cap
        self._states: List[int] = [0]
        self._skip = 0
        self._text_run = False
        self._finished = False
        self._seen_root = False
        self._pending = b""
        self._held: List[bytes] = []  # chunks appended to the tail unscanned
        self._offset = base_offset  # absolute byte offset of the pending tail
        self._stop_root = stop_at_root_close
        self._root_closed = False
        self._expand = expand_attrs

    @property
    def pending_bytes(self) -> bool:
        """Whether the pending tail ends inside a multi-byte UTF-8 sequence.

        While true, only byte chunks may be fed (appending encoded text
        would interleave it into the middle of a code point).
        """
        return self.incomplete_tail_at() is not None

    def incomplete_tail_at(self):
        """Absolute offset of a trailing incomplete UTF-8 sequence, or None.

        :meth:`close_batch` turns it into a located truncated-document
        error.
        """
        pending = self._settle()
        tail = pending[-4:]
        for index in range(len(tail) - 1, -1, -1):
            byte = tail[index]
            if byte < 0x80:
                return None
            if byte >= 0xC0:
                incomplete = len(tail) - index
                if incomplete < (2 if byte < 0xE0 else (3 if byte < 0xF0 else 4)):
                    return self._offset + len(pending) - incomplete
                return None
        return None

    @property
    def root_closed(self) -> bool:
        """True once the root element closed (``stop_at_root_close`` mode)."""
        return self._root_closed

    def take_remainder(self) -> bytes:
        """Return (and discard) unscanned bytes past the closed root element."""
        rest = self._settle()
        self._offset += len(rest)
        self._pending = b""
        return rest

    def feed_batch(self, data: bytes) -> SoABatch:
        """Scan one chunk; returns the rows that became complete."""
        if self._finished:
            raise XMLWellFormednessError("data after end of document", self._offset)
        pending = self._pending
        if pending:
            # Text ends at a ``<``, and every markup terminator with a ``>``
            # (once the tail is long enough to tell the kind): a chunk
            # without that byte cannot end the pending token, so hold it.
            awaited = b"<" if pending[0] != 60 else b">" if len(pending) >= 9 else b""
            if awaited not in data:
                self._held.append(data)
                return SoABatch(b"", self.tags, self._offset)
        buf = b"".join((pending, *self._held, data)) if pending else data
        self._held.clear()
        batch = SoABatch(buf, self.tags, self._offset)
        pos = self._drain(buf, False, batch)
        self._offset += pos
        self._pending = buf[pos:]
        return batch

    def _settle(self) -> bytes:
        """The pending tail, with the chunks held unscanned appended."""
        if self._held:
            self._pending = b"".join((self._pending, *self._held))
            self._held.clear()
        return self._pending

    def close_batch(self) -> SoABatch:
        """End of input: final rows, then the well-formedness checks -- a
        truncated UTF-8 tail (never decoded to U+FFFD nor dropped), an
        unclosed element, no element."""
        buf = self._settle()
        batch = SoABatch(buf, self.tags, self._offset)
        if self._finished:
            return batch
        truncated_at = self.incomplete_tail_at()
        if truncated_at is not None:
            raise XMLWellFormednessError(
                "truncated document: incomplete UTF-8 sequence at end of input",
                truncated_at,
            )
        pos = self._drain(buf, True, batch)
        self._offset += pos
        self._pending = b""
        if self._stack:
            name = self.tags.name_of(self._stack[-1])
            raise XMLWellFormednessError(
                f"document ended with unclosed element <{name}>", self._offset
            )
        if not self._seen_root:
            raise XMLWellFormednessError("document contains no element", self._offset)
        self._finished = True
        return batch

    # -------------------------------------------------------------- the scan

    def _drain(self, buf: bytes, final: bool, batch: SoABatch) -> int:
        tags = self.tags
        ids = tags.ids
        start_costs = tags.start_costs
        end_costs = tags.end_costs
        end_pats = tags.end_pats
        words = batch.words
        wapp = words.append
        spans = batch.spans
        sapp = spans.append
        find = buf.find
        rfind = buf.rfind
        stack = self._stack
        push = stack.append
        pop = stack.pop
        states = self._states
        spush = states.append
        spop = states.pop
        fanout = self.fanout
        cells, stride = fanout.layout
        chars_masks = fanout.chars_masks
        opaque_masks = fanout.opaque_masks
        hollow = fanout.hollow
        raw_items = batch.events
        top = states[-1]
        row = top * stride
        skip = self._skip
        base = self._offset
        seen = 0
        cost = 0
        # Coalescing: adjacent counted text segments (text/CDATA split by
        # skipped markup) form one logical node; they count once and
        # materialize merged -- also across chunk boundaries.
        text_run = self._text_run
        stop_root = self._stop_root
        expand = self._expand
        pos = 0
        length = len(buf)
        fence = 0
        run_fence = 0
        misses = 0
        bulk = 0

        while pos < length:
            if stop_root and not stack and self._seen_root:
                # Feed mode: the root element just closed -- bytes from here
                # on belong to the next document (``take_remainder``).
                break
            if buf[pos] != 60:  # not '<'
                # ------------------------------------------- character data
                lt = find(b"<", pos)
                if lt == -1:
                    if not final:
                        break
                    start = pos
                    end = length
                    pos = length
                else:
                    start = pos
                    end = lt
                    pos = lt
                raw = buf[start:end]
                if raw.isspace():  # '&' is not whitespace, so this is safe
                    continue
                if 38 in raw:  # '&': decode now so entity errors surface pre-drop
                    text = decode_entities(decode_utf8(raw, base + start), base + start)
                    if text.isspace():
                        continue
                    add = len(text)
                else:
                    if not raw.isascii() and decode_utf8(raw, base + start).isspace():
                        continue
                    add = end - start
                if not stack:
                    raise XMLWellFormednessError(
                        "character data outside the root element", base + start
                    )
                cost += add
                if not text_run:
                    seen += 1
                    text_run = True
                if skip:
                    continue
                if chars_masks[top]:
                    wapp(K_TEXT | (top << STATE_SHIFT))
                    sapp(start)
                    sapp(end)
                continue

            try:
                second = buf[pos + 1]
            except IndexError:  # '<' is the last byte of the buffer
                if final:
                    raise XMLSyntaxError("truncated markup", base + pos)
                break

            if second > 63:  # a name-start byte: start tag, the common token
                # ------------------------------------------------ start tag
                gt = find(b">", pos)
                if gt == -1:
                    if final:
                        raise XMLSyntaxError("unterminated tag", base + pos)
                    break
                raw = buf[pos + 1 : gt]
                at = pos
                pos = gt + 1
                tid = ids.get(raw)
                if tid is not None:
                    # Fast path: known, attribute-free, non-self-closing tag.
                    seen += 1
                    cost += start_costs[tid]
                    text_run = False
                    if not stack:
                        if self._seen_root:
                            raise XMLWellFormednessError(
                                "multiple root elements", base + at
                            )
                        self._seen_root = True
                    push(tid)
                    if not skip:
                        cell = cells[row + tid] if tid < stride else UNKNOWN
                        if cell == UNKNOWN:
                            cell = fanout.resolve(top, tid)
                            cells, stride = fanout.layout
                            row = top * stride
                        if cell != DROP:
                            spush(cell)
                            wapp((tid << TAG_SHIFT) | (cell << STATE_SHIFT))
                            top = cell
                            row = top * stride
                            if not opaque_masks[cell]:
                                continue
                        else:
                            skip = 1
                    else:
                        skip += 1
                    # A dropped element (``skip``) or one that some slot keeps
                    # opaque: take its subtree in bulk, or its content raw,
                    # when it closes inside this chunk, is large but not too
                    # large, and is plain.  Bytes already examined (``fence``,
                    # or ``run_fence`` for a split) are not searched again by
                    # the same shape, and misses are capped, so the extra
                    # C-level work per byte stays a small constant.
                    if pos < fence or misses >= _BULK_MISSES:
                        continue
                    pat = end_pats[tid]
                    reach = at + _BULK_MAX
                    close = find(pat, pos, reach)
                    if close == -1:
                        misses += 1
                        continue
                    close += len(pat)
                    if skip or hollow[taken := fanout.taken(top)]:
                        fence = close
                    elif pos < run_fence:
                        continue
                    else:
                        # A split: the loop reads the content on for the
                        # slots that look inside, so dropped subtrees there
                        # still go in bulk (``fence`` stays), but no run or
                        # split starts inside (``run_fence``).
                        run_fence = close
                    if (
                        skip
                        and pos >= run_fence
                        and len(stack) > 1
                        and (skip > 1 or hollow[top])
                        and (parent := stack[-2]).__class__ is int
                    ):
                        # Its parent drops every child: take the run of
                        # siblings up to its last end tag before the
                        # parent's, proven at once.  A refused run is not
                        # retried from inside (``run_fence``).
                        bound = find(end_pats[parent], close, reach)
                        last = rfind(pat, close, reach if bound == -1 else bound)
                        if last != -1:
                            run_fence = last = last + len(pat)
                            if last - at >= _BULK_MIN:
                                counted = _plain_span(buf[at:last], pos - at)
                                if counted is not None:
                                    seen += counted[0]
                                    cost += counted[1]
                                    bulk += last - pos
                                    pop()
                                    skip -= 1
                                    pos = fence = last
                                    continue
                    if close - at < (_BULK_MIN if skip else _RAW_MIN):
                        continue
                    subtree = buf[at:close]
                    if not skip and 13 in subtree:  # '\r' would be normalised
                        continue
                    counted = _plain_span(subtree, pos - at)
                    if counted is None:
                        continue
                    if skip:
                        seen += counted[0]
                        cost += counted[1]
                        bulk += close - pos
                        pop()
                        skip -= 1
                        pos = close
                        continue
                    # The content becomes one row for the opaque slots, and
                    # the element goes on in the taken row.
                    count = counted[0] - 1
                    if count:
                        wapp(K_EVENT | (top << STATE_SHIFT))
                        sapp(len(raw_items))
                        raw_items.append(
                            RawContent(counted[2][pos - at : -len(pat)].decode("ascii"), count)
                        )
                    states[-1] = top = taken
                    row = top * stride
                    if hollow[top]:
                        # Nobody reads inside: counted from the proof, and
                        # the end tag is the loop's.
                        seen += count
                        cost += counted[1] - len(pat)
                        bulk += close - len(pat) - pos
                        pos = close - len(pat)
                    continue
                # Uninterned: fall through (past the dispatch chain) into the
                # generic start-tag path below.
            elif second == 47:  # '/'
                # --------------------------------------------------- end tag
                if stack:
                    expected = stack[-1]
                    # Fast path: the only end tag that can be well-formed
                    # here is ``</top-of-stack>``; match it in place with a
                    # range-bounded find (a prefix test without a slice) --
                    # no scan, no dict hit.
                    if expected.__class__ is int and find(
                        pat := end_pats[expected], pos, pos + (plen := len(pat))
                    ) == pos:
                        pop()
                        seen += 1
                        cost += end_costs[expected]
                        text_run = False
                        pos += plen
                        if skip:
                            skip -= 1
                            continue
                        sidx = spop()
                        wapp(K_END | (expected << TAG_SHIFT) | (sidx << STATE_SHIFT))
                        top = states[-1]
                        row = top * stride
                        continue
                gt = find(b">", pos)
                if gt == -1:
                    if final:
                        raise XMLSyntaxError("unterminated tag", base + pos)
                    break
                name_b = buf[pos + 2 : gt]
                at = pos
                pos = gt + 1
                tid = ids.get(name_b)
                if tid is not None and stack and stack[-1] == tid:
                    pop()
                    seen += 1
                    cost += end_costs[tid]
                    text_run = False
                    if skip:
                        skip -= 1
                        continue
                    sidx = spop()
                    wapp(K_END | (tid << TAG_SHIFT) | (sidx << STATE_SHIFT))
                    top = states[-1]
                    row = top * stride
                    continue
                # Slow path: padded, uninterned or mismatched names.
                name = decode_utf8(name_b, base + at + 2).strip()
                if not valid_name(name):
                    raise XMLSyntaxError(f"malformed end tag </{name}>", base + at)
                if not stack:
                    raise XMLWellFormednessError(
                        f"unexpected closing tag </{name}>", base + at
                    )
                expected = pop()
                expected_name = (
                    tags.names[expected] if type(expected) is int else expected.decode("utf-8")
                )
                if expected_name != name:
                    raise XMLWellFormednessError(
                        f"mismatched closing tag </{name}>, expected </{expected_name}>",
                        base + at,
                    )
                seen += 1
                cost += len(name) + 3
                text_run = False
                if skip:
                    skip -= 1
                    continue
                sidx = spop()
                if type(expected) is int:
                    wapp(K_END | (expected << TAG_SHIFT) | (sidx << STATE_SHIFT))
                else:
                    encoded = name.encode("utf-8")
                    lead = at + 2 + name_b.find(encoded)
                    wapp(K_END_C | (sidx << STATE_SHIFT))
                    sapp(lead)
                    sapp(lead + len(encoded))
                top = states[-1]
                row = top * stride
                continue

            elif second == 63:  # '?'
                # --------------------------------------- processing instruction
                end = find(b"?>", pos)
                if end == -1:
                    if final:
                        raise XMLSyntaxError(
                            "unterminated processing instruction", base + pos
                        )
                    break
                pos = end + 2
                continue

            elif second == 33:  # '!'
                # ------------------------------- comment / CDATA / DOCTYPE
                if buf[pos : pos + 4] == b"<!--":
                    end = find(b"-->", pos)
                    if end == -1:
                        if final:
                            raise XMLSyntaxError("unterminated comment", base + pos)
                        break
                    pos = end + 3
                    continue
                sig = buf[pos : pos + 9]
                if sig == b"<![CDATA[":
                    end = find(b"]]>", pos)
                    if end == -1:
                        if final:
                            raise XMLSyntaxError("unterminated CDATA section", base + pos)
                        break
                    if not stack:
                        raise XMLWellFormednessError(
                            "CDATA outside the root element", base + pos
                        )
                    start = pos + 9
                    tend = end
                    pos = end + 3
                    raw = buf[start:tend]
                    if not raw or raw.isspace():
                        continue
                    if not raw.isascii() and decode_utf8(raw, base + start).isspace():
                        continue
                    add = tend - start
                    cost += add
                    if not text_run:
                        seen += 1
                        text_run = True
                    if skip:
                        continue
                    if chars_masks[top]:
                        wapp(K_CDATA | (top << STATE_SHIFT))
                        sapp(start)
                        sapp(tend)
                    continue
                if sig == b"<!DOCTYPE" or sig == b"<!doctype":
                    depth = 0
                    end = -1
                    for index in range(pos, length):
                        byte = buf[index]
                        if byte == 91:  # '['
                            depth += 1
                        elif byte == 93:  # ']'
                            depth -= 1
                        elif byte == 62 and depth <= 0:  # '>'
                            end = index
                            break
                    if end == -1:
                        if final:
                            raise XMLSyntaxError("unterminated DOCTYPE", base + pos)
                        break
                    pos = end + 1
                    continue
                if length - pos < 9 and not final:
                    break
                raise XMLSyntaxError("unsupported markup declaration", base + pos)

            else:
                # Rare openers (padded, ``:``-initial, digit or malformed
                # names): same generic start-tag path as uninterned tags.
                gt = find(b">", pos)
                if gt == -1:
                    if final:
                        raise XMLSyntaxError("unterminated tag", base + pos)
                    break
                raw = buf[pos + 1 : gt]
                at = pos
                pos = gt + 1

            # Generic start tag (fall-through from both start-tag branches):
            # self-closing tags, attributes, unseen/weird names.
            if 60 in raw or 39 in raw or raw.count(b'"') & 1:
                # The first '>' may sit inside a quoted value (an odd '"'
                # count, or any "'"): the tag ends at the first '>' outside
                # quotes.  No '<' may appear before it.
                match = _START_TAG_RE.match(buf, at)
                if match is None:
                    if final:
                        raise XMLSyntaxError("unterminated tag", base + at)
                    pos = at
                    break
                pos = match.end()
                raw = buf[at + 1 : pos - 1]
                if 60 in raw:
                    raise XMLSyntaxError(
                        "'<' inside a start tag", base + at + 1 + raw.index(b"<")
                    )
            self_closing = raw.endswith(b"/")
            body = raw[:-1] if self_closing else raw
            body_at = at + 1
            match = _SIMPLE_TAG_RE.match(body)
            if match is not None:
                name_b = match.group(1)
                tid = tags.intern(name_b)
                if tid != UNINTERNED and not self_closing and raw != name_b:
                    # Remember the padded spelling so re-occurrences take
                    # the fast path.
                    tags.alias(raw, tid)
                has_attrs = False
                name_span = (body_at + match.start(1), body_at + match.end(1))
            else:
                match = _NAME_PREFIX_RE.match(body)
                if match is not None:
                    name_b = match.group(1)
                    tid = tags.intern(name_b)
                    has_attrs = True
                    name_span = (body_at + match.start(1), body_at + match.end(1))
                else:
                    # Non-ASCII or malformed: parse the whole body now, so
                    # a malformed tag fails here and names come out whole.
                    name, attributes = parse_tag_body(
                        decode_utf8(body, base + body_at), base + at
                    )
                    name_b = name.encode("utf-8")
                    tid = tags.intern(name_b)
                    has_attrs = bool(attributes)
                    off = body.find(name_b)
                    name_span = (body_at + off, body_at + off + len(name_b))
            body_span = (body_at, body_at + len(body))
            children = ()
            if expand and has_attrs:
                # The attributes become leading subelements (rows emitted
                # below, after the element's own); the element itself is
                # accounted and emitted attribute-free.  Accounting is
                # pre-drop: what the reference event stream would count.
                name, attributes = parse_tag_body(
                    decode_utf8(body, base + body_at), base + at
                )
                has_attrs = False
                children = [
                    (expanded_attribute_name(name, attr), value)
                    for attr, value in attributes
                ]
                for child, value in children:
                    seen += 3 if value else 2
                    cost += 2 * len(child) + 5 + len(value)

            seen += 1
            text_run = False
            if has_attrs:
                cost += len(body) + 2
            elif tid != UNINTERNED:
                cost += start_costs[tid]
            else:
                cost += len(name_b) + 2
            if self_closing:
                seen += 1
                cost += end_costs[tid] if tid != UNINTERNED else len(name_b) + 3
            if not stack:
                if self._seen_root:
                    raise XMLWellFormednessError("multiple root elements", base + at)
                self._seen_root = True
            if not self_closing:
                push(tid if tid != UNINTERNED else bytes(name_b))
            if skip:
                if not self_closing:
                    skip += 1
                continue
            if tid != UNINTERNED:
                cell = cells[row + tid] if tid < stride else UNKNOWN
                if cell == UNKNOWN:
                    cell = fanout.resolve(top, tid)
                    cells, stride = fanout.layout
                    row = top * stride
            else:
                cell = fanout.resolve_name(top, name_b.decode("utf-8"))
            if cell == DROP:
                if not self_closing:
                    skip = 1
                continue
            if has_attrs or tid == UNINTERNED:
                span = body_span if has_attrs else name_span
                wapp(K_START_C | (cell << STATE_SHIFT))
                sapp(span[0])
                sapp(span[1])
            else:
                wapp((tid << TAG_SHIFT) | (cell << STATE_SHIFT))
            if children:
                self._emit_children(batch, children, cell)
                cells, stride = fanout.layout
                row = top * stride
            if self_closing:
                if tid != UNINTERNED:
                    wapp(K_END | (tid << TAG_SHIFT) | (cell << STATE_SHIFT))
                else:
                    wapp(K_END_C | (cell << STATE_SHIFT))
                    sapp(name_span[0])
                    sapp(name_span[1])
            else:
                spush(cell)
                top = cell
                row = top * stride
            continue

        self._skip = skip
        self._text_run = text_run
        batch.seen += seen
        batch.cost += cost
        batch.bulk += bulk
        if stop_root and not stack and self._seen_root:
            self._root_closed = True
        return pos

    def _emit_children(self, batch: SoABatch, children, parent: int) -> None:
        """Rows for the subelements ``expand_attrs`` makes of one tag's attributes.

        Each name takes a projection transition from the element's state
        ``parent`` like a real child tag would; a dropped one emits nothing.
        """
        tags = self.tags
        fanout = self.fanout
        for child, value in children:
            tid = tags.intern(child.encode("utf-8"))
            if tid != UNINTERNED:
                cell = fanout.resolve(parent, tid)
                triple = [tags.start_events[tid], tags.end_events[tid]]
            else:
                cell = fanout.resolve_name(parent, child)
                triple = [StartElement(child), EndElement(child)]
            if cell == DROP:
                continue
            if value and fanout.chars_masks[cell]:
                triple.insert(1, Characters(value))
            for event in triple:
                batch.words.append(K_EVENT | (cell << STATE_SHIFT))
                batch.spans.append(len(batch.events))
                batch.events.append(event)


def _plain_span(span: bytes, content: int):
    """``(events, bytes, packed)`` the token loop would count for a plain
    span, and the span with its blank text segments removed; ``None`` --
    leave it to the token loop -- unless the span is plain and expat
    accepts it as the content of a wrapper element (the module docstring's
    bulk rule says why that is exact).

    ``span`` runs from an element's start tag to an end tag of its name --
    one subtree, or a run of siblings -- and ``content`` is the start tag's
    length, already counted.  Each of the rest's ``tags`` is one event and
    every text segment before a tag one more unless it is empty or blank:
    the loop skips whitespace-only segments, events and bytes alike.
    """
    rest = span[content:]
    if not span.isascii() or b"&" in rest or b"/>" in rest:
        return None
    tags = rest.count(b"<")
    if rest.count(b">") != tags:
        return None
    skeleton = rest.translate(None, _NAME_BYTES)
    if skeleton.count(b"<>") + skeleton.count(b"</>") != tags:
        return None
    try:
        ParserCreate().Parse(b"<_>" + span + b"</_>", True)
    except ExpatError:
        return None
    packed = _BLANK_GAP_RE.sub(b"><", span)
    return 2 * tags - packed.count(b"><"), len(packed) - content, packed


__all__ = ["ByteScanner"]
