"""Integer interning of tag names for the bytes-native scanner.

Tag *names* are interned into dense integer ids.  Everything
downstream -- the struct-of-arrays batches, the flat projection table, the
per-element well-formedness stack -- then works on small ints instead of
strings, and the shared :class:`~repro.xmlstream.events.StartElement` /
:class:`~repro.xmlstream.events.EndElement` objects are built exactly once
per distinct tag.

A :class:`TagTable` is owned by one engine (or one multi-query fan-out) and
shared by all of its runs; real vocabularies are tiny, so the table warms up
within the first few kilobytes of the first document.  A hard cap
(:data:`TAG_TABLE_LIMIT`) guards against adversarial documents with
unbounded tag sets: tags past the cap are *not* interned -- the scanner
falls back to span-carrying rows for them (see
:mod:`repro.fastpath.scanner`), so memory stays bounded at the cost of
per-occurrence parsing.
"""

from __future__ import annotations

import threading
from typing import Dict, List

from repro.xmlstream.events import EndElement, StartElement

#: Upper bound on interned tags (bounded memory on adversarial
#: vocabularies); must not evict -- ids are baked into batches and the flat
#: projection table.
TAG_TABLE_LIMIT = 1 << 16

#: Sentinel id for tags past the cap (never a valid index).
UNINTERNED = -1

#: Cell values of the flat transition table these ids index (see
#: :mod:`repro.pipeline.fanout`): every slot drops the subtree rooted at the
#: tag, or the cell is not computed yet.  They live here, beside the ids,
#: because the scanner imports nothing from :mod:`repro.pipeline` (which
#: imports this package).
DROP = -1
UNKNOWN = -2


class TagTable:
    """Dense ``bytes`` -> ``int`` interning of tag names (engine-shared).

    ``ids`` maps raw name bytes (plus whitespace-padded aliases added by the
    scanner) to ids; ``names`` / ``start_events`` / ``end_events`` /
    ``start_costs`` / ``end_costs`` are indexed by id.  Lookups are
    lock-free; the miss path takes a lock so concurrent runs can share one
    table.
    """

    __slots__ = (
        "ids",
        "names",
        "start_events",
        "end_events",
        "start_costs",
        "end_costs",
        "end_pats",
        "limit",
        "_lock",
    )

    def __init__(self, limit: int = TAG_TABLE_LIMIT):
        self.ids: Dict[bytes, int] = {}
        self.names: List[str] = []
        self.start_events: List[StartElement] = []
        self.end_events: List[EndElement] = []
        self.start_costs: List[int] = []  # StartElement.cost_in_bytes()
        self.end_costs: List[int] = []  # EndElement.cost_in_bytes()
        self.end_pats: List[bytes] = []  # b"</name>" -- the scanner's expected
        # end tag for the open element, matched with a range-bounded find
        self.limit = limit
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.names)

    def intern(self, raw: bytes) -> int:
        """Return the id of the tag named by ``raw``: the exact UTF-8 bytes of
        a name the scanner has validated, no padding.

        Returns :data:`UNINTERNED` once the table is full.
        """
        tid = self.ids.get(raw)
        if tid is not None:
            return tid
        name = raw.decode("utf-8")
        with self._lock:
            tid = self.ids.get(raw)
            if tid is not None:
                return tid
            if len(self.names) >= self.limit:
                return UNINTERNED
            tid = len(self.names)
            self.names.append(name)
            self.start_events.append(StartElement(name))
            self.end_events.append(EndElement(name))
            self.start_costs.append(len(name) + 2)
            self.end_costs.append(len(name) + 3)
            self.end_pats.append(b"</" + bytes(raw) + b">")
            self.ids[raw] = tid
            return tid

    def alias(self, raw: bytes, tid: int) -> None:
        """Map an alternate raw spelling (e.g. ``b"name "``) to an id.

        Bounded: alias entries share the interning cap, so adversarial
        padding cannot grow ``ids`` without limit.
        """
        with self._lock:
            if len(self.ids) < 2 * self.limit:
                self.ids[raw] = tid

    def name_of(self, entry) -> str:
        """Decode a well-formedness stack entry (id or raw bytes) to a name."""
        if isinstance(entry, int):
            return self.names[entry]
        return entry.decode("utf-8", "replace")


__all__ = ["TagTable", "TAG_TABLE_LIMIT", "UNINTERNED", "DROP", "UNKNOWN"]
