"""A spillable event buffer with the :class:`EventBuffer` surface.

:class:`PagedEventBuffer` is a drop-in replacement for
:class:`~repro.engine.buffers.EventBuffer` produced by the
:meth:`~repro.storage.governor.MemoryGovernor.make_buffer` factory.  The
executor appends to it, handlers read its events, and the scope release
frees it exactly as before, under the charging rule stated in
:mod:`repro.engine.buffers`.  The difference is purely internal:

* a flush cuts the new events into **pages** of roughly
  ``governor.page_bytes`` logical bytes and charges and admits them one
  page slice at a time.  A page that reaches the limit is *sealed*
  (immutable) and handed to the governor's LRU; later slices go to a fresh
  tail page,
* the governor may **evict** sealed pages to the spill store at any
  admission; reading the buffer (``events``, which a handler reads once
  per execution) decodes spilled pages transparently, one page at a time,
  without re-admitting them -- resident memory stays under the budget
  even while a larger-than-budget buffer is being read,
* logical accounting (``record_buffered`` / ``record_freed``, the
  quantities the paper's figures report) is byte-identical to the plain
  buffer; residency, spills and faults are tracked separately.  A raw
  content item is never split across pages, so a page may overshoot the
  limit by up to one item, as it may by one long text.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.xmlstream.events import Event, RawContent


class Page:
    """One contiguous slice of a buffer's events.

    ``events`` is the resident list, or ``None`` once the page is spilled
    (then ``handle`` addresses the payload in the spill store).  ``cost``
    and ``count`` are the slice's logical totals; ``stats`` is the owning
    run's statistics, where spills and faults of this page are attributed,
    and ``owner`` the buffer's attribution ledger (spilled bytes are
    charged to it when the governor evicts the page).
    """

    __slots__ = ("events", "count", "cost", "sealed", "handle", "stats", "owner")

    def __init__(self, stats, owner):
        self.events: Optional[List[Event]] = []
        self.count = 0
        self.cost = 0
        self.sealed = False
        self.handle = None
        self.stats = stats
        self.owner = owner


class PagedEventBuffer:
    """A list of SAX events split into governor-managed pages."""

    def __init__(self, manager, governor, name: str = ""):
        self._manager = manager
        self._stats = manager.stats
        self._owner = manager.attribution.ledger(name)
        self._governor = governor
        self._page_bytes = governor.page_bytes
        self._pages: List[Page] = []
        self._open: Optional[Page] = None
        # Appended since the last flush, not charged yet.
        self._pending: List[Event] = []
        self._dirty = False
        # Charged totals.
        self._count = 0
        self._cost = 0
        self._released = False
        self.name = name

    # -------------------------------------------------------------- access

    def __len__(self) -> int:
        self._manager.flush()
        return self._count

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    @property
    def events(self) -> List[Event]:
        """The buffered events as one freshly-materialized list.

        Flushes the manager, then reads every page (spilled pages are
        decoded transiently).  Unlike :class:`EventBuffer`, the returned
        list is a *copy*: mutating it does not drain the buffer.
        """
        self._manager.flush()
        events: List[Event] = []
        read = self._governor.read_page
        for page in self._pages:
            events += read(page)
        return events

    @property
    def cost_bytes(self) -> int:
        """Logical memory footprint of the charged events (spilled or not)."""
        return self._cost

    @property
    def resident_bytes(self) -> int:
        """Bytes of this buffer currently held in memory."""
        return sum(page.cost for page in self._pages if page.events is not None)

    @property
    def spilled_pages(self) -> int:
        """Number of this buffer's pages currently on disk."""
        return sum(1 for page in self._pages if page.events is None)

    # ------------------------------------------------------------ mutation

    def append(self, event: Event) -> None:
        """Append one event; it is charged at the manager's next flush."""
        if self._released:
            raise RuntimeError(f"buffer {self.name!r} was already released")
        self._pending.append(event)
        if not self._dirty:
            self._dirty = True
            self._manager.dirty.append(self)

    def extend(self, events: Iterable[Event]) -> None:
        """Append several events."""
        for event in events:
            self.append(event)

    def _charge(self) -> None:
        """Charge and admit the pending events (manager only).

        The events are cut into page slices by the ``page_bytes`` rule (a
        page is full once its cost reaches the limit).  Each slice updates
        the owner ledger, then ``record_buffered`` (which snapshots the
        owner composition at a new peak), then the governor's admission --
        so a spill failure inside an admission leaves every ledger
        balanced, with the slice resident; the slices after it are
        abandoned with the rest of the batch (``BufferManager.flush``).
        """
        self._dirty = False
        pending = self._pending
        self._pending = []
        total = len(pending)
        start = 0
        stats = self._stats
        owner = self._owner
        charge = self._manager._notify_charge
        governor = self._governor
        while start < total:
            page = self._open
            if page is None or page.sealed:
                # No tail yet, or the tail filled up or was force-sealed
                # (and evicted) to meet the budget: start a fresh page.
                page = self._open = Page(stats, owner)
                self._pages.append(page)
                governor.open_page(page)
            room = self._page_bytes - page.cost
            cost = 0
            count = 0
            stop = start
            while stop < total:
                event = pending[stop]
                cost += event.cost_in_bytes()
                count += event.count if event.__class__ is RawContent else 1
                stop += 1
                if cost >= room:
                    break
            page.events += pending[start:stop]
            page.count += count
            page.cost += cost
            self._count += count
            self._cost += cost
            charge(count, cost, owner=owner, settle_resident=False)
            governor._admit(page, cost)
            start = stop

    def release(self) -> None:
        """Free the buffer (when its variable scope ends).

        Flushes the whole manager first, then frees the charged totals in
        full -- whether a page is resident, spilled or already faulted
        back makes no difference to the freed counts -- while the resident
        decrement covers only the bytes actually still in memory.  The
        buffer is freed even when that flush fails (a spill error), so an
        aborting run can still balance every ledger.
        """
        if self._released:
            return
        try:
            self._manager.flush()
        finally:
            self._released = True
            self._pending = []
            self._manager._notify_release(
                self._count, self._cost, self.resident_bytes, owner=self._owner
            )
            discard = self._governor.discard
            for page in self._pages:
                discard(page)
            self._pages = []
            self._open = None
            self._count = 0
            self._cost = 0
