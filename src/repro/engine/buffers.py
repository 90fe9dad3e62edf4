"""SAX-event buffers with byte/event accounting.

Buffers are lists of events (Section 5: "Buffers are implemented as lists
of SAX events"), and that is also the only form they are read in: a
compiled handler body takes a buffer's ``events`` once per execution and
walks them (:mod:`repro.engine.xquery_exec`); no tree is built.

One :class:`EventBuffer` is a list of :class:`Page` objects.  Without a
memory governor it has one page that is never sealed, and ``events`` is
that page's own list.  With a
:class:`~repro.storage.governor.MemoryGovernor` (passed to the
:class:`BufferManager`), a flush cuts the new events into slices of
``governor.page_bytes`` and admits each one; the governor only decides
which pages stay resident and evicts sealed ones to disk, and ``events``
reads every page back through it -- the executor never knows the
difference.

**The charging rule**: an append only appends and marks the buffer dirty;
the shared :class:`BufferManager` *charges* the new events later, when
:meth:`BufferManager.flush` runs -- one owner ledger update and one
``record_buffered`` per dirty buffer, or per page slice under a governor,
which then admits the slice (evicting if over budget).  A page is full
once its cost reaches ``page_bytes`` and is sealed; a raw content item is
never split, so a page may overshoot by one item, as it may by one long
text.  The executor flushes at the end of every batch, before it reads
any buffer, and in ``finish``; every governed read and every release flush
the whole manager first.  Buffered totals only grow between flushes, so
the current and peak totals (and the owner composition at the peak) the
benchmark harness and the zero-buffering assertions read are exactly the
per-append values -- live readers such as ``/progress`` see them at most
one batch behind.

A :class:`~repro.xmlstream.events.RawContent` item -- an opaque element's
content, appended as one item -- counts as the events it stands for: its
``count`` events and their summed cost (its text's length), so buffer
totals and peaks are the same whether or not the scanner took it raw.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.engine.stats import RunStatistics
from repro.obs.attrib import BufferAttribution, OwnerLedger
from repro.xmlstream.events import Event, RawContent


class BufferManager:
    """Tracks aggregate buffer usage across all live buffers of one run.

    ``governor`` is the :class:`~repro.storage.governor.MemoryGovernor` the
    run's buffers page under; ``None`` keeps every buffer on the heap.
    """

    def __init__(self, stats: Optional[RunStatistics] = None, *, governor=None):
        self.stats = stats or RunStatistics()
        # One attribution ledger per RunStatistics: buffers charge their
        # owner transactionally with every append/release, and the stats
        # object snapshots the per-owner composition at each new peak.
        if self.stats.attribution is None:
            self.stats.attribution = BufferAttribution()
        self.attribution = self.stats.attribution
        self.governor = governor
        self._live_buffers = 0
        #: Buffers appended to since the last flush, in first-append order
        #: (callers may skip a :meth:`flush` while it is empty).
        self.dirty: List["EventBuffer"] = []

    def create_buffer(self, name: str = "", *, source=None, scope: str = "") -> "EventBuffer":
        """Create a new, empty buffer registered with this manager.

        ``source`` is the compiled plan object the buffer serves (a
        ``ScopeSpec`` or a deferred ``StreamCopyAction``) and ``scope`` the
        element name it is opened under -- both feed the attribution
        ledger's human-readable *reason*.
        """
        owner = self.attribution.ledger(name, source=source, scope=scope)
        owner.buffers_created += 1
        self._live_buffers += 1
        return EventBuffer(self, name=name)

    @property
    def live_buffers(self) -> int:
        """Number of buffers created and not yet released."""
        return self._live_buffers

    def flush(self) -> None:
        """Charge every dirty buffer's uncharged events.

        Charging all of them -- never only the buffer about to be
        released -- is what keeps the at-peak owner composition exact: the
        global byte peak is only reached once every pending event is
        charged, so :meth:`~repro.obs.attrib.BufferAttribution.snapshot_peak`
        sees each owner's full live bytes.

        A charge that fails (a governor's spill error) abandons the
        rest of the batch: the run aborts, and its releases free exactly
        what was charged, with nothing left to admit.
        """
        dirty = self.dirty
        if dirty:
            self.dirty = []
            for buffer in dirty:
                buffer._charge()

    def _notify_charge(
        self, count: int, cost: int, *, owner: OwnerLedger, settle_resident: bool = True
    ) -> None:
        """Charge newly flushed events to ``owner`` and to the run (buffers only).

        Owner ledger first, stats second: ``record_buffered`` snapshots the
        per-owner composition when it sets a new peak, so the owner's live
        bytes must already include these events.
        """
        owner.live_bytes += cost
        owner.live_events += count
        owner.total_bytes += cost
        owner.total_events += count
        if owner.live_bytes > owner.peak_bytes:
            owner.peak_bytes = owner.live_bytes
        self.stats.record_buffered(count, cost, settle_resident)

    def _notify_release(
        self,
        count: int,
        cost: int,
        resident: Optional[int] = None,
        *,
        owner: Optional[OwnerLedger] = None,
    ) -> None:
        """Free a released buffer's charged totals from ``owner`` and the run."""
        # With N executor states running concurrently (multi-query mode),
        # a negative count would silently poison every shared debugging
        # readout -- fail loudly at the first unbalanced release instead.
        if self._live_buffers <= 0:
            raise RuntimeError(
                "buffer release without a matching create: live_buffers would go negative"
            )
        if owner is not None:
            owner.live_bytes -= cost
            owner.live_events -= count
        self.stats.record_freed(count, cost, resident=resident)
        self._live_buffers -= 1




class Page:
    """One contiguous slice of a buffer's events.

    ``events`` is the resident list, or ``None`` once the page is spilled
    (then ``handle`` addresses the payload in the spill store).  ``cost``
    and ``count`` are the slice's logical totals; ``stats`` is the owning
    run's statistics, where spills and faults of this page are attributed,
    and ``owner`` the buffer's attribution ledger (spilled bytes are
    charged to it when the governor evicts the page).
    """

    __slots__ = (
        "events",
        "count",
        "cost",
        "sealed",
        "handle",
        "stats",
        "owner",
    )

    def __init__(self, stats, owner):
        self.events: Optional[List[Event]] = []
        self.count = 0
        self.cost = 0
        self.sealed = False
        self.handle = None
        self.stats = stats
        self.owner = owner


class EventBuffer:
    """A list of SAX events belonging to one variable scope, kept in pages."""

    def __init__(self, manager: BufferManager, name: str = ""):
        self._manager = manager
        self._governor = governor = manager.governor
        self._owner = owner = manager.attribution.ledger(name)
        # ``_open`` is the page the next slice goes to (``None``, or sealed:
        # start one).  Appends go to ``_tail``: without a governor the one
        # page's own list, whose items from index ``_charged`` on are not
        # charged yet; with one, the events appended since the last flush.
        if governor is None:
            self._open: Optional[Page] = Page(manager.stats, owner)
            self._pages: List[Page] = [self._open]
            self._tail: List[Event] = self._open.events
        else:
            self._open = None
            self._pages = []
            self._tail = []
        self._charged = 0
        self._dirty = False
        self._released = False
        self.name = name

    # -------------------------------------------------------------- access

    def __iter__(self):
        return iter(self.events)

    @property
    def events(self) -> List[Event]:
        """The buffered events (read-only by convention).

        Without a governor this is the one page's live list, uncharged
        appends included; :meth:`release` stays balanced even for a
        consumer that drains it in place.  With one, the manager is
        flushed and every page is read through the governor (spilled pages
        are decoded transiently) into a fresh list.
        """
        governor = self._governor
        if governor is None:
            return self._tail
        self._manager.flush()
        events: List[Event] = []
        read = governor.read_page
        for page in self._pages:
            events += read(page)
        return events

    @property
    def cost_bytes(self) -> int:
        """Logical memory footprint of the charged events (spilled or not)."""
        return sum(page.cost for page in self._pages)

    @property
    def resident_bytes(self) -> int:
        """Charged bytes of this buffer currently held in memory."""
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
        self._tail.append(event)
        if not self._dirty:
            self._dirty = True
            self._manager.dirty.append(self)

    def extend(self, events: Iterable[Event]) -> None:
        """Append several events."""
        for event in events:
            self.append(event)

    def _charge(self) -> None:
        """Charge the events appended since the last flush (manager only).

        Without a governor, they are already in the one page.  With one,
        they are cut into page slices; each slice updates the owner
        ledger, then ``record_buffered`` (which snapshots the owner
        composition at a new peak), then the governor's admission -- so a
        spill failure inside an admission leaves every ledger balanced,
        with the slice resident; the slices after it are abandoned with
        the rest of the batch (``BufferManager.flush``).
        """
        self._dirty = False
        governor = self._governor
        if governor is None:
            events = self._tail
            count = len(events) - self._charged
            cost = 0
            for event in events[self._charged :]:
                cost += event.cost_in_bytes()
                if event.__class__ is RawContent:
                    count += event.count - 1
            self._charged = len(events)
            page = self._open
            page.count += count
            page.cost += cost
            self._manager._notify_charge(count, cost, owner=self._owner)
            return
        pending = self._tail
        self._tail = []
        total = len(pending)
        start = 0
        stats = self._manager.stats
        owner = self._owner
        charge = self._manager._notify_charge
        page_bytes = governor.page_bytes
        while start < total:
            page = self._open
            if page is None or page.sealed:
                # No tail yet, or the tail filled up or was force-sealed
                # (and evicted) to meet the budget: start a fresh page.
                page = self._open = Page(stats, owner)
                self._pages.append(page)
                governor.open_page(page)
            room = page_bytes - page.cost
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
            charge(count, cost, owner=owner, settle_resident=False)
            governor._admit(page, cost)
            start = stop

    def release(self) -> None:
        """Free the buffer (when its variable scope ends).

        Flushes the whole manager first, then frees exactly the pages'
        charged totals, *not* the current length of the event list -- a
        caller that drained part of the exposed list still sees a balanced
        release -- and whether a page is resident, spilled or faulted back
        makes no difference to them; the resident decrement covers only
        the bytes still in memory.  The buffer is freed even when that
        flush fails (a spill error), so an aborting run can still balance
        every ledger.
        """
        if self._released:
            return
        try:
            self._manager.flush()
        finally:
            self._released = True
            pages = self._pages
            governor = self._governor
            if governor is None:
                page = pages[0]
                self._manager._notify_release(page.count, page.cost, owner=self._owner)
            else:
                self._manager._notify_release(
                    sum(page.count for page in pages),
                    self.cost_bytes,
                    self.resident_bytes,
                    owner=self._owner,
                )
                for page in pages:
                    governor.discard(page)
            self._tail = []
            self._charged = 0
            self._pages = []
            self._open = None
