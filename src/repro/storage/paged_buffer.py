"""A spillable event buffer with the :class:`EventBuffer` surface.

:class:`PagedEventBuffer` is a drop-in replacement for
:class:`~repro.engine.buffers.EventBuffer` produced by the
:meth:`~repro.storage.governor.MemoryGovernor.make_buffer` factory.  The
executor appends to it, handlers read its events, and the scope release
frees it exactly as before; the difference is purely internal:

* contents are split into **pages** of roughly ``governor.page_bytes``
  logical bytes.  A page that reaches the limit is *sealed* (immutable)
  and handed to the governor's LRU; appends continue on a fresh tail page,
* the governor may **evict** sealed pages to the spill store at any time;
  reading the buffer (iteration, or ``events``, which a handler reads
  once per execution) decodes spilled pages transparently, one page at a
  time, without re-admitting them -- resident memory stays under the
  budget even while a larger-than-budget buffer is being read,
* logical accounting (``record_buffered`` / ``record_freed``, the
  quantities the paper's figures report) is byte-identical to the plain
  buffer; residency, spills and faults are tracked separately.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.xmlstream.events import Event


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

    def __init__(self, stats, owner=None):
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
        self._count = 0
        self._cost = 0
        self._released = False
        self.name = name

    # -------------------------------------------------------------- access

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Event]:
        read = self._governor.read_page
        for page in self._pages:
            yield from read(page)

    @property
    def events(self) -> List[Event]:
        """The buffered events as one freshly-materialized list.

        Materializes every page (spilled pages are decoded transiently);
        prefer iteration on hot paths.  Unlike :class:`EventBuffer`, the
        returned list is a *copy*: mutating it does not drain the buffer.
        """
        return list(self)

    @property
    def cost_bytes(self) -> int:
        """Logical memory footprint of the buffered events (spilled or not)."""
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
        """Append one event (possibly sealing the tail page).

        This is the paged hot path, and the single place admission lives:
        admit the bytes, let the governor evict if over budget, then
        sample the post-eviction resident peaks -- inlined (no governor
        call) to keep the tax of a budget that never spills small.
        """
        if self._released:
            raise RuntimeError(f"buffer {self.name!r} was already released")
        page = self._open
        if page is None or page.sealed:
            # No tail yet, or the governor force-sealed (and evicted) the
            # previous tail to meet the budget: start a fresh page.
            page = Page(self._stats, self._owner)
            self._pages.append(page)
            self._open = page
            self._governor.open_page(page)
        cost = event.cost_in_bytes()
        page.events.append(event)
        page.count += 1
        page.cost += cost
        self._count += 1
        self._cost += cost
        stats = self._stats
        # Owner ledger before record_buffered: a fresh byte peak snapshots
        # the per-owner composition, which must already include this event.
        owner = self._owner
        owner.live_bytes += cost
        owner.live_events += 1
        owner.total_bytes += cost
        owner.total_events += 1
        if owner.live_bytes > owner.peak_bytes:
            owner.peak_bytes = owner.live_bytes
        stats.record_buffered(1, cost, False)
        governor = self._governor
        governor.resident_bytes += cost
        if governor.budget_bytes is not None and governor.resident_bytes > governor.budget_bytes:
            governor._enforce()
        if governor.resident_bytes > governor.peak_resident_bytes:
            governor.peak_resident_bytes = governor.resident_bytes
        if stats.resident_bytes_current > stats.peak_resident_bytes:
            stats.peak_resident_bytes = stats.resident_bytes_current
        if page.cost >= self._page_bytes and not page.sealed:
            page.sealed = True
            self._open = None
            self._governor.seal(page)

    def extend(self, events: Iterable[Event]) -> None:
        """Append several events."""
        for event in events:
            self.append(event)

    def release(self) -> None:
        """Free the buffer (when its variable scope ends).

        The logical totals recorded at append time are freed in full --
        whether a page is resident, spilled or already faulted back makes
        no difference to the freed counts -- while the resident decrement
        covers only the bytes actually still in memory.
        """
        if self._released:
            return
        self._released = True
        resident = self.resident_bytes
        owner = self._owner
        owner.live_bytes -= self._cost
        owner.live_events -= self._count
        self._manager._notify_release(self._count, self._cost, resident=resident)
        discard = self._governor.discard
        for page in self._pages:
            discard(page)
        self._pages = []
        self._open = None
        self._count = 0
        self._cost = 0
