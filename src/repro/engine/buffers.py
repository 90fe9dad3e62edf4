"""SAX-event buffers with byte/event accounting.

Buffers are plain lists of events (Section 5: "Buffers are implemented as
lists of SAX events"), and that is also the only form they are read in: a
handler takes a buffer's ``events`` once per execution and walks them
(:mod:`repro.engine.xquery_exec`); no tree is built.

The manager's buffer *class* is pluggable: a ``factory`` callable
``(manager, name) -> buffer`` swaps the plain in-heap :class:`EventBuffer`
for any object with the same surface.  The bounded-memory subsystem uses
this to substitute :class:`~repro.storage.paged_buffer.PagedEventBuffer`,
whose pages a shared :class:`~repro.storage.governor.MemoryGovernor` may
spill to disk -- the executor never knows the difference.

**The charging rule**, the same for both classes: an append only appends
and marks the buffer dirty; the shared :class:`BufferManager` *charges* the
new events later, when :meth:`BufferManager.flush` runs -- one owner ledger
update and one ``record_buffered`` per dirty plain buffer, and per page
slice of a paged one, which the governor admits (evicting if over budget)
right after.  The executor flushes at the end of every batch, before it
reads any buffer, and in ``finish``; every read of a paged buffer and
every release flush the whole manager first.  Buffered totals only grow
between flushes, so the current and peak totals (and the owner
composition at the peak) the benchmark harness and the zero-buffering
assertions read are exactly the per-append values -- live readers such as
``/progress`` see them at most one batch behind.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.engine.stats import RunStatistics
from repro.obs.attrib import BufferAttribution
from repro.xmlstream.events import Event

#: Signature of a pluggable buffer factory.
BufferFactory = Callable[["BufferManager", str], "EventBuffer"]


class BufferManager:
    """Tracks aggregate buffer usage across all live buffers of one run."""

    def __init__(
        self,
        stats: Optional[RunStatistics] = None,
        *,
        factory: Optional[BufferFactory] = None,
    ):
        self.stats = stats or RunStatistics()
        # One attribution ledger per RunStatistics: buffers charge their
        # owner transactionally with every append/release, and the stats
        # object snapshots the per-owner composition at each new peak.
        if self.stats.attribution is None:
            self.stats.attribution = BufferAttribution()
        self.attribution = self.stats.attribution
        self._factory = factory
        self._live_buffers = 0
        # Buffers appended to since the last flush, in first-append order.
        self._dirty: List["EventBuffer"] = []

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
        if self._factory is not None:
            return self._factory(self, name)
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

        A charge that fails (a paged buffer's spill error) abandons the
        rest of the batch: the run aborts, and its releases free exactly
        what was charged, with nothing left to admit.
        """
        dirty = self._dirty
        if dirty:
            self._dirty = []
            for buffer in dirty:
                buffer._charge()

    def _notify_release(self, count: int, cost: int, resident: Optional[int] = None) -> None:
        # With N executor states running concurrently (multi-query mode),
        # a negative count would silently poison every shared debugging
        # readout -- fail loudly at the first unbalanced release instead.
        if self._live_buffers <= 0:
            raise RuntimeError(
                "buffer release without a matching create: live_buffers would go negative"
            )
        self.stats.record_freed(count, cost, resident=resident)
        self._live_buffers -= 1


class EventBuffer:
    """A list of SAX events belonging to one variable scope."""

    def __init__(self, manager: BufferManager, name: str = ""):
        self._manager = manager
        self._owner = manager.attribution.ledger(name)
        self._events: List[Event] = []
        # Charged totals: the events before index ``_count`` are charged.
        self._count = 0
        self._cost = 0
        self._dirty = False
        self._released = False
        self.name = name

    # -------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    @property
    def events(self) -> List[Event]:
        """The buffered events (read-only view by convention).

        This is the live list; mutating it is not part of the contract,
        but :meth:`release` stays balanced even for a consumer that
        drains it in place after a flush.  (The spillable paged buffer
        returns a materialized *copy* here -- do not rely on mutation.)
        """
        return self._events

    @property
    def cost_bytes(self) -> int:
        """Approximate memory footprint of the charged (flushed) events."""
        return self._cost

    # ------------------------------------------------------------ mutation

    def append(self, event: Event) -> None:
        """Append one event; it is charged at the manager's next flush."""
        if self._released:
            raise RuntimeError(f"buffer {self.name!r} was already released")
        self._events.append(event)
        if not self._dirty:
            self._dirty = True
            self._manager._dirty.append(self)

    def _charge(self) -> None:
        """Charge the events appended since the last flush (manager only)."""
        self._dirty = False
        events = self._events
        count = len(events) - self._count
        cost = 0
        for event in events[self._count :]:
            cost += event.cost_in_bytes()
        self._count += count
        self._cost += cost
        # Owner ledger first, stats second: record_buffered snapshots the
        # per-owner composition when it sets a new peak, so the owner's
        # live bytes must already include these events.
        owner = self._owner
        owner.live_bytes += cost
        owner.live_events += count
        owner.total_bytes += cost
        owner.total_events += count
        if owner.live_bytes > owner.peak_bytes:
            owner.peak_bytes = owner.live_bytes
        self._manager.stats.record_buffered(count, cost)

    def extend(self, events: Iterable[Event]) -> None:
        """Append several events."""
        for event in events:
            self.append(event)

    def release(self) -> None:
        """Free the buffer (when its variable scope ends).

        Flushes the whole manager first, then frees exactly the charged
        totals (``_count`` / ``_cost``), *not* the current length of the
        event list: a caller that drained part of the exposed list must
        still see a release whose freed events and bytes match what was
        charged, or the manager's fail-loud guards fire on a phantom
        imbalance.
        """
        if self._released:
            return
        self._manager.flush()
        self._released = True
        owner = self._owner
        owner.live_bytes -= self._cost
        owner.live_events -= self._count
        self._manager._notify_release(self._count, self._cost)
        self._events = []
        self._count = 0
        self._cost = 0
