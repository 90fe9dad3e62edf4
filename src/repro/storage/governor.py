"""The memory governor: one hard byte budget for all buffers of a run.

A :class:`MemoryGovernor` owns

* the **budget** -- a global cap on resident (in-memory) buffered bytes,
* the **admission accounting** -- every byte charged to any
  :class:`~repro.storage.paged_buffer.PagedEventBuffer` is admitted here,
  through ``MemoryGovernor._admit``, once per page slice of a
  :meth:`~repro.engine.buffers.BufferManager.flush` (the charging rule
  itself is stated in :mod:`repro.engine.buffers`),
* the **replacement policy** -- an LRU over all *sealed* pages of all live
  buffers; when admission pushes the resident total over the budget, the
  coldest sealed pages are encoded
  (:mod:`repro.storage.codec`) and evicted to the
  :class:`~repro.storage.spill.SpillStore` until the total fits again,
* the **spill store** itself (one anonymous temp file, lazily created).

One governor may be shared by any number of buffer managers: the
multi-query engine passes a single governor to all N executor states so
the budget caps the *whole* shared pass, not each query separately.  The
governor keeps the global counters; per-query attribution (spill counts,
resident high-water) is recorded into each page's own
:class:`~repro.engine.stats.RunStatistics`.

Sealed pages are the preferred victims; when none are left and the budget
is still exceeded, the governor *force-seals* the least-recently-appended
open tail page and evicts it too (its buffer just starts a new tail on the
next slice).  Admission is therefore never refused, and the resident total
is at or under the budget after every admission however small the budget
is -- in the worst case every page holds one slice and the run degrades to
disk-speed rather than aborting.

What the cap covers: *buffered event bytes*, the quantity the paper's
figures report.  The events a batch appended and the next flush has not
admitted yet are that batch's own event objects, and the event list a
handler decodes from a paged buffer for one execution (like the engine's
own fixed structures) is transient; both are extra memory outside this
ledger, exactly as in the unbounded engine.

A spill I/O failure raises :class:`~repro.storage.spill.SpillError` out of
the admission or the read that hit it, and the run aborts.  The failed page
stays resident (a write) or spilled (a read), so the ledgers stay balanced
and releasing the run's buffers returns the governor to zero.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional

from repro.obs import recorder as _recorder
from repro.obs.metrics import global_registry
from repro.storage.codec import decode_events, encode_events
from repro.storage.spill import SpillStore

# Process-wide storage-layer telemetry (:mod:`repro.obs`).  Bumped only on
# the governor's cold paths -- per sealed page, eviction and fault, never
# per admitted page slice.
_metrics = global_registry()
_PAGES_SEALED = _metrics.counter(
    "repro.governor.pages_sealed.total", "Buffer pages sealed (admitted for eviction)"
)
_EVICTIONS = _metrics.counter(
    "repro.governor.evictions.total", "Pages evicted to the spill store"
)
_SPILL_BYTES = _metrics.counter(
    "repro.governor.spill_bytes.total", "Encoded bytes written to spill storage"
)
_FAULTS = _metrics.counter(
    "repro.governor.faults.total", "Spilled pages decoded back on buffer reads"
)

#: Default page size: small enough that a modest budget holds many pages,
#: large enough that codec and file overheads amortize.
DEFAULT_PAGE_BYTES = 16 * 1024

#: Pages never shrink below this, however tiny the budget.
MIN_PAGE_BYTES = 256


def _default_page_bytes(budget_bytes: Optional[int]) -> int:
    """Scale the page size down with small budgets so eviction has grains
    to work with (a 4 KiB budget is useless with 16 KiB pages)."""
    if budget_bytes is None:
        return DEFAULT_PAGE_BYTES
    return max(MIN_PAGE_BYTES, min(DEFAULT_PAGE_BYTES, budget_bytes // 8))


def parse_memory_budget(text: str) -> int:
    """Parse a human byte budget: ``1048576``, ``64k``, ``32M``, ``2g``."""
    raw = text.strip().lower()
    multiplier = 1
    for suffix, factor in (("k", 1024), ("m", 1024**2), ("g", 1024**3)):
        if raw.endswith(suffix):
            raw = raw[: -len(suffix)]
            multiplier = factor
            break
    try:
        value = int(float(raw) * multiplier)
    except (ValueError, OverflowError):  # OverflowError: 'inf', '1e999'
        raise ValueError(
            f"invalid memory budget {text!r}; expected bytes or a k/m/g suffix "
            "(e.g. 1048576, 64k, 32m)"
        ) from None
    if value <= 0:
        raise ValueError(f"memory budget must be positive, got {text!r}")
    return value


class MemoryGovernor:
    """Budget, admission accounting and LRU eviction for paged buffers."""

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        *,
        page_bytes: Optional[int] = None,
        spill_dir: Optional[str] = None,
    ):
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self.page_bytes = (
            _default_page_bytes(budget_bytes) if page_bytes is None else page_bytes
        )
        if self.page_bytes < 1:
            raise ValueError(f"page_bytes must be positive, got {self.page_bytes}")
        self.store = SpillStore(spill_dir)
        #: Optional victim-selection override: a callable receiving the
        #: sealed resident pages (LRU-first) and returning the page to
        #: evict next.  ``None`` keeps the default LRU policy.  The
        #: subscription server installs a heaviest-subscriber-first
        #: selector here so one hungry subscription spills before it can
        #: squeeze out its peers' working sets.
        self.victim_selector: Optional[Callable] = None
        #: Sealed, resident pages in least-recently-used-first order.
        self._lru: "OrderedDict" = OrderedDict()
        #: Open (still-growing) resident pages, least-recently-appended
        #: first -- the force-seal fallback pool.
        self._open_pages: "OrderedDict" = OrderedDict()
        self.resident_bytes = 0
        self.peak_resident_bytes = 0
        self.spill_count = 0
        self.fault_count = 0

    # ------------------------------------------------------------- factory

    def make_buffer(self, manager, name: str = ""):
        """Buffer factory hook for :class:`~repro.engine.buffers.BufferManager`."""
        from repro.storage.paged_buffer import PagedEventBuffer

        return PagedEventBuffer(manager, self, name=name)

    # ------------------------------------------------------- page protocol

    def open_page(self, page) -> None:
        """Register a buffer's fresh (growing) tail page.

        Open pages are kept in creation order -- a good-enough coldness
        proxy for the force-seal fallback that avoids an ordered-dict
        touch on every admission.
        """
        self._open_pages[page] = None

    def _admit(self, page, cost: int) -> None:
        """Admit ``cost`` bytes just charged to ``page`` (one page slice).

        The one admission entry point, called by
        :class:`~repro.storage.paged_buffer.PagedEventBuffer` once per page
        slice of a flush.  Evicts while the resident total is over budget,
        then samples the post-eviction resident peaks -- the residency the
        budget actually bounds -- and seals ``page`` once it holds
        ``page_bytes``.
        """
        self.resident_bytes += cost
        if self.budget_bytes is not None and self.resident_bytes > self.budget_bytes:
            self._enforce()
        if self.resident_bytes > self.peak_resident_bytes:
            self.peak_resident_bytes = self.resident_bytes
        stats = page.stats
        if stats.resident_bytes_current > stats.peak_resident_bytes:
            stats.peak_resident_bytes = stats.resident_bytes_current
        if page.cost >= self.page_bytes and not page.sealed:
            page.sealed = True
            self.seal(page)

    def seal(self, page) -> None:
        """A page became immutable: it is evictable from now on."""
        self._open_pages.pop(page, None)
        self._lru[page] = None
        _PAGES_SEALED.inc()
        _recorder.RECORDER.note("seal", page.cost)
        self._enforce()

    def read_page(self, page) -> List["object"]:
        """The events of a page -- resident directly, spilled via a
        transient decode that does not re-admit the page (reads never grow
        the resident total, so the budget holds during materialization)."""
        events = page.events
        if events is not None:
            if page in self._lru:
                self._lru.move_to_end(page)
            return events
        payload = self.store.read(page.handle, page.owner.variable)
        self.fault_count += 1
        _FAULTS.inc()
        _recorder.RECORDER.note("fault", len(payload))
        page.stats.record_page_fault(len(payload))
        return decode_events(payload)

    def discard(self, page) -> None:
        """A buffer released this page: drop it from memory and disk."""
        if page.events is not None:
            self._lru.pop(page, None)
            self._open_pages.pop(page, None)
            self.resident_bytes -= page.cost
            page.events = None
        if page.handle is not None:
            self.store.free(page.handle)
            page.handle = None

    # ----------------------------------------------------------- eviction

    def _enforce(self) -> None:
        if self.budget_bytes is None:
            return
        while self.resident_bytes > self.budget_bytes:
            if self._lru:
                selector = self.victim_selector
                if selector is not None:
                    page = selector(self._lru.keys())
                    del self._lru[page]
                else:
                    page, _ = self._lru.popitem(last=False)
            elif self._open_pages:
                # No sealed victims left: force-seal the coldest open tail
                # page.  Its buffer starts a fresh tail on its next slice.
                page, _ = self._open_pages.popitem(last=False)
                page.sealed = True
            else:
                break
            self._evict(page)

    def _evict(self, page) -> None:
        payload = encode_events(page.events)
        page.handle = self.store.write(payload, page.owner.variable)
        page.events = None
        self.resident_bytes -= page.cost
        self.spill_count += 1
        _EVICTIONS.inc()
        _SPILL_BYTES.inc(len(payload))
        _recorder.RECORDER.note("evict", page.cost, len(payload))
        page.owner.spilled_bytes += len(payload)
        page.owner.spill_count += 1
        page.stats.record_spill(page.cost, len(payload))

    # ---------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release the spill file.  Idempotent; live pages become unreadable."""
        self._lru.clear()
        self._open_pages.clear()
        self.store.close()

    def __enter__(self) -> "MemoryGovernor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------- telemetry

    def telemetry(self) -> dict:
        """Global counters of the whole (possibly multi-query) pass."""
        return {
            "budget_bytes": self.budget_bytes,
            "page_bytes": self.page_bytes,
            "resident_bytes": self.resident_bytes,
            "peak_resident_bytes": self.peak_resident_bytes,
            "spill_count": self.spill_count,
            "fault_count": self.fault_count,
            "spilled_bytes_written": self.store.bytes_written,
            "spilled_bytes_read": self.store.bytes_read,
            "spill_live_bytes": self.store.live_bytes,
        }
