"""Runtime statistics.

The paper's evaluation (Figure 4) reports execution time and *maximum memory
consumption*, where memory means the data buffered by the engine (the JVM
overhead is excluded).  :class:`RunStatistics` captures the analogous
quantities for this implementation:

* ``peak_buffered_events`` / ``peak_buffered_bytes`` -- high-water mark of the
  SAX-event buffers (the quantity the scheduling is designed to minimise),
* ``peak_condition_bytes`` -- high-water mark of the per-scope condition
  value/flag store (the "Boolean flag" store of Section 5; reported
  separately because the paper does not count it as buffering),
* event and byte counters for the input and the output,
* ``peak_resident_bytes`` plus the spill counters -- the bounded-memory
  extension (:mod:`repro.storage`).  *Buffered* bytes are the logical
  quantity the paper reports and are unaffected by spilling; *resident*
  bytes are the part of them actually held in memory.  Without a memory
  governor the two are always equal.

Recording is *batch-aware*: the pipeline calls :meth:`RunStatistics.record_input`
once per event batch (one bounded chunk of the document), not once per
token, so statistics cost a few integer additions per chunk on the hot
path.  Input counters always describe the document as read: the document
pass records its pre-drop totals for every seat, filtered or not, and the
executor counts no input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class RunStatistics:
    """Counters collected while executing a query."""

    input_events: int = 0
    input_bytes: int = 0
    output_events: int = 0
    output_bytes: int = 0

    buffered_events_current: int = 0
    buffered_bytes_current: int = 0
    peak_buffered_events: int = 0
    peak_buffered_bytes: int = 0
    total_buffered_events: int = 0

    resident_bytes_current: int = 0
    peak_resident_bytes: int = 0
    spill_count: int = 0
    spilled_bytes_written: int = 0
    page_faults: int = 0
    spilled_bytes_read: int = 0

    condition_bytes_current: int = 0
    peak_condition_bytes: int = 0

    handler_executions: int = 0
    elapsed_seconds: float = 0.0

    #: Per-owner buffer ledger (:class:`repro.obs.attrib.BufferAttribution`),
    #: attached by the run's BufferManager.  Excluded from __init__/repr so
    #: the public constructor surface is unchanged.
    attribution: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def buffer_attribution(self):
        """Per-owner rows explaining ``peak_buffered_bytes`` (see
        :mod:`repro.obs.attrib`); empty list when nothing was buffered."""
        attribution = self.attribution
        return [] if attribution is None else attribution.rows()

    # ------------------------------------------------------------- buffers

    def record_buffered(self, events: int, cost: int, settle_resident: bool = True) -> None:
        """Account for events added to some buffer.

        ``settle_resident=False`` defers the resident high-water sample:
        a governed flush admits the bytes first, lets the governor
        evict, and only then samples ``peak_resident_bytes`` itself, so
        the recorded peak is the post-eviction residency the budget
        actually bounds.
        """
        self.buffered_events_current += events
        self.buffered_bytes_current += cost
        self.total_buffered_events += events
        if self.buffered_events_current > self.peak_buffered_events:
            self.peak_buffered_events = self.buffered_events_current
        if self.buffered_bytes_current > self.peak_buffered_bytes:
            self.peak_buffered_bytes = self.buffered_bytes_current
            if self.attribution is not None:
                # A new global high-water mark: capture its per-owner
                # composition, which keeps sum(at_peak_bytes) exactly
                # equal to peak_buffered_bytes (owners update their live
                # bytes before this call).
                self.attribution.snapshot_peak()
        self.resident_bytes_current += cost
        if settle_resident and self.resident_bytes_current > self.peak_resident_bytes:
            self.peak_resident_bytes = self.resident_bytes_current

    def record_freed(self, events: int, cost: int, resident: Optional[int] = None) -> None:
        """Account for a buffer being cleared or released.

        ``resident`` is the part of ``cost`` that was still held in memory
        at release time -- a buffer whose pages were spilled frees its full
        logical cost but only its resident remainder; omitted, all of
        ``cost`` was resident.

        Guards against going negative: every free must match a prior
        :meth:`record_buffered`.  A silent negative here would corrupt the
        peak readouts of all subsequent runs sharing these statistics.
        """
        if events > self.buffered_events_current or cost > self.buffered_bytes_current:
            raise RuntimeError(
                f"freeing {events} events/{cost}B exceeds the "
                f"{self.buffered_events_current} events/{self.buffered_bytes_current}B "
                "currently buffered"
            )
        resident_cost = cost if resident is None else resident
        if resident_cost > self.resident_bytes_current:
            raise RuntimeError(
                f"freeing {resident_cost}B resident exceeds the "
                f"{self.resident_bytes_current}B currently resident"
            )
        self.buffered_events_current -= events
        self.buffered_bytes_current -= cost
        self.resident_bytes_current -= resident_cost

    def record_spill(self, cost: int, encoded_bytes: int) -> None:
        """Account for one page evicted to disk: ``cost`` logical bytes
        leave residency (the buffered totals are untouched)."""
        if cost > self.resident_bytes_current:
            raise RuntimeError(
                f"spilling {cost}B exceeds the "
                f"{self.resident_bytes_current}B currently resident"
            )
        self.resident_bytes_current -= cost
        self.spill_count += 1
        self.spilled_bytes_written += encoded_bytes

    def record_page_fault(self, encoded_bytes: int) -> None:
        """Account for one spilled page decoded back on a buffer flush."""
        self.page_faults += 1
        self.spilled_bytes_read += encoded_bytes

    def record_condition_bytes(self, delta: int) -> None:
        """Account for condition values captured on the fly."""
        self.condition_bytes_current += delta
        if self.condition_bytes_current > self.peak_condition_bytes:
            self.peak_condition_bytes = self.condition_bytes_current

    # -------------------------------------------------------------- output

    def record_output(self, events: int, size: int) -> None:
        """Account for data written to the output."""
        self.output_events += events
        self.output_bytes += size

    def record_input(self, events: int, size: int) -> None:
        """Account for data read from the input stream.

        Called once per *batch* by the pipeline stages; pass the batch's
        event count and summed byte cost, never call this per token.
        """
        self.input_events += events
        self.input_bytes += size

    # ------------------------------------------------------------- reports

    def summary(self) -> str:
        """One-line human-readable summary used by the examples."""
        text = (
            f"in={self.input_events} events/{self.input_bytes}B "
            f"out={self.output_bytes}B "
            f"peak-buffer={self.peak_buffered_events} events/{self.peak_buffered_bytes}B "
            f"peak-conditions={self.peak_condition_bytes}B "
            f"time={self.elapsed_seconds:.3f}s"
        )
        if self.spill_count or self.page_faults:
            text += (
                f" peak-resident={self.peak_resident_bytes}B"
                f" spills={self.spill_count} pages/{self.spilled_bytes_written}B"
                f" faults={self.page_faults} pages/{self.spilled_bytes_read}B"
            )
        return text
