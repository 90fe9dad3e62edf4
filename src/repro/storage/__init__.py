"""Bounded-memory execution: spillable buffers under a hard byte budget.

The paper minimizes *what* is buffered; this package bounds *where* it
lives.  A :class:`MemoryGovernor` owns a global byte budget and the
admission accounting for every buffered event; buffers created through its
factory are :class:`PagedEventBuffer` instances whose sealed pages the
governor may evict -- encoded by the :mod:`~repro.storage.codec` -- into a
temp-file :class:`SpillStore` and decode back on read.  Output stays
byte-identical to in-memory runs in every sink mode; only residency,
spill counters and (past the budget) throughput change.  A spill I/O
failure aborts the run with a :class:`SpillError` and no partial output.

Entry points:

* ``options=ExecutionOptions(memory_budget=...)`` on any run
  (``PreparedQuery.execute``, ``FluxEngine.execute``, ...) -- one governor
  per run, created, owned and closed by the run,
* the same options on ``PreparedQuerySet.execute`` (``prepare_many``) --
  one governor shared across all N seats of the pass,
* ``FluxSession(dtd, memory_budget=...)`` / ``SubscriptionHub(options=...)``
  -- one governor for the session / the stream, lent to every run,
* CLI: ``--memory-budget 32m`` on ``run``, ``multirun`` and ``xmark``.
"""

from repro.storage.codec import decode_events, encode_events
from repro.storage.governor import (
    DEFAULT_PAGE_BYTES,
    MIN_PAGE_BYTES,
    MemoryGovernor,
    parse_memory_budget,
)
from repro.storage.paged_buffer import Page, PagedEventBuffer
from repro.storage.spill import PageHandle, SpillError, SpillStore

__all__ = [
    "DEFAULT_PAGE_BYTES",
    "MIN_PAGE_BYTES",
    "MemoryGovernor",
    "Page",
    "PagedEventBuffer",
    "PageHandle",
    "SpillError",
    "SpillStore",
    "decode_events",
    "encode_events",
    "parse_memory_budget",
]
