"""The subscription hub: one shared document stream, N live subscribers.

The hub is the synchronous heart of :mod:`repro.serve`.  One *engine
thread* feeds it stream chunks (network bytes, the XMark ticker, a file);
the hub frames them into documents with the one continuous-feed loop
(:class:`~repro.feeds.FeedHandle`) and opens, per document, one
:class:`~repro.engine.engine.RunHandle` with a seat per active
subscription: **one** document pass whatever the subscriber count, one
executor per seat -- exactly the multi-query fan-out, made long-lived and
churn-tolerant:

* subscriptions attach and detach **at document boundaries only** (calls
  made mid-document are queued and applied when the current document
  seals), so in-flight results are never perturbed;
* the union projection automaton is maintained incrementally by
  :class:`~repro.pipeline.fanout.DynamicFanout` -- churn never re-merges the
  surviving queries (``fanout.recompiles`` stays put);
* per-document results are delivered into each subscription's **bounded
  queue**; a slow consumer is handled by the subscription's policy --
  ``block`` (backpressure the engine thread), ``drop`` (count and skip) or
  ``disconnect`` (evict the subscriber at the next boundary);
* all documents' runs borrow the feed's optional :class:`~repro.storage.governor.
  MemoryGovernor`, whose victim selection is biased to the *heaviest
  subscriber's* pages, so one join-heavy subscription spills before it can
  crowd out the others.

Two subscriptions may carry the *same* query text: each owns its own seat
in the fan-out, its own executors, queue and counters -- results are
delivered independently (the compiled engine is shared, the streams are
not).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.core.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.core.session import FluxSession
from repro.dtd.schema import DTD
from repro.engine.engine import RunHandle, ensure_rooted
from repro.engine.stats import RunStatistics
from repro.feeds import DocumentResult, FeedHandle
from repro.obs import recorder as _flight
from repro.obs.metrics import global_registry
from repro.pipeline.fanout import DynamicFanout
from repro.storage.governor import MemoryGovernor
from repro.xmark.dtd import xmark_dtd

#: Slow-consumer policies.
POLICIES = ("block", "drop", "disconnect")

#: Default bound on a subscription's result queue.
DEFAULT_MAX_QUEUE = 64

_metrics = global_registry()
_CHUNKS = _metrics.counter("repro.serve.chunks.total", "Stream chunks fed to subscription hubs")
_DOCUMENTS = _metrics.counter("repro.serve.documents.total", "Documents sealed by subscription hubs")
_DELIVERED = _metrics.counter("repro.serve.results.delivered.total", "Per-subscription results enqueued")
_DROPPED = _metrics.counter("repro.serve.results.dropped.total", "Results dropped by slow-consumer policy")
_SUBSCRIBES = _metrics.counter("repro.serve.subscribes.total", "Subscriptions opened")
_UNSUBSCRIBES = _metrics.counter("repro.serve.unsubscribes.total", "Subscriptions closed")
_DISCONNECTS = _metrics.counter("repro.serve.disconnects.total", "Subscribers evicted by the disconnect policy")


@dataclass(frozen=True)
class SubscriptionResult:
    """One document's output for one subscription."""

    name: str
    document: int
    output: str
    seq: int
    #: ``time.perf_counter()`` at seal time -- the delivery-latency anchor.
    sealed_at: float
    stats: RunStatistics = field(repr=False, compare=False, default=None)


class Subscription:
    """One subscriber's seat: bounded result queue + watermarks.

    Created by :meth:`SubscriptionHub.subscribe`; consumed from any thread
    via :meth:`get` / :meth:`results`.  All counters are plain ints guarded
    by the queue condition.
    """

    def __init__(self, hub: "SubscriptionHub", name: str, query: str, policy: str, max_queue: int):
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._hub = hub
        self._engine = None
        self.name = name
        self.query = query
        self.policy = policy
        self.max_queue = max_queue
        self.slot_id: Optional[int] = None
        #: pending -> active -> finished | disconnected | closed
        self.state = "pending"
        self._cond = threading.Condition()
        #: Threads blocked on ``_cond`` (the only ones a notify can wake).
        self._waiting = 0
        self._queue: deque = deque()
        self._cancelled = False
        self.delivered = 0
        self.dropped = 0
        self.documents = 0
        self.seq = 0
        self.peak_queue_depth = 0
        self.resident_hwm = 0
        self.first_document: Optional[int] = None
        #: Optional hook fired (outside the lock) after each enqueue -- the
        #: asyncio server bridges thread-side delivery to its event loop here.
        self.on_ready: Optional[Callable[["Subscription"], None]] = None

    # --------------------------------------------------------------- consume

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def get(self, timeout: Optional[float] = None) -> Optional[SubscriptionResult]:
        """Next result; ``None`` on end-of-subscription (or timeout)."""
        with self._cond:
            if not self._queue:
                deadline = None if timeout is None else time.monotonic() + timeout
            while not self._queue:
                if self.state in ("finished", "disconnected", "closed"):
                    return None
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._waiting += 1
                self._cond.wait(remaining if remaining is not None else 0.5)
                self._waiting -= 1
            item = self._queue.popleft()
            if self._waiting:
                self._cond.notify_all()
            return item

    def get_nowait(self) -> Optional[SubscriptionResult]:
        with self._cond:
            if not self._queue:
                return None
            item = self._queue.popleft()
            if self._waiting:
                self._cond.notify_all()
            return item

    def results(self):
        """Iterate results until the subscription ends."""
        while True:
            item = self.get()
            if item is None:
                return
            yield item

    def close(self) -> None:
        """Consumer-side cancel: unsubscribes from the hub."""
        self._hub.unsubscribe(self)

    # --------------------------------------------------------------- deliver

    def _deliver(self, result: SubscriptionResult) -> bool:
        """Engine-thread side: enqueue under the subscription's policy."""
        with self._cond:
            if self.state != "active":
                return False
            if len(self._queue) >= self.max_queue:
                if self.policy == "block":
                    # ``_cancelled`` breaks the wait when the consumer went
                    # away mid-document (its detach applies at the boundary
                    # this delivery is part of -- blocking would deadlock).
                    while (
                        len(self._queue) >= self.max_queue
                        and self.state == "active"
                        and not self._cancelled
                    ):
                        self._waiting += 1
                        self._cond.wait(0.1)
                        self._waiting -= 1
                    if self.state != "active" or self._cancelled:
                        return False
                elif self.policy == "drop":
                    self.dropped += 1
                    _DROPPED.inc()
                    return False
                else:  # disconnect
                    # Mark only -- the hub's boundary sweep performs the
                    # detach, so no hub lock is taken under this one.
                    self.dropped += 1
                    _DROPPED.inc()
                    _DISCONNECTS.inc()
                    self.state = "disconnected"
                    self._cond.notify_all()
                    return False
            self._queue.append(result)
            self.delivered += 1
            self.documents += 1
            if len(self._queue) > self.peak_queue_depth:
                self.peak_queue_depth = len(self._queue)
            if self._waiting:
                self._cond.notify_all()
        if self.on_ready is not None:
            self.on_ready(self)
        return True

    def _end(self, state: str) -> None:
        with self._cond:
            if self.state in ("finished", "disconnected", "closed"):
                return
            self.state = state
            self._cond.notify_all()
        if self.on_ready is not None:
            self.on_ready(self)

    def _watermarks(self) -> dict:
        with self._cond:
            return {
                "name": self.name,
                "state": self.state,
                "policy": self.policy,
                "delivered": self.delivered,
                "dropped": self.dropped,
                "documents": self.documents,
                "queue_depth": len(self._queue),
                "peak_queue_depth": self.peak_queue_depth,
                "resident_bytes_hwm": self.resident_hwm,
                "first_document": self.first_document,
            }


def _heaviest_subscriber_page(pages):
    """Governor victim hook: evict from the subscriber holding the most."""
    return max(pages, key=lambda page: page.stats.resident_bytes_current)


class SubscriptionHub:
    """One shared stream, N independently-subscribed query executions.

    ``feed`` / ``finish`` / ``close`` must be called from a single thread
    (the engine thread); ``subscribe`` / ``unsubscribe`` and all consumer
    methods are safe from any thread.
    """

    def __init__(
        self,
        dtd: Optional[DTD] = None,
        *,
        root_element: Optional[str] = None,
        options: Optional[ExecutionOptions] = None,
        governor: Optional[MemoryGovernor] = None,
    ):
        self.dtd = ensure_rooted(dtd if dtd is not None else xmark_dtd(), root_element)
        self.options = options if options is not None else DEFAULT_OPTIONS
        self._lock = threading.Lock()
        #: Compiles subscriptions through its bounded plan cache; a live
        #: subscription holds its own engine reference, so eviction is safe.
        self.session = FluxSession(self.dtd)
        self.fanout = DynamicFanout()
        self._by_slot: Dict[int, Subscription] = {}
        self._pending_attach: List[Subscription] = []
        self._pending_detach: List[Subscription] = []
        self._names = 0
        self._state = "open"
        # The open document's run and who sits where in it; both change
        # only under the hub lock.
        self._run: Optional[RunHandle] = None
        self._seated: List[Optional[Subscription]] = []
        self._feed = FeedHandle(
            self._open_document,
            options=self.options,
            governor=governor,
            on_document=self._deliver_document,
            progress=self.progress,
        )
        self.governor = self._feed.governor
        if self.governor is not None:
            self.governor.victim_selector = _heaviest_subscriber_page
        _flight.RECORDER.note("serve-hub-open")

    # ---------------------------------------------------------- subscriptions

    def subscribe(
        self,
        query: str,
        *,
        name: Optional[str] = None,
        policy: str = "block",
        max_queue: int = DEFAULT_MAX_QUEUE,
    ) -> Subscription:
        """Register a query subscription; active from the next document on.

        The query compiles through the hub session's bounded plan cache
        (subscriptions with equal text share one engine); the subscription
        itself -- seat, queue, counters -- is always private, so the same
        query text subscribed twice delivers results independently to both.
        A finished or closed hub refuses with :class:`RuntimeError`.
        """
        engine = self.session.prepare(query).engine
        with self._lock:
            # Checked under the lock the end of the hub takes: a
            # subscription either lands before it (and is ended with the
            # others) or is refused, never left active on a dead stream.
            if self._state != "open":
                raise RuntimeError(f"cannot subscribe on a {self._state} hub")
            self._names += 1
            sub = Subscription(
                self, name or f"sub-{self._names}", query, policy, max_queue
            )
            sub._engine = engine
            self._pending_attach.append(sub)
        _SUBSCRIBES.inc()
        _flight.RECORDER.note("serve-subscribe", sub.name)
        # Between documents (or before the first) the attach applies
        # immediately, so a pre-feed subscriber never misses document zero;
        # mid-document it stays queued for the boundary.
        self._apply_pending()
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Detach a subscription at the next document boundary.

        Results already queued stay readable; the subscription ends (its
        consumers observe ``None``) once the detach applies.  Idempotent.
        """
        announced = False
        with self._lock:
            if sub in self._pending_attach:
                self._pending_attach.remove(sub)
                sub._end("closed")
                _UNSUBSCRIBES.inc()
                return
            if sub.state not in ("active", "disconnected"):
                return
            if sub not in self._pending_detach:
                self._pending_detach.append(sub)
                announced = True
        with sub._cond:
            sub._cancelled = True
            sub._cond.notify_all()
        if announced:
            _UNSUBSCRIBES.inc()
            _flight.RECORDER.note("serve-unsubscribe", sub.name)
        self._apply_pending()

    def subscriptions(self) -> List[Subscription]:
        with self._lock:
            live = list(self._by_slot.values())
            return live + [sub for sub in self._pending_attach if sub not in live]

    # -------------------------------------------------------------- churn

    def _apply_pending(self) -> None:
        """Apply queued churn if no document is open; defer otherwise.

        ``self._run`` transitions from ``None`` to a live run only under
        the hub lock (:meth:`_open_document`), so checking it here makes
        the boundary-only guarantee race-free for subscriber threads; the
        engine thread applies deferred churn itself at every boundary.
        """
        with self._lock:
            if self._run is None:
                self._apply_pending_locked()

    def _apply_pending_locked(self) -> None:
        detaches = list(self._pending_detach)
        self._pending_detach = []
        # Disconnect-policy evictions mark themselves on the subscription
        # (no hub lock under the queue lock); sweep them up here.
        for sub in self._by_slot.values():
            if sub.state == "disconnected" and sub not in detaches:
                detaches.append(sub)
        attaches = self._pending_attach
        self._pending_attach = []
        for sub in detaches:
            if sub.slot_id is not None:
                self.fanout.detach(sub.slot_id)
                self._by_slot.pop(sub.slot_id, None)
            sub._end("closed" if sub.state != "disconnected" else "disconnected")
        for sub in attaches:
            sub.slot_id = self.fanout.attach(sub._engine.projection_spec)
            sub.first_document = self._feed.documents_completed
            sub.state = "active"
            self._by_slot[sub.slot_id] = sub

    def compact(self) -> int:
        """Reclaim tombstoned seats (the one full re-merge; see fanout)."""
        with self._lock:
            if self._run is not None:
                raise RuntimeError("compact only between documents")
            return self.fanout.compact()

    # ---------------------------------------------------------------- feed

    def feed(self, chunk: Union[bytes, bytearray, str]) -> int:
        """Consume one stream chunk; returns documents completed by it.

        A failing document (its run has written the crash dump) ends the hub.
        """
        if self._state != "open":
            raise RuntimeError(f"cannot feed a {self._state} hub")
        _CHUNKS.inc()
        try:
            return len(self._feed.feed(chunk))
        except Exception:
            self.close()
            raise

    def finish(self) -> None:
        """End of stream: every live subscription observes end-of-feed.

        Raises (like a push run) when the stream ends mid-document.
        """
        if self._state != "open":
            return
        try:
            self._feed.finish()
        except Exception:
            self.close()
            raise
        self._apply_pending()
        self._end_subscriptions("finished")

    def close(self) -> None:
        """Abort: release buffers, end every subscription.  Idempotent."""
        if self._state == "closed":
            return
        self._feed.close()  # aborts the open document's run, if any
        self._end_subscriptions("closed")

    def _end_subscriptions(self, state: str) -> None:
        """End the hub in ``state`` and every subscription with it."""
        with self._lock:
            self._state = state
            self._run = None
            live = list(self._by_slot.values()) + self._pending_attach
            self._pending_attach = []
        for sub in live:
            sub._end(state)

    def __enter__(self) -> "SubscriptionHub":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self._state == "open":
            self.finish()
        else:
            self.close()

    # ----------------------------------------------------------- watermarks

    @property
    def documents_completed(self) -> int:
        return self._feed.documents_completed

    @property
    def bytes_fed(self) -> int:
        return self._feed.bytes_fed

    @property
    def active_subscriptions(self) -> int:
        with self._lock:
            return len(self._by_slot)

    def progress(self) -> dict:
        """The hub's live watermark snapshot (what ``/progress`` shows)."""
        with self._lock:
            subs = list(self._by_slot.values()) + list(self._pending_attach)
        return {
            # The feed's stream watermarks (bytes, chunks, documents, offsets).
            **self._feed.progress(),
            "mode": "serve",
            "state": self._state,
            "fanout": {
                "width": self.fanout.width,
                "active": self.fanout.active_count,
                "recompiles": self.fanout.recompiles,
                "attaches": self.fanout.attaches,
                "detaches": self.fanout.detaches,
            },
            "subscriptions": [sub._watermarks() for sub in subs],
        }

    # ------------------------------------------------------------ internals

    def _open_document(self, **framing) -> RunHandle:
        """Open the next document's run (the feed's ``open_document``)."""
        # One lock acquisition covers churn application, seat capture and
        # the run hand-off: a subscription attached concurrently either
        # lands before the capture (it gets this document) or stays pending
        # (the ``_run`` check in ``_apply_pending`` defers it) -- never half.
        with self._lock:
            self._apply_pending_locked()
            self._seated = [self._by_slot.get(slot_id) for slot_id in self.fanout.order()]
            # With no subscriber the fanout drops everything: the run still
            # validates the document and finds where it ends.
            self._run = RunHandle(
                self.fanout,
                [
                    None if sub is None else (sub._engine.plan, None, sub.name)
                    for sub in self._seated
                ],
                self.options,
                mode="serve",
                **framing,
            )
            return self._run

    def _deliver_document(self, document: DocumentResult) -> None:
        """A document sealed (the feed's ``on_document``): fan its results out."""
        # Clear the open run *first*: a concurrent subscribe during the
        # delivery loop below may then apply immediately, and the feed's
        # document counter has already advanced so its ``first_document``
        # is exact.
        with self._lock:
            run, self._run = self._run, None
        sealed_at = time.perf_counter()
        delivered = 0
        for sub, result in zip(self._seated, run.results):
            if sub is None:
                continue
            stats = result.stats
            if stats.peak_resident_bytes > sub.resident_hwm:
                sub.resident_hwm = stats.peak_resident_bytes
            sub.seq += 1
            delivered += sub._deliver(
                SubscriptionResult(
                    name=sub.name,
                    document=document.index,
                    output=result.output,
                    seq=sub.seq,
                    sealed_at=sealed_at,
                    stats=stats,
                )
            )
        _DELIVERED.inc(delivered)
        _DOCUMENTS.inc()


__all__ = [
    "DEFAULT_MAX_QUEUE",
    "POLICIES",
    "Subscription",
    "SubscriptionHub",
    "SubscriptionResult",
]
