"""Continuous document feeds: one prepared query over an endless stream.

The paper frames streaming around "documents that arrive on a network",
and a network rarely delivers exactly one.  A :class:`FeedHandle` is the
long-lived counterpart of a single-document push run
(:class:`~repro.engine.engine.RunHandle`): one handle consumes an
unbounded stream of *concatenated* documents (optionally separated by
whitespace), cut into chunks at arbitrary byte positions -- including
splits that straddle a document boundary or fall inside a multi-byte
UTF-8 sequence.

Lifecycle
---------
Each document runs in a fresh inner push run, opened by the callable the
handle was built with: one seat per member of a prepared query
(:meth:`~repro.core.session.PreparedQuery.open_feed`) or one seat per
subscription (:class:`~repro.serve.hub.SubscriptionHub`) -- this is the
only framing loop either way.  The scanner's cursors, the run's statistics
and its buffer-attribution ledger all start from zero at every boundary,
and the inner run's ``finish()`` releases every buffer it charged against
the feed's memory governor (borrowed, or created from the options and
owned).  Live bytes therefore return to the same floor after every
document -- the invariant that makes bounded-memory claims meaningful over
millions of documents, and the one the oracle and the feed soak assert.

Framing and punctuation
-----------------------
``feed(chunk)`` returns the :class:`DocumentResult`\\ s that *completed*
within that chunk (zero or many -- a single chunk may close several
small documents); an ``on_document`` callback receives each one as it
seals.  ``on_heartbeat`` fires every :data:`HEARTBEAT_INTERVAL_BYTES`
fed bytes with a progress snapshot, as punctuation on otherwise-quiet
streams.

Crash-safe resume
-----------------
:attr:`FeedHandle.resume_offset` is always the exact byte offset just
past the last *completed* document.  It is exposed live (the handle, the
``/progress`` endpoint, crash dumps via the inner run's annotations) so
a restarted feed can pass it as ``resume_from`` and skip the
already-processed prefix of the same stream; replayed output is
byte-identical to the uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.engine.engine import RunResult, governor_for
from repro.obs import recorder as _flight
from repro.obs import serve as _serve
from repro.obs.metrics import global_registry

_metrics = global_registry()
_FEEDS = _metrics.counter("repro.feeds.total", "Finished continuous feeds")
_DOCUMENTS = _metrics.counter(
    "repro.feed.documents.total", "Documents completed by continuous feeds"
)
_HEARTBEATS = _metrics.counter(
    "repro.feed.heartbeats.total", "Heartbeat callbacks fired by continuous feeds"
)

#: Padding accepted (and skipped, charged to the stream offset) between
#: documents: the four XML whitespace bytes.
_INTERDOC_WS = b" \t\r\n"

#: Fed bytes between two ``on_heartbeat`` callbacks.
HEARTBEAT_INTERVAL_BYTES = 1 << 20


@dataclass(frozen=True)
class DocumentResult:
    """One completed document of a feed: framing offsets plus its result.

    ``start_offset`` / ``end_offset`` are absolute byte offsets into the
    stream: the first byte of the document's markup and the byte just past
    its root close tag.  ``end_offset`` is exactly the feed's
    ``resume_offset`` after this document sealed.  ``result`` is what the
    document's run sealed: a :class:`~repro.engine.engine.FluxRunResult`,
    or a :class:`~repro.engine.engine.MultiQueryRun` for a named set.
    """

    index: int
    start_offset: int
    end_offset: int
    result: RunResult


@dataclass(frozen=True)
class FeedResult:
    """Summary of a finished feed."""

    documents_completed: int
    resume_offset: int
    bytes_fed: int


class FeedHandle:
    """One in-flight continuous feed: documents in, framed results out.

    Typical usage::

        with prepared.open_feed(on_document=handle_doc) as feed:
            for chunk in socket_chunks:
                feed.feed(chunk)
        print(feed.result.documents_completed)

    The context manager finishes on a clean exit (raising if the stream
    ends mid-document, exactly like a single-document push run) and aborts
    on an exception -- :attr:`resume_offset` still reports the last
    completed boundary either way, which is what a restart passes as
    ``resume_from``.
    """

    def __init__(
        self,
        open_document,
        *,
        options: Optional[ExecutionOptions] = None,
        governor=None,
        on_document=None,
        on_heartbeat=None,
        resume_from: Optional[int] = None,
        progress=None,
    ):
        #: ``open_document(governor=, stop_at_root_close=, base_offset=,
        #: annotations=)`` opens the next document's run; the feed itself
        #: passes ``stop_at_root_close=True``.
        self._open_document = open_document
        options = options if options is not None else DEFAULT_OPTIONS
        if resume_from is None:
            resume_from = 0
        if resume_from < 0:
            raise ValueError(f"resume_from must be >= 0, got {resume_from}")
        self._on_document = on_document
        self._on_heartbeat = on_heartbeat
        #: The memory governor every document's run borrows (``None`` when
        #: unbounded): one spans the stream's documents, borrowed or owned
        #: by the feed under the runs' own rule.
        self.governor, self._release_governor = governor_for(self, options, governor)
        self._state = "open"
        self._run = None
        # Absolute stream cursors, all in bytes: ``_cursor`` is the offset
        # of the next byte to consume, ``_skip`` the resume prefix still to
        # discard, ``_doc_start`` the open document's first byte,
        # ``_resume_offset`` the boundary of the last completed document.
        self._cursor = 0
        self._skip = resume_from
        self._doc_start = resume_from
        self._resume_offset = resume_from
        self._bytes_fed = 0
        self._chunks_fed = 0
        self._documents_completed = 0
        self._heartbeat_every = HEARTBEAT_INTERVAL_BYTES
        self._next_heartbeat = self._heartbeat_every
        #: The finished feed's summary; set by :meth:`finish`.
        self.result: Optional[FeedResult] = None
        _flight.RECORDER.note("feed-begin", resume_from)
        # The stream is one ``/progress`` entry: this handle's snapshot, or
        # the ``progress`` view of an owner (the hub) that extends it.
        self._progress_key = _serve.register_run(progress or self.progress)

    # ------------------------------------------------------------ watermarks

    @property
    def documents_completed(self) -> int:
        """Documents sealed by this handle (not counting a resumed prefix)."""
        return self._documents_completed

    @property
    def resume_offset(self) -> int:
        """Byte offset just past the last completed document.

        Feed the same stream to a new handle with ``resume_from=<this>``
        to skip everything already processed.
        """
        return self._resume_offset

    @property
    def bytes_fed(self) -> int:
        return self._bytes_fed

    def progress(self) -> dict:
        """One JSON-ready watermark snapshot (what ``/progress`` shows)."""
        return {
            "mode": "feed",
            "state": self._state,
            "bytes_fed": self._bytes_fed,
            "chunks_fed": self._chunks_fed,
            "documents_completed": self._documents_completed,
            "resume_offset": self._resume_offset,
            "document_start_offset": self._doc_start,
            "document_offset": self._cursor,
        }

    # ----------------------------------------------------------------- feed

    def feed(self, chunk) -> List[DocumentResult]:
        """Consume one stream chunk; returns the documents that completed.

        Text chunks are encoded to UTF-8 first, so every offset this
        handle reports is a true byte offset whatever mix of ``str`` and
        ``bytes`` the caller feeds.
        """
        if self._state != "open":
            raise RuntimeError(f"cannot feed a {self._state} feed")
        data = chunk.encode("utf-8") if isinstance(chunk, str) else bytes(chunk)
        self._bytes_fed += len(data)
        self._chunks_fed += 1
        if self._skip:
            drop = min(self._skip, len(data))
            self._cursor += drop
            self._skip -= drop
            data = data[drop:]
        completed: List[DocumentResult] = []
        while data:
            if self._run is None:
                stripped = data.lstrip(_INTERDOC_WS)
                self._cursor += len(data) - len(stripped)
                data = stripped
                if not data:
                    break
                self._open_run()
            run = self._run
            try:
                run.feed(data)
                if not run.root_closed:
                    self._cursor += len(data)
                    break
                remainder = run.take_remainder()
                result = run.finish()
            except Exception:
                # The run already dumped a crash snapshot (with this
                # document's exact offsets) and released its buffers.
                self.close()
                raise
            self._run = None
            self._cursor += len(data) - len(remainder)
            data = remainder
            completed.append(self._seal_document(self._cursor, result))
        self._maybe_heartbeat()
        return completed

    def finish(self) -> FeedResult:
        """End of stream: flush, validate, release resources.

        Raises when the stream ends inside a document -- the same
        truncation errors a single-document push run raises, including the
        incomplete-trailing-UTF-8-sequence case.
        """
        if self._state == "finished":
            return self.result
        if self._state != "open":
            raise RuntimeError("cannot finish a closed feed")
        if self._run is not None:
            try:
                result = self._run.finish()
            except Exception:
                self.close()
                raise
            # Only reachable if the document completed exactly at stream
            # end without the boundary being observed; seal it normally.
            self._run = None
            self._seal_document(self._cursor, result)
        self._state = "finished"
        self._teardown()
        _FEEDS.inc()
        _flight.RECORDER.note("feed-finish", self._documents_completed, self._resume_offset)
        self.result = FeedResult(
            documents_completed=self._documents_completed,
            resume_offset=self._resume_offset,
            bytes_fed=self._bytes_fed,
        )
        return self.result

    def close(self) -> None:
        """Abort an unfinished feed, releasing the open document's buffers.

        Idempotent.  :attr:`resume_offset` keeps reporting the last
        completed boundary, so a closed (or crashed) feed can be resumed.
        """
        run, self._run = self._run, None
        if run is not None:
            run.close()
        if self._state == "open":
            self._state = "closed"
        self._teardown()

    def __enter__(self) -> "FeedHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self._state == "open":
            self.finish()
        else:
            self.close()

    # ------------------------------------------------------------ internals

    def _open_run(self) -> None:
        self._doc_start = self._cursor
        self._run = self._open_document(
            governor=self.governor,
            stop_at_root_close=True,
            base_offset=self._doc_start,
            annotations={
                "document_index": self._documents_completed,
                "document_start_offset": self._doc_start,
                "resume_offset": self._resume_offset,
            },
        )

    def _seal_document(self, boundary: int, result: RunResult) -> DocumentResult:
        document = DocumentResult(
            index=self._documents_completed,
            start_offset=self._doc_start,
            end_offset=boundary,
            result=result,
        )
        self._documents_completed += 1
        self._resume_offset = boundary
        _DOCUMENTS.inc()
        _flight.RECORDER.note("doc-boundary", document.index, boundary)
        if self._on_document is not None:
            self._on_document(document)
        return document

    def _maybe_heartbeat(self) -> None:
        if self._on_heartbeat is None:
            return
        if self._bytes_fed < self._next_heartbeat:
            return
        while self._bytes_fed >= self._next_heartbeat:
            self._next_heartbeat += self._heartbeat_every
        _HEARTBEATS.inc()
        self._on_heartbeat(self.progress())

    def _teardown(self) -> None:
        _serve.unregister_run(self._progress_key)
        self._release_governor()


__all__ = ["DocumentResult", "FeedHandle", "FeedResult"]
