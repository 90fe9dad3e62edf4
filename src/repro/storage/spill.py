"""The spill store: a temp-file backed, page-granular byte store.

One :class:`SpillStore` backs one :class:`~repro.storage.governor.MemoryGovernor`
(and therefore one run, or one shared multi-query pass).  It is append-only:
evicted pages are written at the current tail and addressed by
``(offset, length)`` handles.  Sealed pages are immutable, so a page's
payload never has to be rewritten; freeing a handle only updates the
free-byte accounting.  The backing file is created lazily on the first
spill -- a run whose working set fits the budget never touches disk -- and
is an anonymous ``TemporaryFile``, so the operating system reclaims it even
on abnormal exit.

An I/O failure (a full disk, a closed descriptor, a short read) surfaces as
:class:`SpillError`.  A failed write leaves the store exactly as it was --
the tail and the byte counters only move once the payload is written -- so
the caller's page simply stays resident.
"""

from __future__ import annotations

import errno
import tempfile
from dataclasses import dataclass
from typing import Optional


class SpillError(OSError):
    """A page could not be written to or read back from the spill store.

    ``errno`` is the underlying error's (``EIO`` for a short read);
    ``owner`` names the buffer the page belongs to and ``page_bytes`` is
    the page's encoded size.
    """

    def __init__(self, code: Optional[int], message: str, *, owner: str, page_bytes: int):
        super().__init__(code, message)
        self.owner = owner
        self.page_bytes = page_bytes


@dataclass(frozen=True)
class PageHandle:
    """Address of one spilled page inside the store's backing file."""

    offset: int
    length: int


class SpillStore:
    """Append-only page store over one anonymous temporary file."""

    def __init__(self, directory: Optional[str] = None):
        self._directory = directory
        self._file = None
        self._tail = 0
        #: Bytes ever written (monotone; the backing file's size).
        self.bytes_written = 0
        #: Bytes ever read back.
        self.bytes_read = 0
        #: Bytes belonging to freed handles (dead space in the file).
        self.bytes_freed = 0
        self.pages_written = 0
        self.pages_read = 0

    # ----------------------------------------------------------------- state

    @property
    def live_bytes(self) -> int:
        """Bytes of the file still addressed by un-freed handles."""
        return self.bytes_written - self.bytes_freed

    @property
    def is_open(self) -> bool:
        """Whether the backing file exists (false until the first write)."""
        return self._file is not None

    # ------------------------------------------------------------------- I/O

    def write(self, payload: bytes, owner: str = "") -> PageHandle:
        """Append one page payload of buffer ``owner``; returns its handle."""
        try:
            if self._file is None:
                self._file = tempfile.TemporaryFile(
                    prefix="repro-spill-", dir=self._directory
                )
            self._file.seek(self._tail)
            self._file.write(payload)
        except OSError as exc:
            raise SpillError(
                exc.errno,
                f"cannot spill a {len(payload)}-byte page of {owner!r}: {exc.strerror or exc}",
                owner=owner,
                page_bytes=len(payload),
            ) from exc
        handle = PageHandle(self._tail, len(payload))
        self._tail += len(payload)
        self.bytes_written += len(payload)
        self.pages_written += 1
        return handle

    def read(self, handle: PageHandle, owner: str = "") -> bytes:
        """Read the page payload of buffer ``owner`` at ``handle`` back."""
        if self._file is None:
            raise RuntimeError("spill store has no backing file; nothing was written")
        try:
            self._file.seek(handle.offset)
            payload = self._file.read(handle.length)
        except OSError as exc:
            raise SpillError(
                exc.errno,
                f"cannot read back a {handle.length}-byte page of {owner!r}: "
                f"{exc.strerror or exc}",
                owner=owner,
                page_bytes=handle.length,
            ) from exc
        if len(payload) != handle.length:
            raise SpillError(
                errno.EIO,
                f"short read of a {handle.length}-byte page of {owner!r} at offset "
                f"{handle.offset}: got {len(payload)} bytes",
                owner=owner,
                page_bytes=handle.length,
            )
        self.bytes_read += handle.length
        self.pages_read += 1
        return payload

    def free(self, handle: PageHandle) -> None:
        """Mark a handle's bytes as dead (space accounting only)."""
        self.bytes_freed += handle.length

    def close(self) -> None:
        """Close and delete the backing file.  Idempotent."""
        if self._file is not None:
            self._file.close()
            self._file = None
