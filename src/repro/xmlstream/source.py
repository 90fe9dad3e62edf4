"""Document sources: what every reader of a document accepts, as bytes.

A :data:`DocumentSource` is document text (``str``/``bytes``), a path
(``str``/:class:`os.PathLike`), an open file object or an iterable of
chunks.  A plain ``str`` is *document text* when (ignoring leading
whitespace) it starts with ``<`` -- every well-formed XML document does --
and a file path otherwise; ``bytes`` are always document text and
``os.PathLike`` always reads from disk, so callers can be explicit.

:func:`resolve_bytes_source` turns a source into either a **buffer** --
in-memory ``bytes`` or an ``mmap`` of the file, which the scanner walks in
place -- or a **chunk iterator** of bytes.  Both the engine's scanner and
the reference parser read documents through it, so they see the same bytes.
"""

from __future__ import annotations

import io
import mmap
import os
from typing import Callable, Iterable, Iterator, Tuple, Union

#: Default read size for file-like sources, small enough to keep memory flat.
DEFAULT_CHUNK_SIZE = 64 * 1024

DocumentSource = Union[str, bytes, os.PathLike, io.IOBase, Iterable[str]]

ByteSource = Tuple[str, Union[bytes, mmap.mmap, Iterator[bytes]], Callable[[], None]]


def _looks_like_document(text: str) -> bool:
    """First non-whitespace character is ``<`` -- without copying ``text``.

    (``text.lstrip()`` would duplicate a potentially huge in-memory
    document just to inspect one character.)
    """
    for char in text:
        if not char.isspace():
            return char == "<"
    return False


def _noop() -> None:
    return None


def _from_path(path) -> ByteSource:
    handle = open(path, "rb")
    try:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (ValueError, OSError):
        # Empty files (mmap rejects length 0) and exotic handles.
        try:
            data = handle.read()
        finally:
            handle.close()
        return "buffer", data, _noop

    def closer() -> None:
        mapped.close()
        handle.close()

    return "buffer", mapped, closer


def _byte_chunks(chunks) -> Iterator[bytes]:
    """The non-empty chunks as bytes.  Text chunks hold whole code points by
    construction, so encoding them one by one is safe."""
    for chunk in chunks:
        chunk = chunk.encode("utf-8") if isinstance(chunk, str) else bytes(chunk)
        if chunk:
            yield chunk


def resolve_bytes_source(document: DocumentSource, chunk_size: int) -> ByteSource:
    """Classify ``document`` into ``(kind, source, closer)``.

    ``kind`` is ``"buffer"`` (``source`` supports ``len``/slicing/``find``)
    or ``"chunks"`` (``source`` iterates byte chunks).  ``closer`` must be
    called when the scan is done (it unmaps/closes file-backed buffers).
    """
    if isinstance(document, (bytes, bytearray, memoryview)):
        return "buffer", bytes(document), _noop
    if isinstance(document, str):
        if _looks_like_document(document):
            return "buffer", document.encode("utf-8"), _noop
        return _from_path(document)
    if isinstance(document, os.PathLike):
        return _from_path(document)
    if hasattr(document, "read"):
        read = document.read
        # The empty read at the end of the file stops the iteration.
        document = iter(lambda: read(chunk_size) or None, None)
    return "chunks", _byte_chunks(document), _noop


__all__ = ["DEFAULT_CHUNK_SIZE", "DocumentSource", "resolve_bytes_source"]
