"""Byte-level document source resolution for the scanner.

:func:`resolve_bytes_source` classifies a
:data:`~repro.xmlstream.parser.DocumentSource` into either

* a **buffer** -- one in-memory ``bytes`` object or an ``mmap`` of the file
  (zero-copy: the scanner walks the mapping in place and only surviving
  spans are ever sliced/decoded), or
* a **chunk iterator** -- for file objects and chunk iterables, normalized
  to bytes (text chunks are UTF-8 encoded; they are complete code points by
  construction, so per-chunk encoding is safe).

The same path heuristics as :mod:`repro.xmlstream.parser` apply: a ``str`` starting
with ``<`` (after leading whitespace) is document text, anything else is a
file path; ``os.PathLike`` always reads from disk.
"""

from __future__ import annotations

import mmap
import os
from typing import Callable, Iterator, Tuple, Union

from repro.xmlstream.parser import DocumentSource, _looks_like_document

ByteSource = Tuple[str, Union[bytes, mmap.mmap, Iterator[bytes]], Callable[[], None]]


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


def _iter_read(source, chunk_size: int) -> Iterator[bytes]:
    while True:
        chunk = source.read(chunk_size)
        if not chunk:
            return
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8")
        yield chunk


def _iter_chunks(source) -> Iterator[bytes]:
    for chunk in source:
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8")
        else:
            chunk = bytes(chunk)
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
        return "chunks", _iter_read(document, chunk_size), _noop
    return "chunks", _iter_chunks(document), _noop


__all__ = ["resolve_bytes_source"]
