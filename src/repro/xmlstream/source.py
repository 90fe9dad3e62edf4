"""Document sources: what every reader of a document accepts, as bytes.

A :data:`DocumentSource` is document text (``str``/``bytes``), a path
(``str``/:class:`os.PathLike`), an open file object or an iterable of
chunks.  A plain ``str`` is *document text* when (ignoring leading
whitespace) it starts with ``<`` -- every well-formed XML document does --
and a file path otherwise; ``bytes`` are always document text and
``os.PathLike`` always reads from disk, so callers can be explicit.

:func:`iter_byte_chunks` turns any source into one stream of byte chunks.
A pull run feeds them to its scanner and the reference parser to expat, so
both see the same bytes.
"""

from __future__ import annotations

import io
import os
from typing import Iterable, Iterator, Union

#: Default read size for file-like sources, small enough to keep memory flat.
DEFAULT_CHUNK_SIZE = 64 * 1024

DocumentSource = Union[str, bytes, os.PathLike, io.IOBase, Iterable[str]]


def _looks_like_document(text: str) -> bool:
    """First non-whitespace character is ``<`` -- without copying ``text``.

    (``text.lstrip()`` would duplicate a potentially huge in-memory
    document just to inspect one character.)
    """
    for char in text:
        if not char.isspace():
            return char == "<"
    return False


def iter_byte_chunks(document: DocumentSource, chunk_size: int) -> Iterator[bytes]:
    """``document``'s bytes as non-empty chunks of at most ``chunk_size``.

    A path is opened on the first ``next`` and read ``chunk_size`` bytes
    at a time; the file is closed when the iteration ends, fails or the
    iterator is closed or dropped.  Text is encoded as UTF-8; a text chunk
    holds whole code points, but the byte chunks cut it anywhere.
    """
    if isinstance(document, os.PathLike) or (
        isinstance(document, str) and not _looks_like_document(document)
    ):
        with open(document, "rb") as handle:
            yield from iter(lambda: handle.read(chunk_size), b"")
        return
    if isinstance(document, (str, bytes, bytearray, memoryview)):
        document = (document,)
    elif hasattr(document, "read"):
        read = document.read
        # The empty read at the end of the file stops the iteration.
        document = iter(lambda: read(chunk_size) or None, None)
    for chunk in document:
        chunk = chunk.encode("utf-8") if isinstance(chunk, str) else bytes(chunk)
        for at in range(0, len(chunk), chunk_size):
            yield chunk[at : at + chunk_size]


__all__ = ["DEFAULT_CHUNK_SIZE", "DocumentSource", "iter_byte_chunks"]
