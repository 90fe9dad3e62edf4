"""Malformed input fails the same way whoever drives the run.

Every run shape -- ``execute`` (of bytes at any chunk size, or of a file),
``stream``, ``open_run`` at any chunking, ``prepare_many().execute``,
``open_feed`` and the subscription hub -- goes through one
:class:`~repro.engine.engine.RunHandle` over one
:class:`~repro.fastpath.scanner.ByteScanner`, which raises every
end-of-input error itself, so a broken document must raise the same
exception class, message and byte offset from all of them, and in a stream
of several documents that offset is stream-absolute: the failing
document's start plus the solo-run offset.
"""

import pathlib
import tempfile

import pytest

from repro import FluxSession
from repro.serve import SubscriptionHub
from repro.xmlstream.errors import XMLSyntaxError, XMLWellFormednessError
from repro.xmlstream.parser import iter_events

DTD = """
<!ELEMENT a (b)*>
<!ELEMENT b (#PCDATA)>
"""

QUERY = "<r>{ for $b in $ROOT/a/b return {$b} }</r>"


def _execute(session, data, **overrides):
    session.prepare(QUERY).execute(data, **overrides)


def _execute_path(session, data):
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory, "doc.xml")
        path.write_bytes(data)
        _execute(session, path)


def _stream(session, data):
    "".join(session.prepare(QUERY).stream(data))


def _open_run(stride):
    def drive(session, data):
        with session.prepare(QUERY).open_run() as run:
            for start in range(0, len(data), stride):
                run.feed(data[start : start + stride])

    return drive


def _multi(session, data):
    session.prepare_many({"q": QUERY, "again": QUERY}).execute(data)


def _feed(session, data):
    with session.prepare(QUERY).open_feed() as feed:
        feed.feed(data)


def _hub(session, data):
    with SubscriptionHub(session.dtd) as hub:
        hub.subscribe(QUERY)
        hub.feed(data)


SHAPES = {
    "execute": _execute,
    "execute/3": lambda session, data: _execute(session, data, chunk_size=3),
    "execute/path": _execute_path,
    "stream": _stream,
    "open_run/1": _open_run(1),
    "open_run/3": _open_run(3),
    "open_run/whole": _open_run(1 << 20),
    "prepare_many": _multi,
    "open_feed": _feed,
    "hub": _hub,
}


def _failure(drive, data):
    """``(exception class, message, offset)`` of driving ``data``."""
    with FluxSession(DTD, root_element="a") as session:
        with pytest.raises(XMLSyntaxError) as raised:
            drive(session, data)
    return type(raised.value), str(raised.value), raised.value.offset


@pytest.mark.parametrize(
    "document",
    [
        b"<a><b>x</b><b>\xc3",  # ends inside a code point
        b"<a><b>x</b><b>y",  # ends inside an element
        b"<a><b>x\xff</b></a>",  # invalid UTF-8
        b"<a><b>x</b></a>junk",  # bytes after the root
        b"<a><b>x</b><b\xc3",  # ends inside a code point inside a tag
    ],
    ids=["truncated", "unclosed", "invalid-utf8", "trailing-junk", "truncated-in-tag"],
)
def test_every_run_shape_reports_the_same_error(document):
    failures = {name: _failure(drive, document) for name, drive in SHAPES.items()}
    assert len(set(failures.values())) == 1, failures


@pytest.mark.parametrize(
    "document,culprit,error",
    [
        (b"<a><b>x</b></a><![CDATA[y]]>", b"<![CDATA[", XMLWellFormednessError),
        (b"<a><b>xy&bogus;z</b></a>", b"&bogus;", XMLSyntaxError),
    ],
    ids=["cdata-after-root", "unknown-entity"],
)
def test_errors_are_located_where_the_culprit_starts(document, culprit, error):
    """Every run shape and the expat reference point at the offending
    token's first byte: a CDATA section after the root (like character data
    there), an unknown entity (not the end of its text run)."""
    at = document.index(culprit)
    with pytest.raises(XMLSyntaxError) as raised:
        list(iter_events(document.decode("ascii")))
    assert (type(raised.value), raised.value.offset) == (error, at)
    for name, drive in SHAPES.items():
        failed, message, offset = _failure(drive, document)
        assert (failed, offset) == (error, at), (name, message)


OK_DOC = b"<a><b>x</b></a>\n"


@pytest.mark.parametrize(
    "tail",
    [b"<a><b>y", b"<a><b>\xc3", b"<a><b>y\xff</b></a>", b"<a><b>y</b></x>"],
    ids=["unclosed", "truncated", "invalid-utf8", "mismatch"],
)
@pytest.mark.parametrize("shape", ["open_feed", "hub"])
def test_second_document_errors_are_stream_absolute(shape, tail):
    error, message, solo_offset = _failure(_execute, tail)
    failed = _failure(SHAPES[shape], OK_DOC + tail)
    # The message embeds the offset; compare it through the solo run's.
    assert failed[0] is error
    assert failed[2] == len(OK_DOC) + solo_offset
    assert failed[1] == message.replace(str(solo_offset), str(failed[2]))
