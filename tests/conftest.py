"""Shared fixtures for the test suite."""

from __future__ import annotations

import errno
import os
import tempfile
import types

import pytest

from repro.dtd.parser import parse_dtd
from repro.storage import spill
from repro.xmark.generator import XMarkConfig, generate_document
from repro.xmark.dtd import xmark_dtd
from repro.xmark.usecases import (
    BIB_DTD_ORDERED,
    BIB_DTD_UNORDERED,
    BIB_DTD_USECASES,
    generate_bibliography,
)


class _FaultySpillFile:
    """A spill file whose writes fail with ENOSPC and whose reads come back
    one byte short from the planned call on; the rest goes to the real file."""

    def __init__(self, real, plan: dict):
        self._real = real
        self._plan = plan

    def write(self, data):
        self._plan["writes"] += 1
        if self._plan["write"] is not None and self._plan["writes"] >= self._plan["write"]:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._real.write(data)

    def read(self, size):
        data = self._real.read(size)
        self._plan["reads"] += 1
        if self._plan["read"] is not None and self._plan["reads"] >= self._plan["read"]:
            return data[:-1]
        return data

    def __getattr__(self, name):
        return getattr(self._real, name)


@pytest.fixture
def spill_faults(monkeypatch):
    """Spill I/O fault injection for spill files created during the test.

    ``spill_faults(write=N)`` fails every spill write from the Nth on with
    ENOSPC (a full disk stays full), ``spill_faults(read=N)`` cuts every
    spill read from the Nth on one byte short.  Each call restarts the
    counts and replaces the plan; ``spill_faults()`` clears it.
    """
    plan = {"writes": 0, "reads": 0, "write": None, "read": None}

    def temporary_file(*args, **kwargs):
        return _FaultySpillFile(tempfile.TemporaryFile(*args, **kwargs), plan)

    monkeypatch.setattr(spill, "tempfile", types.SimpleNamespace(TemporaryFile=temporary_file))

    def inject(write=None, read=None):
        plan.update(writes=0, reads=0, write=write, read=read)

    return inject


@pytest.fixture(scope="session")
def bib_dtd_unordered():
    """Weak bibliography DTD (no order between title and author), root attached."""
    return parse_dtd(BIB_DTD_UNORDERED).with_root("bib")


@pytest.fixture(scope="session")
def bib_dtd_ordered():
    """Bibliography DTD with authors before titles, root attached."""
    return parse_dtd(BIB_DTD_ORDERED).with_root("bib")


@pytest.fixture(scope="session")
def bib_dtd_usecases():
    """The XML Query Use Cases bibliography DTD, root attached."""
    return parse_dtd(BIB_DTD_USECASES).with_root("bib")


@pytest.fixture(scope="session")
def small_bibliography():
    """A small bibliography document valid for the use-cases DTD."""
    return generate_bibliography(12, seed=3)


@pytest.fixture(scope="session")
def tiny_bibliography():
    """A fixed, hand-written bibliography used for exact-output assertions."""
    return (
        "<bib>"
        "<book><title>Stream Processing</title><author>Koch</author>"
        "<author>Scherzinger</author><publisher>VLDB Press</publisher><price>45</price></book>"
        "<book><title>Buffer Minimization</title><author>Schweikardt</author>"
        "<publisher>Addison-Wesley</publisher><price>60</price></book>"
        "</bib>"
    )


@pytest.fixture(scope="session")
def xmark_schema():
    """The adapted XMark DTD with the virtual root attached."""
    return xmark_dtd()


@pytest.fixture(scope="session")
def small_xmark_document():
    """A small but complete XMark-like document (people, items, auctions)."""
    config = XMarkConfig(
        people=15,
        items_per_region=3,
        open_auctions=8,
        closed_auctions=8,
        categories=4,
        seed=11,
    )
    return generate_document(config)


@pytest.fixture(scope="session")
def medium_xmark_document():
    """A slightly larger XMark-like document for join and memory tests."""
    config = XMarkConfig(
        people=40,
        items_per_region=6,
        open_auctions=25,
        closed_auctions=25,
        categories=6,
        seed=23,
    )
    return generate_document(config)
