"""Edge cases of :func:`repro.engine.engine.ensure_rooted` and its callers.

``ensure_rooted`` is the single place the virtual-root rules live: the
engine, the session and :func:`repro.core.api.load_dtd` all funnel
through it.  These tests pin the behaviours the docstrings promise:
already-rooted DTDs pass through untouched, unknown root tags fail with
the DTD error (not a KeyError), and rootless DTDs without a hint fail
with a clear message.
"""

import pytest

from repro import FluxSession
from repro.core.api import load_dtd
from repro.dtd.errors import UnknownElementError
from repro.dtd.parser import parse_dtd
from repro.dtd.schema import ROOT_ELEMENT
from repro.engine.engine import ensure_rooted

_DTD_SOURCE = """
<!ELEMENT bib (book*)>
<!ELEMENT book (title)>
<!ELEMENT title (#PCDATA)>
"""


@pytest.fixture()
def plain_dtd():
    return parse_dtd(_DTD_SOURCE)


def test_rootless_dtd_gets_virtual_root(plain_dtd):
    rooted = ensure_rooted(plain_dtd, "bib")
    assert ROOT_ELEMENT in rooted
    assert rooted.root_element == "bib"


def test_already_rooted_dtd_is_returned_unchanged(plain_dtd):
    rooted = ensure_rooted(plain_dtd, "bib")
    assert ensure_rooted(rooted) is rooted
    # Re-rooting an already-rooted DTD is a no-op even with an explicit
    # root: the attached virtual root wins (documented single-place rule).
    assert ensure_rooted(rooted, "bib") is rooted


def test_dtd_declared_root_is_used_when_no_explicit_root(plain_dtd):
    rooted = plain_dtd.with_root("book")
    again = ensure_rooted(rooted)
    assert again is rooted
    assert again.root_element == "book"


def test_unknown_root_tag_raises_dtd_error(plain_dtd):
    with pytest.raises(UnknownElementError, match="chapter"):
        ensure_rooted(plain_dtd, "chapter")


def test_rootless_dtd_without_hint_raises_value_error(plain_dtd):
    with pytest.raises(ValueError, match="root_element"):
        ensure_rooted(plain_dtd)


def test_load_dtd_parses_and_roots(plain_dtd):
    loaded = load_dtd(_DTD_SOURCE, root_element="bib")
    assert ROOT_ELEMENT in loaded
    assert loaded.root_element == "bib"


def test_load_dtd_accepts_already_rooted_dtd_object(plain_dtd):
    rooted = plain_dtd.with_root("bib")
    assert load_dtd(rooted) is rooted


def test_load_dtd_unknown_root_raises(plain_dtd):
    with pytest.raises(UnknownElementError, match="chapter"):
        load_dtd(_DTD_SOURCE, root_element="chapter")


def test_session_roots_its_dtd(plain_dtd):
    session = FluxSession(plain_dtd, root_element="bib")
    assert ROOT_ELEMENT in session.dtd
    queries = session.prepare_many(["<t>{ for $b in $ROOT/bib/book return {$b/title} }</t>"])
    run = queries.execute("<bib><book><title>T</title></book></bib>")
    assert run["q0"].output == "<t><title>T</title></t>"


def test_session_rejects_unknown_root(plain_dtd):
    with pytest.raises(UnknownElementError, match="chapter"):
        FluxSession(plain_dtd, root_element="chapter")
