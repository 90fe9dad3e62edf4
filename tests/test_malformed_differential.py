"""Malformed input: the engine's byte scanner against the expat reference.

Seeded mutations of :class:`~repro.conformance.generator.CaseGenerator`
documents -- a dropped ``>``, a mismatched end tag, an unknown entity, a
truncated tail, an invalid UTF-8 byte and a stray ``]]>`` -- run through the
engine (with the case's projection and without) and through the reference
event stream.  The scanner's error rule (the :mod:`repro.fastpath.scanner`
docstring) is checked as stated:

* (i) whenever the scanner raises, the reference raises an error of the same
  class;
* both raise, or neither does, for every mutation outside the laxities of
  (iii): a stray ``]]>`` in text is one; subtrees projection drops are
  another, which the unprojected run does not have.
"""

import random
import re

import pytest

from repro import FluxSession
from repro.conformance.generator import CaseGenerator
from repro.xmlstream.errors import XMLSyntaxError
from repro.xmlstream.parser import iter_events

_END_TAG_RE = re.compile(rb"</([^>]+)>")
_NAME_RE = re.compile(rb"<([A-Za-z_][A-Za-z0-9_.\-]*)")


def _after_gt(data, rng):
    """A random text position: just after some ``>`` (the last one is
    outside the root element)."""
    return rng.choice([index + 1 for index, byte in enumerate(data) if byte == 0x3E])


def _drop_gt(data, rng):
    at = _after_gt(data, rng) - 1
    return data[:at] + data[at + 1 :]


def _mismatched_close(data, rng):
    end = rng.choice(list(_END_TAG_RE.finditer(data)))
    others = sorted(set(_NAME_RE.findall(data)) - {end.group(1)}) or [b"other"]
    return data[: end.start(1)] + rng.choice(others) + data[end.end(1) :]


def _unknown_entity(data, rng):
    at = _after_gt(data, rng)
    return data[:at] + b"&bogus;" + data[at:]


def _truncated_tail(data, rng):
    return data[: rng.randrange(1, len(data))]


def _invalid_utf8(data, rng):
    at = rng.randrange(len(data) + 1)
    return data[:at] + b"\xff" + data[at:]


def _stray_cdata_end(data, rng):
    at = _after_gt(data, rng)
    return data[:at] + b"]]>" + data[at:]


MUTATIONS = {
    "dropped-gt": _drop_gt,
    "mismatched-close": _mismatched_close,
    "unknown-entity": _unknown_entity,
    "truncated-tail": _truncated_tail,
    "invalid-utf8": _invalid_utf8,
    "stray-cdata-end": _stray_cdata_end,
}

#: Mutations the error rule's laxities (iii) cover: the scanner may accept.
LAX = {"stray-cdata-end"}


def _error_class(run):
    try:
        run()
    except XMLSyntaxError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("seed", [1, 2])
def test_scanner_errors_match_the_expat_reference(seed):
    raised = dict.fromkeys(MUTATIONS, 0)
    for case in CaseGenerator(seed).cases(25):
        rng = random.Random(f"{seed}/{case.index}")
        document = case.document.encode("utf-8")
        query = case.queries[0][1]
        with FluxSession(case.dtd_source, root_element=case.root) as session:
            engines = {
                "projected": session.prepare(query),
                "unprojected": session.prepare(query, projection=False),
            }
            for kind, mutate in MUTATIONS.items():
                for _ in range(2):
                    data = mutate(document, rng)
                    reference = _error_class(
                        lambda: list(iter_events(data, expand_attrs=case.expand_attrs))
                    )
                    for shape, prepared in engines.items():
                        scanner = _error_class(
                            lambda: prepared.execute(data, expand_attrs=case.expand_attrs)
                        )
                        context = (kind, shape, case.index, data)
                        if scanner is not None:
                            raised[kind] += 1
                            assert reference is scanner, context
                        if shape == "unprojected" and kind not in LAX:
                            assert (reference is None) == (scanner is None), context
    # Every mutation kind made the scanner raise at least once.
    assert all(raised.values()), raised
