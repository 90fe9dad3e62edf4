"""Attribute-to-subelement expansion.

The paper's data model is attribute-free.  For the XMark experiments the
authors converted attributes into subelements on the fly ("our XSAX parser
converted attributes into subelements"), e.g.::

    <person id="person0"> ... </person>

becomes::

    <person><person_id>person0</person_id> ... </person>

This module implements that conversion as an event-stream transformer so it
can be applied to any document without materializing it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.xmlstream.events import Characters, EndElement, Event, StartElement


def expanded_attribute_name(element_name: str, attribute_name: str) -> str:
    """Name of the subelement that replaces ``attribute_name`` on ``element_name``.

    Follows the paper's example: the ``id`` attribute of ``person`` becomes a
    ``person_id`` subelement.  Attribute names that already start with the
    element name are kept as is (so ``person_id`` stays ``person_id``).
    """
    if attribute_name.startswith(element_name + "_"):
        return attribute_name
    return f"{element_name}_{attribute_name}"


def expand_attributes(events: Iterable[Event]) -> Iterator[Event]:
    """Expand attributes of every start-element event into leading subelements.

    The produced stream contains no attributes.  Expansion order follows the
    attribute order of the event (document order from the parsers), which
    keeps the transformation deterministic.
    """
    for event in events:
        if isinstance(event, StartElement) and event.attributes:
            yield StartElement(event.name)
            for attr_name, value in event.attributes:
                child = expanded_attribute_name(event.name, attr_name)
                yield StartElement(child)
                if value:
                    yield Characters(value)
                yield EndElement(child)
        else:
            yield event
