"""Reference implementations the byte scanner is differentially tested against.

Built on the stdlib expat event stream of :mod:`repro.xmlstream.parser`
and on the projection automaton itself -- neither is an engine path, and
the reference shares no tokenizing code with the scanner.
"""

import re

from repro.fastpath.batch import K_EVENT, KIND_MASK, STATE_SHIFT
from repro.pipeline.projection import KEEP_ALL, OPAQUE

from repro.xmlstream.events import Characters, EndElement, RawContent, StartElement
from repro.xmlstream.parser import iter_events


def reference_events(document, expand_attrs=False):
    """What the scanner must reproduce: the expat reference's event stream
    (attribute expansion included), adjacent character events merged into
    one logical text node."""
    return coalesce_text(
        iter_events(document, expand_attrs=expand_attrs, document_events=False)
    )


def coalesce_text(events):
    """``events`` with adjacent character events merged into one."""
    out = []
    for event in events:
        if out and event.__class__ is Characters and out[-1].__class__ is Characters:
            out[-1] = Characters(out[-1].text + event.text)
        else:
            out.append(event)
    return out


#: The states below which nothing is filtered.
KEEP_EVERYTHING = (KEEP_ALL, OPAQUE)


def project_events(spec, events):
    """Reference projection: walk ``events`` through a ``ProjectionSpec``
    one transition at a time (what the flat table must agree with)."""
    out = []
    stack = [spec.initial]
    skip = 0
    for event in events:
        if event.__class__ is StartElement:
            if skip:
                skip += 1
                continue
            state = stack[-1]
            target = state if state in KEEP_EVERYTHING else spec.transition(state, event.name)
            if target is None:
                skip = 1
                continue
            stack.append(target)
            out.append(event)
        elif event.__class__ is EndElement:
            if skip:
                skip -= 1
                continue
            stack.pop()
            out.append(event)
        elif not skip and stack[-1] in KEEP_EVERYTHING:
            out.append(event)
    return out


def expand_raw(raw):
    """The events a :class:`RawContent` stands for, parsed from its text."""
    events = []
    for close, name, text in re.findall(r"<(/?)([^>]*)>|([^<]+)", raw.text):
        if text:
            events.append(Characters(text))
        else:
            events.append(EndElement(name) if close else StartElement(name))
    return events


def expanded(events):
    """``events`` with every raw content item replaced by its events."""
    out = []
    for event in events:
        out.extend(expand_raw(event) if event.__class__ is RawContent else [event])
    return out


def top_level_elements(span):
    """How many sibling elements a plain span -- every ``<`` opens a tag
    ``<name>`` or ``</name>`` -- holds at its top level: more than one for a
    run the scanner took in one piece."""
    depth = count = 0
    for close in re.findall(rb"<(/?)", span):
        depth += -1 if close else 1
        count += bool(close) and not depth
    return count


def split_raw_items(batch, fanout):
    """The raw content items of ``batch`` taken by a split: a slot that keeps
    the element reads inside it, so the row the element goes on in after its
    content went raw (``fanout.taken``) is not hollow."""
    rows = [word >> STATE_SHIFT for word in batch.words if word & KIND_MASK == K_EVENT]
    return [
        event
        for row, event in zip(rows, batch.events)
        if event.__class__ is RawContent and not fanout.hollow[fanout.taken(row)]
    ]
