"""Streaming DTD validation.

The paper assumes the input stream is validated by the SAX layer: every child
tag read from the stream drives one transition of the Glushkov automaton of
the parent's content model, and the same transition is what produces the
``on-first past(S)`` punctuation events with negligible overhead
(Appendix B).

:class:`StreamValidator` implements that layer in a reusable way:

* it checks that a document conforms to a DTD
  (``validate`` / ``iter_validated``); the engine does not run it,
* the engine steps one automaton per *active scope* instead: the element's
  Glushkov automaton with every child the scope does not observe erased
  (:attr:`repro.engine.plan.ScopeSpec.automaton`), so it only notices an
  invalid child sequence where an observed child cannot come.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional

from repro.dtd.constraints import OrderConstraints
from repro.dtd.errors import ValidationError
from repro.dtd.glushkov import INITIAL_STATE
from repro.dtd.schema import DTD
from repro.xmlstream.events import (
    Characters,
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
)


@dataclass
class _Frame:
    """Validation state for one open element."""

    name: str
    constraints: Optional[OrderConstraints]
    state: Optional[int]
    allows_text: bool
    valid: bool = True


@dataclass
class ValidationReport:
    """Outcome of validating a document against a DTD."""

    errors: List[str] = field(default_factory=list)
    element_count: int = 0
    text_event_count: int = 0

    @property
    def is_valid(self) -> bool:
        """Whether the document conforms to the DTD."""
        return not self.errors


class StreamValidator:
    """Validates an event stream against a DTD, one event at a time.

    Parameters
    ----------
    dtd:
        The DTD to validate against.
    expected_root:
        Optional required name of the document element.
    strict:
        When true, :class:`ValidationError` is raised at the first violation;
        otherwise violations are recorded in the report.
    """

    def __init__(self, dtd: DTD, *, expected_root: Optional[str] = None, strict: bool = False):
        self._dtd = dtd
        self._expected_root = expected_root or dtd.root_element
        self._strict = strict
        self._stack: List[_Frame] = []
        self._report = ValidationReport()
        self._seen_root = False

    # -------------------------------------------------------------- results

    @property
    def report(self) -> ValidationReport:
        """The (mutable, growing) validation report."""
        return self._report

    # ------------------------------------------------------------ streaming

    def feed(self, event: Event) -> None:
        """Validate one event."""
        if isinstance(event, (StartDocument, EndDocument)):
            return
        if isinstance(event, StartElement):
            self._start_element(event)
        elif isinstance(event, EndElement):
            self._end_element(event)
        elif isinstance(event, Characters):
            self._characters(event)
        else:
            raise TypeError(f"not an XML event: {event!r}")

    def finish(self) -> ValidationReport:
        """Signal end of stream and return the final report."""
        if self._stack:
            self._record(f"stream ended inside element <{self._stack[-1].name}>")
        return self._report

    def iter_validated(self, events: Iterable[Event]) -> Iterator[Event]:
        """Yield events unchanged while validating them on the fly."""
        for event in events:
            self.feed(event)
            yield event
        self.finish()

    def validate(self, events: Iterable[Event]) -> ValidationReport:
        """Validate a whole event stream and return the report."""
        for event in events:
            self.feed(event)
        return self.finish()

    # ----------------------------------------------------------- internals

    def _record(self, message: str) -> None:
        if self._strict:
            raise ValidationError(message)
        self._report.errors.append(message)

    def _start_element(self, event: StartElement) -> None:
        self._report.element_count += 1
        name = event.name
        if not self._stack:
            if self._expected_root and name != self._expected_root:
                self._record(f"root element is <{name}>, expected <{self._expected_root}>")
            self._seen_root = True
        else:
            parent = self._stack[-1]
            self._advance_parent(parent, name)
        if name in self._dtd:
            constraints = self._dtd.constraints(name)
            frame = _Frame(
                name=name,
                constraints=constraints,
                state=INITIAL_STATE,
                allows_text=self._dtd.allows_text(name),
            )
        else:
            self._record(f"element <{name}> is not declared in the DTD")
            frame = _Frame(name=name, constraints=None, state=None, allows_text=True, valid=False)
        self._stack.append(frame)

    def _advance_parent(self, parent: _Frame, child_name: str) -> None:
        if parent.constraints is None or parent.state is None:
            return
        next_state = parent.constraints.automaton.step(parent.state, child_name)
        if next_state is None:
            if parent.valid:
                self._record(
                    f"element <{child_name}> is not allowed at this position inside <{parent.name}>"
                )
                parent.valid = False
            parent.state = None
        else:
            parent.state = next_state

    def _end_element(self, event: EndElement) -> None:
        if not self._stack:
            self._record(f"unexpected closing tag </{event.name}>")
            return
        frame = self._stack.pop()
        if frame.name != event.name:
            self._record(f"closing tag </{event.name}> does not match <{frame.name}>")
            return
        if frame.constraints is not None and frame.state is not None and frame.valid:
            if not frame.constraints.automaton.is_accepting(frame.state):
                self._record(f"element <{frame.name}> ended with incomplete content")

    def _characters(self, event: Characters) -> None:
        self._report.text_event_count += 1
        if not self._stack:
            if event.text.strip():
                self._record("character data outside the root element")
            return
        frame = self._stack[-1]
        if not frame.allows_text and event.text.strip():
            self._record(f"character data is not allowed inside <{frame.name}>")


def validate_document(dtd: DTD, events: Iterable[Event], *, expected_root: Optional[str] = None) -> ValidationReport:
    """Convenience wrapper: validate ``events`` against ``dtd``."""
    validator = StreamValidator(dtd, expected_root=expected_root)
    return validator.validate(events)
