"""DTD substrate: content models, Glushkov automata and schema constraints.

The scheduling algorithm of the paper is driven entirely by information that
can be derived from a DTD:

* the **order constraints** ``Ord_rho(a, b)`` ("in every valid child sequence
  all ``a`` children occur before all ``b`` children", Section 2),
* the ``Past`` / ``first-past`` predicates used to generate punctuation
  events while validating the input stream (Appendix B),
* **cardinality constraints** such as ``a ∈ ||≤1`` used by the Section-7
  algebraic simplifications.

This package implements the full tool chain: parsing ``<!ELEMENT ...>``
declarations into content-model regular expressions, building the Glushkov
automaton of each (one-unambiguous) content model, deriving the constraint
relations from the automaton, and validating event streams while emitting
``on-first past(S)`` punctuation.
"""

from repro.dtd.ast import (
    AnyContent,
    Choice,
    ContentParticle,
    EmptyContent,
    MixedContent,
    Optional,
    PCDataContent,
    Plus,
    Sequence,
    Star,
    Symbol,
    symbols_of,
)
from repro.dtd.errors import DTDError, DTDSyntaxError, NotOneUnambiguousError, ValidationError
from repro.dtd.parser import parse_dtd
from repro.dtd.schema import DTD, ElementDeclaration
from repro.dtd.glushkov import GlushkovAutomaton, build_glushkov
from repro.dtd.constraints import OrderConstraints
from repro.dtd.validator import StreamValidator

__all__ = [
    "AnyContent",
    "Choice",
    "ContentParticle",
    "DTD",
    "DTDError",
    "DTDSyntaxError",
    "ElementDeclaration",
    "EmptyContent",
    "GlushkovAutomaton",
    "MixedContent",
    "NotOneUnambiguousError",
    "Optional",
    "OrderConstraints",
    "PCDataContent",
    "Plus",
    "Sequence",
    "Star",
    "StreamValidator",
    "Symbol",
    "ValidationError",
    "build_glushkov",
    "parse_dtd",
    "symbols_of",
]
