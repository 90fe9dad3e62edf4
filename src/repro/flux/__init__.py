"""FluX: the event-based query language and the scheduling rewrite.

This package contains the paper's primary contribution:

* :mod:`repro.flux.ast` -- FluX expressions (``process-stream`` blocks with
  ``on`` and ``on-first past(S)`` handlers, Definition 3.3),
* :mod:`repro.flux.simple` -- the "simple expression" classification of
  Section 3.2,
* :mod:`repro.flux.rewrite` -- the Figure-2 algorithm that turns a normalised
  XQuery⁻ query into an equivalent *safe* FluX query, scheduling event
  handlers with the DTD's order constraints so that buffering is minimised
  (:func:`rewrite_to_flux`, the stage ``FluxSession.prepare`` compiles
  through),
* :mod:`repro.flux.safety` -- the Definition-3.6 safety checker,
* :mod:`repro.flux.serialize` -- pretty printing in the paper's concrete
  syntax,
* :mod:`repro.flux.parser` -- a parser for that concrete syntax (useful for
  writing FluX queries by hand, as the paper does in its examples).
"""

from repro.flux.ast import (
    FluxExpr,
    OnFirstHandler,
    OnHandler,
    ProcessStream,
    SimpleFlux,
    iter_process_streams,
    maximal_xquery_subexpressions,
)
from repro.flux.errors import FluxError, UnschedulableQueryError
from repro.flux.rewrite import RewriteContext, rewrite_to_flux
from repro.flux.safety import SafetyViolation, check_safety, is_safe
from repro.flux.serialize import flux_to_source
from repro.flux.simple import decompose_simple, is_simple
from repro.flux.parser import parse_flux

__all__ = [
    "FluxError",
    "FluxExpr",
    "OnFirstHandler",
    "OnHandler",
    "ProcessStream",
    "RewriteContext",
    "SafetyViolation",
    "SimpleFlux",
    "UnschedulableQueryError",
    "check_safety",
    "decompose_simple",
    "flux_to_source",
    "is_safe",
    "is_simple",
    "iter_process_streams",
    "maximal_xquery_subexpressions",
    "parse_flux",
    "rewrite_to_flux",
]
