"""Randomized conformance testing: schema-directed fuzzing with a
cross-engine differential oracle.

The paper's guarantee is that schema-based scheduling produces the output
of conventional evaluation while minimizing buffering.  This package
hammers it with randomized cases instead of hand-picked fixtures, holding
every run shape of the FluX engine to the naive baseline:

* :mod:`repro.conformance.generator` -- seeded, DTD-directed generation of
  (schema, conforming document, safe queries) triples,
* :mod:`repro.conformance.oracle` -- the differential oracle: one table of
  run shapes (``LEGS``), each held to the reference output and to the
  runtime invariants it lists,
* :mod:`repro.conformance.shrink` -- delta-debugging minimizer for failing
  cases,
* :mod:`repro.conformance.cases` -- the replayable ``.case`` file format,
* :mod:`repro.conformance.runner` -- the sweep driver behind
  ``repro fuzz``.
"""

from repro.conformance.cases import Case, dump_case, load_case, parse_case, save_case
from repro.conformance.generator import CaseGenerator, SchemaSpec
from repro.conformance.oracle import (
    CaseReport,
    ConformanceFailure,
    Divergence,
    Oracle,
)
from repro.conformance.runner import Failure, FuzzReport, fuzz, replay
from repro.conformance.shrink import Shrinker

__all__ = [
    "Case",
    "CaseGenerator",
    "CaseReport",
    "ConformanceFailure",
    "Divergence",
    "Failure",
    "FuzzReport",
    "Oracle",
    "SchemaSpec",
    "Shrinker",
    "dump_case",
    "fuzz",
    "load_case",
    "parse_case",
    "replay",
    "save_case",
]
