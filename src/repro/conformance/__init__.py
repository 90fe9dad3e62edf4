"""Randomized conformance testing: schema-directed fuzzing with a
cross-engine differential oracle.

The repo has four independent execution paths for the same query language
-- the naive baseline, the compiled FluX pipeline (in three sink modes),
multi-query fan-out and bounded-memory paged buffers.  Their byte-identity
is exactly the guarantee of the paper (schema-based scheduling produces
conventional-evaluation output while minimizing buffering), so this package
hammers it with randomized cases instead of hand-picked fixtures:

* :mod:`repro.conformance.generator` -- seeded, DTD-directed generation of
  (schema, conforming document, safe queries) triples,
* :mod:`repro.conformance.oracle` -- the differential oracle plus runtime
  invariants (balanced buffer accounting, resident <= budget, logical-peak
  stability under spilling, multi-query peak parity),
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
