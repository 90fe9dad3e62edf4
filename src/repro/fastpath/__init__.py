"""The engine's document stages: bytes in, projected event batches out.

Everything between input bytes and the executor lives here:

* :mod:`repro.fastpath.scanner` -- a tokenizer fed byte chunks that
  walks each chunk by index, coalesces and projects in the same loop, and
  defers all UTF-8 decoding until character data is actually emitted,
* :mod:`repro.fastpath.batch` -- struct-of-arrays event batches (packed
  integer words + byte spans) between the scanner and the executor
  boundary, materialized into event objects lazily,
* :mod:`repro.fastpath.tags` -- the tag-name interning whose ids index the
  flat transition table of the one union projection automaton,
  :class:`repro.pipeline.fanout.DynamicFanout`.

The run handle (:class:`repro.engine.engine.RunHandle`) drives them: one
scanner per document, whose batches it materializes per fanout slot and
executes -- solo (pull and push), multi-query, feed and serve runs alike.

The reference these are tested against is the stdlib expat event stream
of :mod:`repro.xmlstream.parser` (``iter_events`` / ``parse_tree``), which
also backs the DOM baselines and the conformance oracle's expected output;
it is not an engine path and shares no tokenizing code with the scanner
(string-level parsing deferred to materialization is in
:mod:`repro.fastpath.markup`).
"""

from __future__ import annotations

from repro.fastpath.batch import SoABatch
from repro.fastpath.scanner import ByteScanner
from repro.fastpath.tags import TagTable

__all__ = [
    "ByteScanner",
    "SoABatch",
    "TagTable",
]
