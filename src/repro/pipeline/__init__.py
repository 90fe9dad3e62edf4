"""Plan-side halves of the event pipeline: projection automata and sinks.

The execution path of the engine is a pipeline of stages::

    scan  ->  materialize  ->  execute  ->  sink

* **scan** (:mod:`repro.fastpath.scanner`) walks the document bytes once,
  tokenizing, coalescing adjacent character data and dropping events of
  subtrees the compiled plan provably never touches -- the keep/drop
  decisions come from the tag-driven automaton this package derives from
  the plan's buffer trees, value tries and handler tables
  (:mod:`repro.pipeline.projection`), run through the one union automaton
  :class:`repro.pipeline.fanout.DynamicFanout`, which is also the scanner's
  flat transition table (solo = one slot, a query set = N slots,
  ``serve`` = slots that come and go),
* **materialize** (:mod:`repro.fastpath.batch`) turns the surviving rows
  into bounded batches of SAX events, one list per fanout slot,
* **execute** (:class:`repro.engine.executor.StreamExecutor`) drives the
  compiled plan with those events via precompiled dispatch tables,
* **sink** (:mod:`repro.pipeline.sinks`) collects, discards, streams or
  writes the serialized output.

:class:`repro.engine.engine.RunHandle` is the one scan -> materialize ->
execute site, for every run shape; a prepared query's ``execute`` /
``stream`` / ``open_run`` / ``open_feed`` and the subscription hub open it.
"""

from repro.pipeline.fanout import DynamicFanout
from repro.pipeline.projection import ProjectionSpec
from repro.pipeline.sinks import (
    CollectSink,
    FragmentSink,
    NullSink,
    OutputSink,
    WritableSink,
    resolve_sink,
)

__all__ = [
    "CollectSink",
    "DynamicFanout",
    "FragmentSink",
    "NullSink",
    "OutputSink",
    "ProjectionSpec",
    "WritableSink",
    "resolve_sink",
]
