"""The benchmark's layer table must keep naming functions that exist.

``benchmarks/perf/trace.py`` wraps the entry points listed in its ``LAYERS``
table and *skips* the ones that no longer resolve -- deleting a code path
loses a row, never the benchmark.  The flip side is that a rename under
``src/`` can silently zero a layer's metrics.  This test resolves every
target exactly as the tracer would and pins the unresolved set to the
names that were already stale when it was written; anything else that
stops resolving is a rename to undo (or a table entry for the benchmark's
own change to update).
"""

import importlib.util
from pathlib import Path

TRACE_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "trace.py"

#: Stale since the classic pipeline and its event-object projectors went,
#: since ``prepare_many`` drives its shared pass itself, since the
#: reference event stream is expat's, since buffers are read only as
#: events (no tree conversions, no ``write_node``), and since a
#: ``prepare_many`` set is the same ``PreparedQuery`` a solo query is.
KNOWN_STALE = {
    "repro.pipeline.stages:coalesce_characters",
    "repro.pipeline.projection:StreamProjector.filter_batch",
    "repro.pipeline.fanout:MergedStreamProjector.split_batch",
    "repro.serve.fanout:DynamicStreamProjector.split_batch",
    "repro.multiquery.engine:MultiQueryEngine.run",
    "repro.multiquery.engine:MultiQueryEngine.run_to_sinks",
    "repro.xmlstream.tokenizer:Tokenizer.feed_batch",
    "repro.xmlstream.tokenizer:Tokenizer.close_batch",
    "repro.engine.buffers:EventBuffer.to_tree",
    "repro.engine.buffers:EventBuffer.to_single_node",
    "repro.storage.paged_buffer:PagedEventBuffer.to_tree",
    "repro.storage.paged_buffer:PagedEventBuffer.to_single_node",
    "repro.pipeline.sinks:OutputSink.write_node",
    "repro.core.session:PreparedQuerySet.execute",
}


def test_every_layer_target_still_resolves():
    spec = importlib.util.spec_from_file_location("perf_trace", TRACE_PY)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    targets = [target for entries in trace.LAYERS.values() for target, _ in entries]
    unresolved = {target for target in targets if trace._resolve(target) is None}
    assert unresolved == KNOWN_STALE
    assert len(targets) - len(unresolved) == 35
