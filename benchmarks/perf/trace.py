"""Outside-in span tracing: which layer of the program spent the time.

The benchmark's end-to-end numbers come from untraced runs.  A second,
*traced* pass wraps the public entry points of each layer (this repo's
modules) with a span recorder and turns the spans into a per-layer budget.
Nothing under ``src/`` is edited: the wrappers are installed from here,
around the calls into each layer, and removed again.

``LAYERS`` is the one declarative table: layer name -> entry points written
``"module:Class.method"`` or ``"module:function"``.  An entry that does not
resolve (a later change deleted or renamed it) is skipped, and a layer none
of whose entries is ever called simply has no row -- deleting a code path
loses a row, never the benchmark.

A span is ``(id, parent, layer, entry, start, end, thread, n_in, n_out)``:
``parent`` is the span that was open on the same thread when this one
started (0 for a root), ``n_in`` / ``n_out`` are optional work counts taken
at the same boundary (events into and out of a filter, for example).  Spans
stay in memory and are written as JSON lines when the pass ends; every line
carries the run id the benchmark chose, which the server child of
``serve.tcp`` shares with its load generator.

Per layer the analysis reports calls, **busy** seconds (time inside the
layer, nested spans of the same layer counted once), **self** seconds
(each span's duration minus the part its child spans cover) and self time
as a share of the traced wall time.  With one engine thread nothing
overlaps, so self shares add up to the traced wall and a layer's share
bounds what speeding it up can save.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def _size(value) -> int:
    """Events in a batch: ``len`` of a list or struct-of-arrays batch."""
    try:
        return len(value)
    except TypeError:
        return 0


def _batch_in(args) -> int:
    """Events in the batch a method was handed (``args[0]`` is ``self``)."""
    return _size(args[1]) if len(args) > 1 else 0


def _in_arg1(args, result) -> Tuple[int, int]:
    return _batch_in(args), 0


def _out_result(args, result) -> Tuple[int, int]:
    return 0, _size(result)


def _in_out(args, result) -> Tuple[int, int]:
    return _batch_in(args), _size(result)


def _in_out_split(args, result) -> Tuple[int, int]:
    """A fan-out split: one batch in, one sub-batch per query out."""
    return _batch_in(args), sum(_size(sub) for sub in result or ())


#: layer -> entry points (``target``, optional work counter).  Order is the
#: order rows are printed in: the document's path through the program.
LAYERS: Dict[str, List[Tuple[str, Optional[Callable]]]] = {
    "run": [
        # The program's own drive loops: what is left of an operation after
        # every layer below has been subtracted (decode, glue, bookkeeping).
        ("repro.engine.engine:RunHandle.feed", None),
        ("repro.engine.engine:RunHandle.finish", None),
        ("repro.core.session:PreparedQuery.open_run", None),
        ("repro.core.session:PreparedQuerySet.execute", None),
    ],
    "compile": [
        ("repro.core.session:FluxSession.prepare", None),
        ("repro.core.session:FluxSession.prepare_many", None),
        ("repro.engine.engine:FluxEngine.__init__", None),
    ],
    "scan": [
        ("repro.xmlstream.tokenizer:Tokenizer.feed_batch", _out_result),
        ("repro.xmlstream.tokenizer:Tokenizer.close_batch", _out_result),
        ("repro.fastpath.scanner:ByteScanner.feed_batch", _out_result),
        ("repro.fastpath.scanner:ByteScanner.close_batch", _out_result),
        ("repro.fastpath.batch:SoABatch.materialize", _out_result),
        ("repro.fastpath.batch:SoABatch.materialize_split", None),
    ],
    "coalesce": [
        # a module function: the batch is its first argument
        ("repro.pipeline.stages:coalesce_characters",
         lambda args, result: (_size(args[0]), _size(result))),
    ],
    "project": [
        ("repro.pipeline.projection:StreamProjector.filter_batch", _in_out),
    ],
    "fanout": [
        ("repro.multiquery.engine:MultiQueryEngine.run", None),
        ("repro.multiquery.engine:MultiQueryEngine.run_to_sinks", None),
        ("repro.pipeline.fanout:MergedStreamProjector.split_batch", _in_out_split),
        ("repro.serve.fanout:DynamicStreamProjector.split_batch", _in_out_split),
    ],
    "execute": [
        ("repro.engine.executor:StreamExecutor.begin", None),
        ("repro.engine.executor:StreamExecutor.process_batch", _in_arg1),
        ("repro.engine.executor:StreamExecutor.finish", None),
    ],
    "buffers": [
        ("repro.engine.buffers:EventBuffer.to_tree", None),
        ("repro.engine.buffers:EventBuffer.to_single_node", None),
        ("repro.storage.paged_buffer:PagedEventBuffer.to_tree", None),
        ("repro.storage.paged_buffer:PagedEventBuffer.to_single_node", None),
    ],
    "sink": [
        ("repro.pipeline.sinks:OutputSink.write_text", None),
        ("repro.pipeline.sinks:OutputSink.write_event", None),
        ("repro.pipeline.sinks:OutputSink.write_events", None),
        ("repro.pipeline.sinks:OutputSink.write_node", None),
    ],
    "storage": [
        ("repro.storage.spill:SpillStore.write", None),
        ("repro.storage.spill:SpillStore.read", None),
        ("repro.storage.codec:encode_events", None),
        ("repro.storage.codec:decode_events", None),
        ("repro.storage.governor:MemoryGovernor.seal", None),
        ("repro.storage.governor:MemoryGovernor.read_page", None),
        ("repro.storage.governor:MemoryGovernor.discard", None),
    ],
    "attach": [
        ("repro.serve.hub:SubscriptionHub.subscribe", None),
        ("repro.serve.fanout:DynamicFanout.attach", None),
        ("repro.serve.fanout:DynamicFanout.detach", None),
        ("repro.serve.fanout:DynamicFanout.compact", None),
    ],
    "hub": [
        ("repro.serve.hub:SubscriptionHub.feed", None),
        ("repro.serve.hub:SubscriptionHub.finish", None),
    ],
    "enqueue": [
        ("repro.serve.hub:Subscription._deliver", None),
    ],
    "dequeue": [
        # Consumer side; a blocking ``get`` spends its time waiting, so this
        # row reads as how long consumers sat idle, not as work.
        ("repro.serve.hub:Subscription.get", None),
        ("repro.serve.hub:Subscription.get_nowait", None),
    ],
    "wire": [
        ("repro.serve.protocol:encode", _out_result),
        ("repro.serve.protocol:decode", None),
        ("repro.serve.client:SubscribeClient.send", None),
    ],
}


def _resolve(target: str):
    """``(owner, attribute name, callable)`` for a table entry, or ``None``."""
    module_name, _, qualified = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualified.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    function = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(owner, attribute, None)
    if not callable(function):
        return None
    return owner, attribute, function


class Recorder:
    """Installs the span wrappers, holds the spans, removes the wrappers."""

    def __init__(self, run_id: str, first_id: int = 1):
        self.run_id = run_id
        self.spans: List[tuple] = []
        self.skipped: List[str] = []
        # Two processes tracing one run (serve.tcp) number their spans apart.
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, function, layer: str, entry: str, counter=None):
        """``function`` with a span recorded around every call."""
        spans_append = self.spans.append
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        thread_id = threading.get_ident

        @functools.wraps(function)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            n_in = n_out = 0
            started = clock()
            try:
                result = function(*args, **kwargs)
                if counter is not None:
                    n_in, n_out = counter(args, result)
                return result
            finally:
                ended = clock()
                stack.pop()
                spans_append(
                    (span_id, parent, layer, entry, started, ended, thread_id(), n_in, n_out)
                )

        return traced

    def install(self, layers=None) -> "Recorder":
        """Wrap every table entry that resolves."""
        for layer, entries in (layers or LAYERS).items():
            for target, counter in entries:
                found = _resolve(target)
                if found is None:
                    self.skipped.append(target)
                    continue
                owner, attribute, function = found
                entry = target.partition(":")[2]
                wrapper = self.wrap(function, layer, entry, counter)
                self._replace(owner, attribute, wrapper)
                if not isinstance(owner, type):
                    # ``from module import function`` copied the name into
                    # other modules of the program; rebind those too.
                    for module in list(sys.modules.values()):
                        name = getattr(module, "__name__", "")
                        if module is owner or not name.startswith("repro"):
                            continue
                        for alias, value in list(vars(module).items()):
                            if value is function:
                                self._replace(module, alias, wrapper)
        return self

    def _replace(self, owner, attribute: str, wrapper) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -------------------------------------------------------------- output

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span_dict(span, self.run_id)) + "\n")


def span_dict(span: tuple, run_id: str) -> dict:
    span_id, parent, layer, entry, started, ended, thread, n_in, n_out = span
    return {
        "run": run_id,
        "id": span_id,
        "parent": parent,
        "layer": layer,
        "name": entry,
        "start": started,
        "end": ended,
        "thread": thread,
        "n_in": n_in,
        "n_out": n_out,
    }


def read_jsonl(path) -> List[tuple]:
    """Spans written by :meth:`Recorder.write_jsonl`, as tuples again."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            spans.append(
                (row["id"], row["parent"], row["layer"], row["name"], row["start"],
                 row["end"], row["thread"], row["n_in"], row["n_out"])
            )
    return spans


# ---------------------------------------------------------------- analysis


def layer_budget(spans: Iterable[tuple], wall: float) -> Dict[str, dict]:
    """Per-layer calls, busy and self seconds, share of ``wall``, counts.

    ``self`` subtracts from every span the duration of its direct children.
    ``busy`` sums the spans of a layer whose parent belongs to another layer
    (or to none), so recursion inside a layer is counted once.
    """
    spans = list(spans)
    layer_of = {span[0]: span[2] for span in spans}
    child_time: Dict[int, float] = {}
    for span_id, parent, _layer, _entry, started, ended, *_ in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (ended - started)
    rows: Dict[str, dict] = {}
    for span_id, parent, layer, entry, started, ended, _thread, n_in, n_out in spans:
        row = rows.get(layer)
        if row is None:
            row = rows[layer] = {
                "calls": 0, "busy_s": 0.0, "self_s": 0.0, "n_in": 0, "n_out": 0, "entries": {},
            }
        duration = ended - started
        self_time = duration - child_time.get(span_id, 0.0)
        row["calls"] += 1
        row["self_s"] += self_time
        row["n_in"] += n_in
        row["n_out"] += n_out
        if layer_of.get(parent) != layer:
            row["busy_s"] += duration
        per_entry = row["entries"].setdefault(entry, {"calls": 0, "self_s": 0.0})
        per_entry["calls"] += 1
        per_entry["self_s"] += self_time
    for row in rows.values():
        row["share"] = row["self_s"] / wall if wall > 0 else 0.0
    return {layer: rows[layer] for layer in LAYERS if layer in rows}


def busy_under(spans: Iterable[tuple], layers, ancestor_layer: str) -> float:
    """Busy seconds of ``layers`` spans that run inside an ``ancestor_layer`` span."""
    spans = list(spans)
    by_id = {span[0]: span for span in spans}
    wanted = set(layers)
    total = 0.0
    for span in spans:
        if span[2] not in wanted:
            continue
        parent = by_id.get(span[1])
        if parent is not None and parent[2] in wanted:
            continue  # nested in a span already counted
        ancestor = parent
        while ancestor is not None and ancestor[2] != ancestor_layer:
            ancestor = by_id.get(ancestor[1])
        if ancestor is not None:
            total += span[5] - span[4]
    return total
