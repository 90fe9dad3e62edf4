"""Public-API-surface snapshot: accidental breakage fails loudly.

The EXPECTED_SURFACE literal below freezes every exported name of the
``repro`` package together with its signature (functions), constructor and
public members (classes).  Any unintentional change to the public surface
-- a renamed keyword, a dropped method, a changed default -- fails this
test with a readable diff.

When a change is *intentional*, regenerate the literal::

    PYTHONPATH=src python tests/test_api_surface.py --regenerate

and commit the updated snapshot together with the change (and a CHANGES.md
note: the public surface is a contract).
"""

import inspect
import json
import re
import sys

import repro


def _normalize(text: str) -> str:
    """Replace unstable sentinel reprs (memory addresses) with a token."""
    return re.sub(r"<object object at 0x[0-9a-f]+>", "<UNSET>", text)


def _describe(name: str) -> dict:
    obj = getattr(repro, name)
    if inspect.isclass(obj):
        entry = {"kind": "class"}
        try:
            entry["init"] = _normalize(str(inspect.signature(obj.__init__)))
        except (ValueError, TypeError):  # pragma: no cover - builtins
            entry["init"] = None
        members = {}
        for attr, value in sorted(vars(obj).items()):
            if attr.startswith("_"):
                continue
            if callable(value):
                try:
                    members[attr] = _normalize(str(inspect.signature(value)))
                except (ValueError, TypeError):  # pragma: no cover
                    members[attr] = None
            elif isinstance(value, property):
                members[attr] = "<property>"
        entry["members"] = members
        return entry
    if callable(obj):
        return {"kind": "function", "signature": _normalize(str(inspect.signature(obj)))}
    return {"kind": "value", "type": type(obj).__name__}


def current_surface() -> dict:
    return {name: _describe(name) for name in sorted(repro.__all__)}


def test_public_api_surface_matches_snapshot():
    actual = current_surface()
    expected = json.loads(EXPECTED_SURFACE)
    added = sorted(set(actual) - set(expected))
    removed = sorted(set(expected) - set(actual))
    assert not removed, f"exported names disappeared from repro.__all__: {removed}"
    assert not added, (
        f"new exported names {added}: extend the snapshot intentionally "
        "(python tests/test_api_surface.py --regenerate)"
    )
    for name in expected:
        assert actual[name] == expected[name], (
            f"signature of repro.{name} changed:\n"
            f"  expected {json.dumps(expected[name], indent=2)}\n"
            f"  actual   {json.dumps(actual[name], indent=2)}\n"
            "If intentional, regenerate the snapshot."
        )


def test_all_names_resolve_and_are_sorted():
    assert list(repro.__all__) == sorted(repro.__all__)
    for name in repro.__all__:
        assert getattr(repro, name) is not None


EXPECTED_SURFACE = r"""
{
    "CollectSink": {
        "init": "(self, stats: 'Optional[RunStatistics]' = None)",
        "kind": "class",
        "members": {
            "text": "(self) -> 'Optional[str]'"
        }
    },
    "DEFAULT_OPTIONS": {
        "kind": "value",
        "type": "ExecutionOptions"
    },
    "DocumentResult": {
        "init": "(self, index: 'int', start_offset: 'int', end_offset: 'int', result: 'RunResult') -> None",
        "kind": "class",
        "members": {}
    },
    "ExecutionOptions": {
        "init": "(self, expand_attrs: 'bool' = False, memory_budget: 'Optional[int]' = None, chunk_size: 'int' = 65536, trace: 'Optional[bool]' = None) -> None",
        "kind": "class",
        "members": {
            "replace": "(self, **changes) -> \"'ExecutionOptions'\""
        }
    },
    "FeedHandle": {
        "init": "(self, open_document, *, options: 'Optional[ExecutionOptions]' = None, governor=None, on_document=None, on_heartbeat=None, resume_from: 'Optional[int]' = None, progress=None)",
        "kind": "class",
        "members": {
            "bytes_fed": "<property>",
            "close": "(self) -> 'None'",
            "documents_completed": "<property>",
            "feed": "(self, chunk) -> 'List[DocumentResult]'",
            "finish": "(self) -> 'FeedResult'",
            "progress": "(self) -> 'dict'",
            "resume_offset": "<property>"
        }
    },
    "FeedResult": {
        "init": "(self, documents_completed: 'int', resume_offset: 'int', bytes_fed: 'int') -> None",
        "kind": "class",
        "members": {}
    },
    "FluxEngine": {
        "init": "(self, query: 'Union[str, XQExpr, FluxExpr]', dtd: 'DTD', *, root_element: 'Optional[str]' = None, projection: 'bool' = True)",
        "kind": "class",
        "members": {
            "describe_buffers": "(self) -> 'str'",
            "flux_source": "(self) -> 'str'"
        }
    },
    "FluxRunResult": {
        "init": "(self, output: 'Optional[str]', stats: \"'RunStatistics'\", trace: 'Optional[TraceReport]' = None) -> None",
        "kind": "class",
        "members": {
            "peak_buffered_bytes": "<property>",
            "peak_buffered_events": "<property>"
        }
    },
    "FluxSession": {
        "init": "(self, dtd: 'Union[str, DTD]', *, root_element: 'Optional[str]' = None, options: 'Optional[ExecutionOptions]' = None, plan_cache: 'Optional[PlanCache]' = None)",
        "kind": "class",
        "members": {
            "close": "(self) -> 'None'",
            "memory_telemetry": "(self) -> 'Optional[dict]'",
            "prepare": "(self, query: 'QuerySource', *, projection: 'bool' = True) -> 'PreparedQuery'",
            "prepare_many": "(self, queries: 'Union[Mapping[str, QuerySource], Sequence[QuerySource]]', *, projection: 'bool' = True) -> 'PreparedQuery'"
        }
    },
    "FragmentSink": {
        "init": "(self, stats: 'Optional[RunStatistics]' = None)",
        "kind": "class",
        "members": {
            "drain": "(self) -> 'str'"
        }
    },
    "MemoryGovernor": {
        "init": "(self, budget_bytes: 'Optional[int]' = None, *, page_bytes: 'Optional[int]' = None, spill_dir: 'Optional[str]' = None)",
        "kind": "class",
        "members": {
            "close": "(self) -> 'None'",
            "discard": "(self, page) -> 'None'",
            "open_page": "(self, page) -> 'None'",
            "read_page": "(self, page) -> \"List['object']\"",
            "seal": "(self, page) -> 'None'",
            "telemetry": "(self) -> 'dict'"
        }
    },
    "MetricsRegistry": {
        "init": "(self)",
        "kind": "class",
        "members": {
            "collect": "(self) -> 'List[object]'",
            "counter": "(self, name: 'str', help: 'str' = '') -> 'Counter'",
            "gauge": "(self, name: 'str', help: 'str' = '', fn: 'Optional[Callable[[], float]]' = None) -> 'Gauge'",
            "histogram": "(self, name: 'str', help: 'str' = '', buckets: 'Sequence[float]' = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0)) -> 'Histogram'",
            "snapshot": "(self) -> 'dict'",
            "unregister": "(self, name: 'str') -> 'None'"
        }
    },
    "MultiQueryRun": {
        "init": "(self, results: 'Dict[str, FluxRunResult]', elapsed_seconds: 'float', memory: 'Optional[dict]' = None, trace: 'Optional[TraceReport]' = None)",
        "kind": "class",
        "members": {
            "items": "(self)",
            "outputs": "(self) -> 'Dict[str, Optional[str]]'"
        }
    },
    "NaiveDomEngine": {
        "init": "(self, query: 'Union[str, XQExpr]')",
        "kind": "class",
        "members": {
            "run": "(self, document: 'DocumentSource', *, collect_output: 'bool' = True) -> 'BaselineResult'",
            "run_tree": "(self, root: 'XMLNode', *, collect_output: 'bool' = True) -> 'BaselineResult'"
        }
    },
    "NullSink": {
        "init": "(self, stats: 'Optional[RunStatistics]' = None)",
        "kind": "class",
        "members": {}
    },
    "OutputSink": {
        "init": "(self, stats: 'Optional[RunStatistics]' = None)",
        "kind": "class",
        "members": {
            "bind": "(self, stats: 'RunStatistics') -> \"'OutputSink'\"",
            "text": "(self) -> 'Optional[str]'",
            "write_event": "(self, event: 'Event') -> 'None'",
            "write_events": "(self, events: 'Iterable[Event]') -> 'None'",
            "write_text": "(self, text: 'str') -> 'None'"
        }
    },
    "PlanCache": {
        "init": "(self, capacity: 'int' = 64)",
        "kind": "class",
        "members": {
            "clear": "(self) -> 'None'",
            "get_or_build": "(self, key: 'PlanKey', builder) -> 'FluxEngine'",
            "keys": "(self)",
            "snapshot": "(self) -> 'dict'"
        }
    },
    "PlanKey": {
        "init": "(self, query_kind: 'str', query_text: 'str', dtd_fingerprint: 'str', projection: 'bool') -> None",
        "kind": "class",
        "members": {}
    },
    "PreparedQuery": {
        "init": "(self, session: \"'FluxSession'\", engines: 'Mapping[Optional[str], FluxEngine]')",
        "kind": "class",
        "members": {
            "describe_buffers": "(self) -> 'str'",
            "engine": "<property>",
            "execute": "(self, document: 'DocumentSource', *, sink=None, sinks: 'Optional[Mapping[str, object]]' = None, options: 'Optional[ExecutionOptions]' = None, **overrides) -> 'RunResult'",
            "flux_source": "<property>",
            "names": "<property>",
            "open_feed": "(self, sink=None, *, sinks: 'Optional[Mapping[str, object]]' = None, options: 'Optional[ExecutionOptions]' = None, on_document=None, on_heartbeat=None, resume_from: 'Optional[int]' = None, **overrides) -> \"'FeedHandle'\"",
            "open_run": "(self, sink=None, *, sinks: 'Optional[Mapping[str, object]]' = None, options: 'Optional[ExecutionOptions]' = None, **overrides) -> 'RunHandle'",
            "plan": "<property>",
            "stream": "(self, document: 'DocumentSource', *, options: 'Optional[ExecutionOptions]' = None, **overrides) -> 'StreamingRun'"
        }
    },
    "ProjectionDomEngine": {
        "init": "(self, query: 'Union[str, XQExpr]')",
        "kind": "class",
        "members": {
            "run": "(self, document: 'DocumentSource', *, collect_output: 'bool' = True) -> 'BaselineResult'",
            "run_events": "(self, events: 'Iterable[Event]', *, collect_output: 'bool' = True) -> 'BaselineResult'"
        }
    },
    "RunHandle": {
        "init": "(self, fanout: 'DynamicFanout', seats: 'Sequence[Optional[Seat]]', options: 'Optional[ExecutionOptions]' = None, *, governor: 'Optional[MemoryGovernor]' = None, mode: 'str' = 'push', on_finish=None, stop_at_root_close: 'bool' = False, base_offset: 'int' = 0, annotations: 'Optional[dict]' = None)",
        "kind": "class",
        "members": {
            "close": "(self) -> 'None'",
            "drain": "(self) -> 'str'",
            "drive": "(self, document: 'DocumentSource') -> \"'RunHandle'\"",
            "feed": "(self, chunk) -> 'Optional[str]'",
            "finish": "(self) -> 'Optional[RunResult]'",
            "progress": "(self) -> 'dict'",
            "root_closed": "<property>",
            "take_remainder": "(self) -> 'bytes'"
        }
    },
    "RunStatistics": {
        "init": "(self, input_events: 'int' = 0, input_bytes: 'int' = 0, output_events: 'int' = 0, output_bytes: 'int' = 0, buffered_events_current: 'int' = 0, buffered_bytes_current: 'int' = 0, peak_buffered_events: 'int' = 0, peak_buffered_bytes: 'int' = 0, total_buffered_events: 'int' = 0, resident_bytes_current: 'int' = 0, peak_resident_bytes: 'int' = 0, spill_count: 'int' = 0, spilled_bytes_written: 'int' = 0, page_faults: 'int' = 0, spilled_bytes_read: 'int' = 0, condition_bytes_current: 'int' = 0, peak_condition_bytes: 'int' = 0, handler_executions: 'int' = 0, elapsed_seconds: 'float' = 0.0) -> None",
        "kind": "class",
        "members": {
            "buffer_attribution": "<property>",
            "record_buffered": "(self, events: 'int', cost: 'int', settle_resident: 'bool' = True) -> 'None'",
            "record_condition_bytes": "(self, delta: 'int') -> 'None'",
            "record_freed": "(self, events: 'int', cost: 'int', resident: 'Optional[int]' = None) -> 'None'",
            "record_input": "(self, events: 'int', size: 'int') -> 'None'",
            "record_output": "(self, events: 'int', size: 'int') -> 'None'",
            "record_page_fault": "(self, encoded_bytes: 'int') -> 'None'",
            "record_spill": "(self, cost: 'int', encoded_bytes: 'int') -> 'None'",
            "summary": "(self) -> 'str'"
        }
    },
    "SessionStatistics": {
        "init": "(self, runs: 'int' = 0, feed_runs: 'int' = 0, input_events: 'int' = 0, input_bytes: 'int' = 0, output_events: 'int' = 0, output_bytes: 'int' = 0, elapsed_seconds: 'float' = 0.0, peak_buffered_bytes: 'int' = 0, peak_resident_bytes: 'int' = 0, spill_count: 'int' = 0, handler_executions: 'int' = 0) -> None",
        "kind": "class",
        "members": {
            "absorb": "(self, stats: 'RunStatistics', *, feed: 'bool' = False) -> 'None'",
            "summary": "(self) -> 'str'"
        }
    },
    "StreamingRun": {
        "init": "(self, document: 'DocumentSource', *args, **kwargs)",
        "kind": "class",
        "members": {}
    },
    "TraceReport": {
        "init": "(self, stages: 'List[StageStats]', spans: 'list', wall_seconds: 'float', mode: 'str' = 'pull')",
        "kind": "class",
        "members": {
            "stage_seconds": "<property>",
            "table": "(self) -> 'str'",
            "to_dict": "(self) -> 'dict'"
        }
    },
    "Tracer": {
        "init": "(self, clock: 'Callable[[], float]' = <built-in function perf_counter>)",
        "kind": "class",
        "members": {
            "add": "(self, counter: 'str', value: 'int' = 1) -> 'None'",
            "open_spans": "<property>",
            "span": "(self, name: 'str') -> '_ActiveSpan'"
        }
    },
    "WritableSink": {
        "init": "(self, stats=None, writable=None) -> 'None'",
        "kind": "class",
        "members": {}
    },
    "__version__": {
        "kind": "value",
        "type": "str"
    },
    "compare_engines": {
        "kind": "function",
        "signature": "(query: 'Union[str, XQExpr]', document: 'DocumentSource', dtd: 'Union[str, DTD]', *, root_element: 'Optional[str]' = None, projection: 'bool' = True) -> 'Dict[str, Dict[str, object]]'"
    },
    "global_registry": {
        "kind": "function",
        "signature": "() -> 'MetricsRegistry'"
    },
    "load_dtd": {
        "kind": "function",
        "signature": "(source: 'Union[str, DTD]', *, root_element: 'Optional[str]' = None) -> 'DTD'"
    },
    "parse_memory_budget": {
        "kind": "function",
        "signature": "(text: 'str') -> 'int'"
    },
    "prometheus_text": {
        "kind": "function",
        "signature": "(registry: 'MetricsRegistry') -> 'str'"
    },
    "validate_span_tree": {
        "kind": "function",
        "signature": "(records) -> 'List[str]'"
    }
}
"""


if __name__ == "__main__" and "--regenerate" in sys.argv:  # pragma: no cover
    print(json.dumps(current_surface(), indent=4, sort_keys=True))
