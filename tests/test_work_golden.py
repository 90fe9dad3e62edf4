"""Work goldens: the amount of work each run shape does, pinned exactly.

Wall-clock numbers cannot tell a 20% gain from a lucky run on a shared
box, and the differential oracle cannot see a run that does more work for
the same output.  These counts can: they are deterministic for a given
document, so a change that moves one says so in its diff.  After a change
that moves a count on purpose, edit the fixture by hand to the counts the
failing assertion shows (the files are ``json.dumps(counts, indent=2,
sort_keys=True)``), and say which count moved and why.

* ``solo.json`` -- Q1, Q8, Q11, Q13 and Q20 on the seed-97 scale-1 XMark
  document, pulled and pushed in 4 KiB chunks: the traced stage events
  (``scan``, ``materialize``, ``execute``), handler executions, output
  events, buffered events and the buffer peak.
* ``hub.json`` -- a 30-subscription hub (Q1/Q13/Q20 round robin) over
  ticker documents 0..4: per document, the executed events and handler
  executions summed over the subscriptions.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import ExecutionOptions, FluxSession
from repro.serve import SubscriptionHub
from repro.xmark.dtd import xmark_dtd
from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.ticker import ticker_document

WORK = Path(__file__).parent / "fixtures" / "work"
QUERIES = ("Q1", "Q8", "Q11", "Q13", "Q20")
STAGES = ("scan", "materialize", "execute")
TRACED = ExecutionOptions(trace=True)
PUSH_CHUNK = 4096


def _counts(result) -> dict:
    stages = {stage.name: stage.events for stage in result.trace.stages}
    stats = result.stats
    return {
        **{f"{name}_events": stages.get(name, 0) for name in STAGES},
        "handler_executions": stats.handler_executions,
        "output_events": stats.output_events,
        "total_buffered_events": stats.total_buffered_events,
        "peak_buffered_bytes": stats.peak_buffered_bytes,
    }


def _solo_counts() -> dict:
    document = generate_document(config_for_scale(1.0, seed=97)).encode("utf-8")
    session = FluxSession(xmark_dtd())
    counts = {}
    for name in QUERIES:
        query = session.prepare(BENCHMARK_QUERIES[name])
        pulled = query.execute(document, options=TRACED)
        with query.open_run(options=TRACED) as run:
            for offset in range(0, len(document), PUSH_CHUNK):
                run.feed(document[offset : offset + PUSH_CHUNK])
        assert run.result.output == pulled.output
        counts[name] = {"pull": _counts(pulled), "push": _counts(run.result)}
    return counts


def _hub_counts(tmp_path, monkeypatch) -> list:
    trace_path = tmp_path / "hub.jsonl"
    monkeypatch.setenv("REPRO_OBS_JSON", str(trace_path))
    names = ("Q1", "Q13", "Q20")
    documents = [ticker_document(index) for index in range(5)]
    with SubscriptionHub(xmark_dtd(), options=TRACED) as hub:
        subscriptions = [
            hub.subscribe(BENCHMARK_QUERIES[names[index % len(names)]], max_queue=len(documents))
            for index in range(30)
        ]
        for document in documents:
            hub.feed(document)
        hub.finish()
    results = [list(subscription.results()) for subscription in subscriptions]
    runs = [
        record
        for record in map(json.loads, trace_path.read_text(encoding="utf-8").splitlines())
        if record["record"] == "run"
    ]
    assert len(runs) == len(documents)
    return [
        {
            "execute_events": sum(
                stage["events"] for stage in run["stages"] if stage["stage"] == "execute"
            ),
            "handler_executions": sum(
                per_subscription[index].stats.handler_executions for per_subscription in results
            ),
        }
        for index, run in enumerate(runs)
    ]


def _check(name: str, counts) -> None:
    assert counts == json.loads((WORK / name).read_text(encoding="utf-8"))


def test_solo_work_counts_match_the_golden():
    _check("solo.json", _solo_counts())


def test_hub_work_counts_match_the_golden(tmp_path, monkeypatch):
    _check("hub.json", _hub_counts(tmp_path, monkeypatch))
