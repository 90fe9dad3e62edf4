"""The diagnostics layer of :mod:`repro.obs` (ISSUE 8).

Four concerns:

* **attribution exactness**: every buffered byte has an owner, the
  at-peak composition sums to the headline ``peak_buffered_bytes``
  figure exactly, and ``--explain-buffers`` renders the plan-level reason,
* **crash forensics**: an engine error leaves an atomic, schema-pinned
  ``*.crash.json`` flight-recorder dump that ``repro inspect`` renders
  (the schema is a golden file -- changing it is an explicit act),
* **live inspection**: ``/metrics`` + ``/progress`` serve during a run
  with monotonic watermarks that settle on the final statistics,
* **concurrency**: the metrics registry and the recorder ring stay sane
  under concurrent sessions (no torn reads, per-run attribution balanced).

Plus the exporter hardening that rode along: Prometheus label/help
escaping and the atomic ``REPRO_OBS_JSON`` append.
"""

from __future__ import annotations

import json
import os
import threading
import urllib.request

import pytest

from repro import FluxSession, PreparedQuery
from repro.cli import main as cli_main
from repro.conformance.oracle import _split_at_markup
from repro.core.options import ExecutionOptions
from repro.obs import (
    MetricsRegistry,
    escape_label_value,
    global_registry,
    prometheus_text,
)
from repro.obs.attrib import format_attribution
from repro.obs.export import append_jsonl
from repro.obs.recorder import CRASH_SCHEMA, RECORDER, dump_crash, inspect_crash
from repro.obs.serve import ensure_server, progress_snapshot, shutdown_servers
from repro.serve import SubscriptionHub
from repro.xmark.dtd import xmark_dtd
from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.ticker import ticker_document

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(autouse=True)
def _obs_env_off(monkeypatch):
    """Tests control the obs environment explicitly; CI matrix must not leak."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_OBS_JSON", raising=False)
    monkeypatch.delenv("REPRO_CRASH_DIR", raising=False)


@pytest.fixture(scope="module")
def xmark_doc():
    return generate_document(config_for_scale(0.02, seed=11))


def _prepare(query: str) -> PreparedQuery:
    return FluxSession(xmark_dtd()).prepare(BENCHMARK_QUERIES[query])


# ----------------------------------------------------------- attribution


def test_attribution_sums_exactly_to_peak(xmark_doc):
    result = _prepare("Q8").execute(xmark_doc)
    stats = result.stats
    assert stats.peak_buffered_bytes > 0, "Q8 must buffer for this test to bite"
    attribution = stats.attribution
    assert attribution is not None
    assert attribution.total_at_peak_bytes() == stats.peak_buffered_bytes
    assert attribution.total_live_bytes() == stats.buffered_bytes_current == 0
    assert attribution.total_spilled_bytes() == stats.spilled_bytes_written
    rows = stats.buffer_attribution
    assert rows, "a buffering run must expose at least one owner row"
    for row in rows:
        assert row["variable"]
        assert row["reason"], "every owner must carry its plan-level reason"


def test_attribution_names_the_blocking_constraint(xmark_doc):
    stats = _prepare("Q8").execute(xmark_doc).stats
    reasons = " ".join(row["reason"] for row in stats.buffer_attribution)
    # Q8's join variable buffers because an on-first handler navigates it
    # after its past() condition holds: the reason must say so, naming
    # the pruned paths that are actually kept.
    assert "past()" in reasons
    assert "[" in reasons and "]" in reasons


def test_format_attribution_renders_exact_footer(xmark_doc):
    stats = _prepare("Q8").execute(xmark_doc).stats
    table = format_attribution(stats)
    assert f"peak_buffered = {stats.peak_buffered_bytes}B" in table
    assert "(exact)" in table
    assert "reason:" in table


def test_format_attribution_streaming_run_reports_no_buffers(xmark_doc):
    stats = _prepare("Q1").execute(xmark_doc).stats
    assert stats.peak_buffered_bytes == 0
    assert "no buffers were allocated" in format_attribution(stats)


def test_spill_attribution_matches_governor(xmark_doc):
    prepared = _prepare("Q8")
    peak = prepared.execute(xmark_doc).stats.peak_buffered_bytes
    stats = prepared.execute(
        xmark_doc, options=ExecutionOptions(memory_budget=max(32, peak // 2))
    ).stats
    assert stats.spilled_bytes_written > 0, "the halved budget must force spills"
    assert stats.attribution.total_spilled_bytes() == stats.spilled_bytes_written
    assert stats.attribution.total_at_peak_bytes() == stats.peak_buffered_bytes


def test_owner_gauges_registered_globally(xmark_doc):
    _prepare("Q8").execute(xmark_doc)
    exposition = prometheus_text(global_registry())
    assert "repro_buffer_owner_" in exposition
    assert "_live_bytes" in exposition and "_spilled_bytes" in exposition


# -------------------------------------------------------- flight recorder


def test_recorder_ring_sees_batches(xmark_doc):
    RECORDER.clear()
    _prepare("Q1").execute(xmark_doc)
    kinds = [entry["kind"] for entry in RECORDER.snapshot()]
    assert "batch" in kinds
    batch = next(e for e in RECORDER.snapshot() if e["kind"] == "batch")
    assert set(batch) >= {"seq", "kind", "events", "offset", "buffered_bytes", "depth"}


def test_a_hub_batch_is_one_ring_entry_for_every_seat(tmp_path, monkeypatch):
    """200 seats used to note one ``batch`` entry each per batch, which
    pushed every document boundary out of the 512-entry ring."""
    trace = tmp_path / "trace.jsonl"
    monkeypatch.setenv("REPRO_OBS_JSON", str(trace))
    names = ("Q1", "Q13", "Q20")
    RECORDER.clear()
    with SubscriptionHub(xmark_dtd(), options=ExecutionOptions(trace=True)) as hub:
        for index in range(200):
            hub.subscribe(BENCHMARK_QUERIES[names[index % len(names)]], max_queue=4)
        for index in range(3):
            hub.feed(ticker_document(index) + "\n")
        hub.finish()
    ring = RECORDER.snapshot()
    assert [entry["index"] for entry in ring if entry["kind"] == "doc-boundary"] == [0, 1, 2]
    executed = sum(
        1
        for record in map(json.loads, trace.read_text(encoding="utf-8").splitlines())
        if record["record"] == "span"
        and record["name"] == "execute"
        and record.get("counters", {}).get("events")
    )
    assert 0 < sum(entry["kind"] == "batch" for entry in ring) <= executed


def test_no_crash_dump_without_directory(xmark_doc):
    assert dump_crash(ValueError("boom")) is None


def _crash_push_run(document: str, query: str = "Q1"):
    """Push-feed a truncated document; the engine must raise at some point."""
    session = FluxSession(xmark_dtd())
    run = session.prepare(BENCHMARK_QUERIES[query]).open_run()
    with pytest.raises(Exception):
        run.feed(document[: len(document) // 2])
        run.finish()


def test_engine_error_dumps_inspectable_crash(tmp_path, monkeypatch, xmark_doc):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
    _crash_push_run(xmark_doc)
    dumps = sorted(tmp_path.glob("*.crash.json"))
    assert len(dumps) == 1
    payload = json.loads(dumps[0].read_text(encoding="utf-8"))
    assert payload["schema"] == CRASH_SCHEMA
    assert payload["mode"] == "push"
    assert payload["error"]["type"]
    assert payload["chunk_offsets"], "push-mode dumps must record chunk boundaries"
    assert not list(tmp_path.glob("*.tmp")), "the dump write must be atomic"
    rendered = inspect_crash(str(dumps[0]))
    assert "error:" in rendered
    assert "flight ring" in rendered
    assert "chunk boundaries" in rendered


def test_pull_run_crash_dump_records_chunk_boundaries(tmp_path, monkeypatch, xmark_doc):
    """A pull run reads its document as chunks too, so its dump shows their
    boundaries like a push run's."""
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
    RECORDER.clear()
    broken = xmark_doc.encode("utf-8")[:4000]
    with pytest.raises(Exception):
        _prepare("Q1").execute(broken, options=ExecutionOptions(chunk_size=512))
    (dump,) = tmp_path.glob("*.crash.json")
    payload = json.loads(dump.read_text(encoding="utf-8"))
    assert payload["mode"] == "pull"
    assert payload["chunk_offsets"] == list(range(512, 4000, 512)) + [4000]
    chunks = [entry for entry in payload["ring"] if entry["kind"] == "chunk"]
    assert len(chunks) == 8
    assert "chunk boundaries (8 recorded): 512, 1024" in inspect_crash(str(dump))


def test_pull_run_progress_counts_the_chunks_it_reads(xmark_doc):
    """``/progress`` of a pull run counts what it has read; only ``feed``
    makes a run count as pushed."""
    data = xmark_doc.encode("utf-8")
    seen = []

    def chunks():
        for start in range(0, len(data), 4096):
            yield data[start : start + 4096]
            # Resumed once the chunk went through the run.
            ours = max(progress_snapshot()["runs"], key=lambda entry: entry["run"])
            seen.append((ours["bytes_fed"], ours["chunks_fed"]))

    pushed = global_registry().counter("repro.runs.push").value
    _prepare("Q1").execute(chunks())
    assert seen == [
        (min(start + 4096, len(data)), number)
        for number, start in enumerate(range(0, len(data), 4096), 1)
    ]
    assert global_registry().counter("repro.runs.push").value == pushed
    run = _prepare("Q1").open_run()
    run.feed(data)
    run.finish()
    assert global_registry().counter("repro.runs.push").value == pushed + 1


def test_crash_dump_schema_matches_golden(tmp_path, monkeypatch, xmark_doc):
    """The crash-dump wire format is pinned: extending it means updating
    ``tests/fixtures/crash_schema_golden.json`` deliberately."""
    with open(os.path.join(FIXTURES, "crash_schema_golden.json"), encoding="utf-8") as f:
        golden = json.load(f)
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
    _crash_push_run(xmark_doc)
    payload = json.loads(
        sorted(tmp_path.glob("*.crash.json"))[0].read_text(encoding="utf-8")
    )
    assert payload["schema"] == golden["schema"]
    assert sorted(payload) == golden["top_level_keys"]
    assert sorted(payload["error"]) == golden["error_keys"]
    assert set(payload["stats"]) >= set(golden["stats_required_keys"])
    for entry in payload["ring"]:
        assert set(entry) >= set(golden["ring_entry_required_keys"])


def test_inspect_cli_renders_and_fails_cleanly(tmp_path, capsys):
    path = dump_crash(ValueError("synthetic"), directory=str(tmp_path))
    assert path is not None
    assert cli_main(["inspect", path]) == 0
    out = capsys.readouterr().out
    assert "ValueError: synthetic" in out
    assert cli_main(["inspect", str(tmp_path / "missing.crash.json")]) == 1


def test_inspect_rejects_unknown_schema(tmp_path):
    bogus = tmp_path / "bogus.crash.json"
    bogus.write_text(json.dumps({"schema": "repro-crash/999"}), encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported crash dump schema"):
        inspect_crash(str(bogus))
    # The previous schema (it carried a since-removed ``fastpath`` field)
    # keeps rendering.
    older = tmp_path / "older.crash.json"
    older.write_text(
        json.dumps({"schema": "repro-crash/1", "mode": "push", "fastpath": True}),
        encoding="utf-8",
    )
    assert "mode: push" in inspect_crash(str(older))


# -------------------------------------------------------- live inspection


def test_serve_endpoints(xmark_doc):
    server = ensure_server(0)
    try:
        assert ensure_server(0) is server, "port 0 must reuse one ephemeral server"
        base = f"http://127.0.0.1:{server.port}"
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            assert "repro_runs_total" in response.read().decode("utf-8")
        with urllib.request.urlopen(f"{base}/progress", timeout=10) as response:
            assert response.headers["Content-Type"] == "application/json"
            progress = json.loads(response.read().decode("utf-8"))
        assert progress["open_runs"] == len(progress["runs"])
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/nope", timeout=10)
        assert excinfo.value.code == 404
    finally:
        shutdown_servers()


def test_progress_watermarks_monotonic_under_adversarial_splits(xmark_doc):
    """Satellite (f): feed at truncated-tag boundaries, snapshot after every
    chunk; watermarks never move backwards and the final snapshot equals the
    finished run's statistics totals."""
    session = FluxSession(xmark_dtd())
    run = session.prepare(BENCHMARK_QUERIES["Q8"]).open_run()
    chunks = _split_at_markup(xmark_doc)
    last = {"bytes_fed": -1, "document_offset": -1, "output_bytes": -1}
    seen = 0
    for chunk in chunks:
        run.feed(chunk)
        snapshot = progress_snapshot()
        ours = max(snapshot["runs"], key=lambda entry: entry["run"])
        assert ours["mode"] == "push" and ours["state"] == "open"
        for key in last:
            assert ours[key] >= last[key], f"{key} moved backwards"
            last[key] = ours[key]
        seen += len(chunk)
        assert ours["bytes_fed"] == seen
    result = run.finish()
    final = run.progress()
    assert final["bytes_fed"] == len(xmark_doc) == sum(len(c) for c in chunks)
    assert final["document_offset"] == result.stats.input_bytes
    assert final["output_bytes"] == result.stats.output_bytes
    assert final["buffered_bytes"] == 0
    # the finished run has left the /progress registry
    keys = [entry["run"] for entry in progress_snapshot()["runs"]]
    assert ours["run"] not in keys


def test_ensure_server_validates_the_port():
    for port in (-1, 65536, "8080", None, True):
        with pytest.raises(ValueError, match="TCP port"):
            ensure_server(port)


# ------------------------------------------------------------ exporters


def test_escape_label_value():
    assert escape_label_value('a"b') == 'a\\"b'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("a\nb") == "a\\nb"
    assert escape_label_value(0.5) == "0.5"


def test_prometheus_escapes_help_and_le_labels():
    registry = MetricsRegistry()
    registry.counter("diag.count", 'says "hi"\nand more\\')
    registry.histogram("diag.lat", buckets=(0.5,)).observe(0.1)
    text = prometheus_text(registry)
    assert '# HELP diag_count says "hi"\\nand more\\\\' in text
    assert 'le="0.5"' in text
    assert "\nand more" not in text, "a raw newline would split the HELP line"


class _FakeReport:
    wall_seconds = 0.25
    mode = "pull"
    stages = ()
    spans = ()


def test_append_jsonl_is_atomic(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    append_jsonl(path, _FakeReport(), run=0)
    append_jsonl(path, _FakeReport(), run=1)
    lines = [line for line in open(path, encoding="utf-8").read().splitlines() if line]
    assert [json.loads(line)["run"] for line in lines] == [0, 1]
    assert not list(tmp_path.glob("*.tmp")), "append must never leave temp files"


# ----------------------------------------------------------- concurrency


def test_registry_and_recorder_survive_concurrent_sessions(xmark_doc):
    """Satellite (c): N threads run buffering sessions while another hammers
    the registry and snapshots the ring.  Outputs stay byte-identical,
    per-run attribution stays exact, per-thread counters lose no bumps and
    ring snapshots never tear."""
    expected = _prepare("Q8").execute(xmark_doc).output
    threads, problems = 4, []
    bumps = 200
    done = threading.Event()

    def worker(index: int) -> None:
        try:
            counter = global_registry().counter(f"diag.stress.{index}")
            prepared = _prepare("Q8")
            for _ in range(3):
                result = prepared.execute(xmark_doc)
                if result.output != expected:
                    problems.append(f"thread {index}: output diverged")
                stats = result.stats
                if stats.attribution.total_at_peak_bytes() != stats.peak_buffered_bytes:
                    problems.append(f"thread {index}: attribution went inexact")
                if stats.attribution.total_live_bytes() != 0:
                    problems.append(f"thread {index}: live bytes left behind")
            for _ in range(bumps):
                counter.inc()
        except Exception as exc:  # noqa: BLE001 - surfaced below
            problems.append(f"thread {index}: {exc!r}")

    def hammer() -> None:
        try:
            while not done.is_set():
                for entry in RECORDER.snapshot():
                    if "seq" not in entry or "kind" not in entry:
                        problems.append(f"torn ring entry: {entry!r}")
                        return
                global_registry().snapshot()
        except Exception as exc:  # noqa: BLE001
            problems.append(f"hammer: {exc!r}")

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    observer = threading.Thread(target=hammer)
    observer.start()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    done.set()
    observer.join()
    assert problems == []
    snapshot = global_registry().snapshot()
    for index in range(threads):
        assert snapshot[f"diag.stress.{index}"] == bumps
