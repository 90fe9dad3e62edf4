"""The five workloads, and the child process that runs one of them.

``run.py`` generates the inputs, then starts ``python workloads.py JOB.json``
once per workload, so every workload is measured in a fresh process whose
peak RSS is its own.  The child

1. sets the program up (import, DTD, session or hub, prepare/subscribe, one
   warm-up document) and times that as ``setup_s``,
2. runs the workload untraced for the requested seconds -- the end-to-end
   numbers come from here and only from here,
3. optionally sets the program up a second time under ``trace.Recorder`` and
   runs one fixed repetition for the per-layer budget,

and prints one JSON object as its last line.  Every run uses the default
``ExecutionOptions``: the numbers follow whatever path users get.

One operation is one (query or subscription, document) result.  Each result
is hashed as it is produced and compared with the ``NaiveDomEngine``
reference digest ``run.py`` put into the job; a wrong, missing or refused
result counts in ``ops_failed`` and never stops the remaining work.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import trace as layer_trace  # benchmarks/perf/trace.py (this directory is sys.path[0])
from datagen import sha256_text

CHUNK = 64 * 1024
MB = 1e6

#: Sizes define the workload; ``--seconds`` only decides how often it repeats.
SPECS: Dict[str, dict] = {
    "solo.stream": {
        "kind": "solo",
        "scale": 16.0,
        "queries": ["Q1", "Q13", "Q20"],
        "why": "Zero/O(1)-buffer queries over a 10 MB document: scan, coalesce, project "
        "and sink carry the time, so scanner and pipeline changes show here.",
    },
    "solo.join": {
        "kind": "solo",
        "scale": 1.0,
        "queries": ["Q8", "Q11"],
        "why": "Join queries over 0.6 MB: over 90% executor, under 5% scan, so an "
        "executor fix shows here and a scanner change must not.",
    },
    "multi.spill": {
        "kind": "multi",
        "scale": 1.0,
        "queries": ["Q8", "Q11", "Q20"],
        "budget_divisor": 4,
        "why": "One shared pass for three queries under a quarter of their unbounded "
        "buffer peak: paged buffers, spill and fault traffic; the only workload "
        "through multiquery and storage.",
    },
    "serve.fanout": {
        "kind": "fanout",
        "scale": 0.01,
        "documents": 240,
        "queries": ["Q1", "Q13", "Q20"],
        "subscriptions": 200,
        "segment": 60,
        "why": "In-process hub with 200 mostly-duplicate block-policy subscriptions over "
        "8 KB ticker documents: per-subscription executor cost and fan-out, no wire.",
    },
    "serve.tcp": {
        "kind": "tcp",
        "scale": 0.01,
        "documents": 240,
        "queries": ["Q1", "Q13", "Q20"],
        "subscriptions": 6,
        "window": 8,
        "segment": 100,
        "rate": 60.0,
        "closed_share": 0.4,
        "trace_closed_docs": 500,
        "trace_open_docs": 120,
        "why": "Server in its own process, 6 subscriptions over TCP, closed loop then a "
        "fixed 60 docs/s open loop: NDJSON encode, queues and the TCP hop carry the weight.",
    },
}

#: Toy sizes for ``--smoke``: same code, seconds instead of minutes.
SMOKE: Dict[str, dict] = {
    "solo.stream": {"scale": 0.2},
    "solo.join": {"scale": 0.05},
    "multi.spill": {"scale": 0.05},
    "serve.fanout": {"documents": 6, "subscriptions": 12, "segment": 3},
    "serve.tcp": {"documents": 6, "segment": 6, "trace_closed_docs": 12, "trace_open_docs": 6},
}

#: The small document every solo/multi set-up warms up on.
WARMUP_SCALE = 0.05


def spec_for(name: str, smoke: bool) -> dict:
    spec = dict(SPECS[name], name=name)
    if smoke:
        spec.update(SMOKE[name])
    return spec


def child_environment(tmp_dir) -> dict:
    """The environment measured processes run in: no ``REPRO_*`` toggle
    survives, imports come from this checkout's ``src/``, temp (spill) files
    stay inside the checkout."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp_dir)
    return env


# ------------------------------------------------------------------ helpers


class HashSink:
    """A writable that hashes result bytes as the program produces them."""

    def __init__(self):
        self._digest = hashlib.sha256()

    def write(self, text: str) -> None:
        self._digest.update(text.encode("utf-8"))

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


class Outcome:
    """Failure accounting: operations attempted/failed plus violated checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations: List[str] = []

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.violate(f"wrong or missing result: {what}")

    def missing(self, count: int, what: str) -> None:
        if count > 0:
            self.attempted += count
            self.failed += count
            self.violate(f"{count} results missing: {what}")

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.violate(what)

    def violate(self, what: str) -> None:
        if len(self.violations) < 20:
            self.violations.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.violations


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def enough(started: float, done: int, seconds: Optional[float]) -> bool:
    """Whether a time-bounded loop should stop after ``done`` repetitions:
    a fixed single repetition when ``seconds`` is None, otherwise as close
    to ``seconds`` as whole repetitions allow."""
    if seconds is None:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * elapsed / done >= seconds


class Measurement:
    """What one pass produced: per-repetition samples and operation latencies.

    The reported value of a timing is its **best repetition** (highest rate,
    lowest latency), the median is kept beside it.  On a shared two-core box
    interference only ever slows a repetition down, in bursts and in drifts
    of tens of seconds: over 100 back-to-back ``solo.join`` repetitions the
    median of ten moved 5.7% between windows, the best of ten 2.7%.
    """

    def __init__(self):
        self.throughput: List[float] = []  # MB/s per repetition
        self.docs_per_s: List[float] = []  # per repetition
        self.latency_ms: List[float] = []  # per operation
        self.latency_rep_ms: List[float] = []  # median per repetition
        #: Solo only: a repetition assembled from each query's best pass.
        self.best: Dict[str, float] = {}
        self.rep_walls: List[float] = []
        self.started_at = time.perf_counter()  # set again when the timed part begins
        self.wall = 0.0  # the timed part, first document due to last result in hand
        self.peak_buffered_bytes = 0
        self.input_bytes = 0  # bytes the program scanned (document bytes x passes)
        self.documents = 0
        self.extra: dict = {}

    def repetition(self, wall: float, input_bytes: int, answered: int, *, documents: int = 1,
                   passes: int = 1, latencies_ms: Optional[List[float]] = None) -> None:
        """One closed-loop repetition: ``documents`` documents of
        ``input_bytes`` in total, each answered by ``answered`` queries or
        subscriptions, scanned ``passes`` times."""
        self.rep_walls.append(wall)
        self.throughput.append(input_bytes * answered / wall / MB)
        self.docs_per_s.append(documents / wall)
        self.input_bytes += input_bytes * passes
        self.documents += documents
        if latencies_ms is not None:
            self.latency_ms.extend(latencies_ms)
            self.latency_rep_ms.append(median(latencies_ms))


def failure_report(workload: str, what: str) -> dict:
    """The report of a workload that produced none: one failed operation."""
    return {
        "workload": workload, "error": what, "correct": False,
        "ops_attempted": 1, "ops_failed": 1, "violations": [what],
    }


class Workload:
    """What the child main needs from a workload: ``setup``, ``run``, ``close``,
    the program counters of the last run, and whose peak RSS to report."""

    def __init__(self, job: dict, traced: bool = False):
        self.job = job
        self.spec = job["spec"]
        self.refs = job["inputs"]["refs"]
        self.traced = traced
        self.counters: dict = {}

    def rss_kb(self) -> int:
        return peak_rss_kb()


def peak_rss_kb() -> int:
    """This process's peak resident set.  ``VmHWM`` belongs to the image that
    was exec'ed; ``ru_maxrss`` also remembers the parent's size at fork, which
    here would be ``run.py`` holding a whole DOM for the reference."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ------------------------------------------------------- solo.stream / join


class Solo(Workload):
    """Each query push-fed over the cached document through
    ``session.prepare(q).open_run(sink)``: bytes in, result bytes out."""

    def __init__(self, job: dict, traced: bool = False):
        super().__init__(job, traced)
        self.path = job["inputs"]["path"]
        self.document_bytes = job["inputs"]["document_bytes"]

    def setup(self, outcome: Outcome) -> None:
        from repro import FluxSession
        from repro.xmark import BENCHMARK_QUERIES, xmark_dtd

        self.session = FluxSession(xmark_dtd())
        self.prepared = {
            name: self.session.prepare(BENCHMARK_QUERIES[name]) for name in self.spec["queries"]
        }
        warmup = self.job["inputs"]["warmup"]
        for name in self.spec["queries"]:
            _wall, digest, _stats = self._operation(name, warmup["path"])
            outcome.operation(digest == warmup["refs"][name][0], f"{name} on the warm-up document")

    def _operation(self, name: str, path: str):
        """One (query, document) result: first chunk read to last byte hashed."""
        sink = HashSink()
        started = time.perf_counter()
        with open(path, "rb") as handle, self.prepared[name].open_run(sink) as run:
            while True:
                chunk = handle.read(CHUNK)
                if not chunk:
                    break
                run.feed(chunk)
        wall = time.perf_counter() - started
        return wall, sink.hexdigest(), run.result.stats

    def run(self, seconds: Optional[float], outcome: Outcome) -> Measurement:
        from repro.xmark.queries import ZERO_BUFFER_QUERIES

        queries = self.spec["queries"]
        result = Measurement()
        best = {name: float("inf") for name in queries}
        started = result.started_at
        while True:
            walls = []
            peaks = 0
            output_bytes = 0
            for name in queries:
                wall, digest, stats = self._operation(name, self.path)
                walls.append(wall)
                best[name] = min(best[name], wall)
                outcome.operation(digest == self.refs[name][0], f"{name} on the document")
                if name in ZERO_BUFFER_QUERIES:
                    outcome.check(
                        stats.peak_buffered_bytes == 0,
                        f"{name} buffered {stats.peak_buffered_bytes} bytes (paper: zero)",
                    )
                peaks += stats.peak_buffered_bytes
                output_bytes += stats.output_bytes
            result.repetition(
                sum(walls), self.document_bytes, len(queries), passes=len(queries),
                latencies_ms=[1000 * w for w in walls],
            )
            result.peak_buffered_bytes = max(result.peak_buffered_bytes, peaks)
            if enough(started, len(result.rep_walls), seconds):
                break
        # The queries run back to back and independently, so each may take
        # its best pass from a different repetition.
        result.wall = sum(result.rep_walls)
        total = sum(best.values())
        result.best = {
            "throughput_mb_s": self.document_bytes * len(queries) / total / MB,
            "docs_per_s": 1 / total,
            "latency_p50_ms": 1000 * median(list(best.values())),
        }
        self.counters = {"buffers.peak_bytes": peaks, "sink.bytes_out": output_bytes}
        return result

    def close(self) -> None:
        self.session.close()

    # ------------------------------------------------------ diagnostics only

    def obs_stage_seconds(self) -> Dict[str, float]:
        """The program's own stage table (``trace=True``), summed over the
        workload's queries -- only for the cross-check against outside-in
        self times, never for a reported number."""
        totals: Dict[str, float] = {}
        for name in self.spec["queries"]:
            sink = HashSink()
            with open(self.path, "rb") as handle, self.prepared[name].open_run(sink, trace=True) as run:
                while True:
                    chunk = handle.read(CHUNK)
                    if not chunk:
                        break
                    run.feed(chunk)
            for stage in run.result.trace.stages:
                totals[stage.name] = totals.get(stage.name, 0.0) + stage.seconds
        return totals


# --------------------------------------------------------------- multi.spill


class MultiSpill(Workload):
    """``session.prepare_many({...}).execute(path)``: one shared pass, one
    governor, budget = a fraction of the summed unbounded logical peaks."""

    def __init__(self, job: dict, traced: bool = False):
        super().__init__(job, traced)
        self.path = Path(job["inputs"]["path"])
        self.document_bytes = job["inputs"]["document_bytes"]

    def setup(self, outcome: Outcome) -> None:
        from repro import FluxSession
        from repro.xmark import BENCHMARK_QUERIES, xmark_dtd

        self.session = FluxSession(xmark_dtd())
        self.queries = self.session.prepare_many(
            {name: BENCHMARK_QUERIES[name] for name in self.spec["queries"]}
        )
        warmup = self.job["inputs"]["warmup"]
        _wall, digests, _run = self._pass(Path(warmup["path"]), None)
        for name, digest in digests.items():
            outcome.operation(digest == warmup["refs"][name][0], f"{name} on the warm-up document")

    def _pass(self, path: Path, budget: Optional[int]):
        sinks = {name: HashSink() for name in self.spec["queries"]}
        started = time.perf_counter()
        run = self.queries.execute(path, sinks=sinks, memory_budget=budget)
        wall = time.perf_counter() - started
        return wall, {name: sink.hexdigest() for name, sink in sinks.items()}, run

    def run(self, seconds: Optional[float], outcome: Outcome) -> Measurement:
        queries = self.spec["queries"]
        # Calibration, outside the timed repetitions: one unbounded pass whose
        # summed logical peaks fix the budget (deterministic per document).
        calibrate_s, digests, run = self._pass(self.path, None)
        for name in queries:
            outcome.operation(digests[name] == self.refs[name][0], f"{name} unbounded")
        unbounded_peak = sum(r.stats.peak_buffered_bytes for r in run.results.values())
        self.budget = max(1, unbounded_peak // self.spec["budget_divisor"])
        result = Measurement()
        started = result.started_at
        while True:
            wall, digests, run = self._pass(self.path, self.budget)
            for name in queries:
                outcome.operation(digests[name] == self.refs[name][0], f"{name} under budget")
            memory = run.memory or {}
            outcome.check(
                memory.get("peak_resident_bytes", self.budget + 1) <= self.budget,
                f"resident {memory.get('peak_resident_bytes')} bytes over budget {self.budget}",
            )
            outcome.check(memory.get("spill_count", 0) > 0, "nothing spilled under the budget")
            result.repetition(
                wall, self.document_bytes, len(queries), latencies_ms=[1000 * wall] * len(queries)
            )
            result.peak_buffered_bytes = max(
                result.peak_buffered_bytes,
                sum(r.stats.peak_buffered_bytes for r in run.results.values()),
            )
            if enough(started, len(result.rep_walls), seconds):
                break
        result.wall = sum(result.rep_walls)
        result.extra = {
            "calibrate_s": calibrate_s,
            "memory_budget_bytes": self.budget,
            "unbounded_peak_bytes": unbounded_peak,
        }
        self.counters = {
            "buffers.peak_bytes": result.peak_buffered_bytes,
            "sink.bytes_out": sum(r.stats.output_bytes for r in run.results.values()),
            "storage.spill_count": memory.get("spill_count", 0),
            "storage.spilled_bytes": memory.get("spilled_bytes_written", 0),
            "storage.page_faults": memory.get("fault_count", 0),
            "storage.peak_resident_bytes": memory.get("peak_resident_bytes", 0),
        }
        return result

    def close(self) -> None:
        self.session.close()


# -------------------------------------------------------------- serve.fanout


def load_ticker(path: str) -> List[bytes]:
    """The cached ticker stream, one document (newline included) per item."""
    with open(path, "rb") as handle:
        return handle.read().splitlines(keepends=True)


def subscription_names(spec: dict) -> List[tuple]:
    """``(subscription name, query name)`` round-robin over the queries."""
    queries = spec["queries"]
    return [
        (f"s{index:03d}-{queries[index % len(queries)]}", queries[index % len(queries)])
        for index in range(spec["subscriptions"])
    ]


def replayed_buffer_peak(documents, queries) -> float:
    """``peak_buffered_bytes`` of a serve workload: each query subscribed once
    to an in-process hub that is fed every ticker document once; the sum over
    the queries of their per-document ``stats.peak_buffered_bytes``, averaged
    over the documents.  A replay, because TCP result frames carry no
    statistics and because how many documents a timed run reaches depends on
    the machine -- this number depends on the seed alone."""
    from repro.serve import SubscriptionHub
    from repro.xmark import BENCHMARK_QUERIES, xmark_dtd

    with SubscriptionHub(xmark_dtd()) as hub:
        subscriptions = [
            hub.subscribe(BENCHMARK_QUERIES[query], max_queue=len(documents) + 1)
            for query in queries
        ]
        for document in documents:
            hub.feed(document)
    total = sum(
        result.stats.peak_buffered_bytes
        for subscription in subscriptions
        for result in subscription.results()
    )
    return total / len(documents)


class ServeFanout(Workload):
    """In-process ``SubscriptionHub``: one feeder thread, one drainer thread."""

    def setup(self, outcome: Outcome) -> None:
        from repro.serve import SubscriptionHub
        from repro.xmark import BENCHMARK_QUERIES, xmark_dtd

        self.documents = load_ticker(self.job["inputs"]["path"])
        self.hub = SubscriptionHub(xmark_dtd())
        self.subscriptions = [
            (self.hub.subscribe(BENCHMARK_QUERIES[query], name=name), query)
            for name, query in subscription_names(self.spec)
        ]
        self.fed: List[int] = []  # hub document number -> ticker index
        self.due: List[float] = []
        self.result_bytes = 0
        self._feed(0)
        self._drain_document(0, outcome)

    def _feed(self, index: int) -> None:
        self.fed.append(index)
        self.due.append(time.perf_counter())
        self.hub.feed(self.documents[index])

    def _drain_document(self, number: int, outcome: Outcome, latencies=None) -> Optional[float]:
        """Take document ``number``'s result from every subscription; the
        time the last one was in hand, or ``None`` when the feed ended."""
        now = None
        for position, (subscription, query) in enumerate(self.subscriptions):
            result = subscription.get(timeout=60.0)
            if result is None:
                if position:
                    outcome.missing(len(self.subscriptions) - position, f"document {number}")
                return None
            now = time.perf_counter()
            ok = (
                result.document == number
                and sha256_text(result.output) == self.refs[query][self.fed[number]]
            )
            outcome.operation(ok, f"{subscription.name} document {number}")
            if latencies is not None:
                latencies.append(1000 * (now - self.due[number]))
            self.result_bytes += len(result.output)
        return now

    def run(self, seconds: Optional[float], outcome: Outcome) -> Measurement:
        segment = self.spec["segment"]
        first = len(self.fed)
        feeder_error: List[BaseException] = []

        def feeder() -> None:
            # Closed loop: the hub's block policy holds the feeder back once
            # any subscription's bounded queue is full.
            try:
                started = time.perf_counter()
                segments = 0
                cursor = first
                while True:
                    for _ in range(segment):
                        self._feed(cursor % len(self.documents))
                        cursor += 1
                    segments += 1
                    if enough(started, segments, seconds):
                        break
                self.hub.finish()
            except BaseException as exc:  # noqa: BLE001 - reported by the drainer thread
                feeder_error.append(exc)
                self.hub.close()

        thread = threading.Thread(target=feeder, name="bench-feeder")
        result = Measurement()
        phase_started = result.started_at
        thread.start()
        number = first
        boundary = phase_started
        done_at = None
        latencies: List[float] = []
        while True:
            drained_at = self._drain_document(number, outcome, latencies)
            if drained_at is None:
                break
            done_at = drained_at
            number += 1
            if (number - first) % segment == 0:
                size = sum(len(self.documents[index]) for index in self.fed[number - segment:number])
                result.repetition(
                    done_at - boundary, size, len(self.subscriptions),
                    documents=segment, latencies_ms=latencies,
                )
                latencies = []
                boundary = done_at
        thread.join(timeout=60.0)
        result.wall = (done_at or time.perf_counter()) - phase_started
        if feeder_error:
            outcome.violate(f"feeder failed: {feeder_error[0]!r}")
        outcome.missing((len(self.fed) - number) * len(self.subscriptions), "fed but never delivered")
        progress = self.hub.progress()
        delivered = sum(sub["delivered"] for sub in progress["subscriptions"])
        dropped = sum(sub["dropped"] for sub in progress["subscriptions"])
        outcome.check(
            delivered == len(self.subscriptions) * len(self.fed),
            f"delivered {delivered} != {len(self.subscriptions)} subscriptions x {len(self.fed)} documents",
        )
        outcome.check(dropped == 0, f"{dropped} results dropped")
        outcome.check(progress["fanout"]["recompiles"] == 0, "fan-out recompiled mid-stream")
        if not self.traced:
            result.peak_buffered_bytes = replayed_buffer_peak(self.documents, self.spec["queries"])
            self.counters["buffers.peak_bytes"] = result.peak_buffered_bytes
        self.counters.update({
            "sink.bytes_out": self.result_bytes,
            "attach.recompiles": progress["fanout"]["recompiles"],
            "hub.queue_depth_hwm": max(sub["peak_queue_depth"] for sub in progress["subscriptions"]),
            "hub.dropped": dropped,
        })
        return result

    def close(self) -> None:
        self.hub.close()


# ----------------------------------------------------------------- serve.tcp


class ServeTcp(Workload):
    """``ServeServer`` in a child process; this process is the load generator:
    one feeder connection, one subscriber connection, two threads."""

    HOST = "127.0.0.1"

    def __init__(self, job: dict, traced: bool = False):
        super().__init__(job, traced)
        self.server: Optional[subprocess.Popen] = None
        self.server_report: dict = {}

    def rss_kb(self) -> int:
        """The program runs in the server child, which reports its own peak."""
        return self.server_report.get("peak_rss_kb", 0)

    # ------------------------------------------------------------- lifecycle

    def setup(self, outcome: Outcome) -> None:
        self.documents = [
            line.decode("utf-8") for line in load_ticker(self.job["inputs"]["path"])
        ]
        server_job = dict(self.job, mode="server", trace=self.traced)
        job_path = Path(self.job["tmp"]) / f"server-{os.getpid()}-{int(self.traced)}.json"
        job_path.write_text(json.dumps(server_job))
        self.server = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(job_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_environment(self.job["tmp"]),
            text=True,
        )
        port = json.loads(self.server.stdout.readline())["port"]
        job_path.unlink()

        from repro.serve import SubscribeClient

        self.feeder = SubscribeClient(self.HOST, port)
        self.subscriber = SubscribeClient(self.HOST, port, timeout=60.0)
        self.names = subscription_names(self.spec)
        self.query_of = dict(self.names)
        for name, query in self.names:
            self.subscriber.subscribe(query, name=name)  # built-in names resolve server-side
        for _ in self.names:
            self.subscriber.expect("subscribed")

        self.lock = threading.Condition()
        self.fed: List[int] = []  # hub document number -> ticker index
        self.due: List[float] = []
        self.arrivals: Dict[int, List[float]] = {}
        self.completed = 0  # documents whose every result arrived
        self.completed_at: List[float] = []
        self.stats_frame: Optional[dict] = None
        self.ended = False
        self.result_bytes = 0
        self.outcome = outcome
        self.receiver = threading.Thread(target=self._receive, name="bench-receiver")
        self.receiver.start()
        self._send(0, time.perf_counter())
        self._wait_completed(1)

    def _receive(self) -> None:
        """Subscriber connection: stamp, verify and count every frame."""
        expected = len(self.names)
        try:
            while True:
                frame = self.subscriber.recv()
                now = time.perf_counter()
                if frame is None or frame.get("event") == "eof":
                    break
                event = frame.get("event")
                if event == "result":
                    number = frame["document"]
                    query = self.query_of.get(frame["name"])
                    output = frame.get("output")
                    ok = (
                        query is not None
                        and number < len(self.fed)
                        and sha256_text(output) == self.refs[query][self.fed[number]]
                    )
                    with self.lock:
                        self.outcome.operation(ok, f"{frame['name']} document {number}")
                        self.result_bytes += len(output or "")
                        stamps = self.arrivals.setdefault(number, [])
                        stamps.append(now)
                        if len(stamps) == expected:
                            self.completed += 1
                            self.completed_at.append(now)
                            self.lock.notify_all()
                elif event == "stats":
                    with self.lock:
                        self.stats_frame = frame
                        self.lock.notify_all()
                elif event == "error":
                    with self.lock:
                        self.outcome.violate(f"server error: {frame.get('message')}")
        except OSError as exc:  # socket timeout or reset: the rest counts as missing
            with self.lock:
                self.outcome.violate(f"subscriber connection failed: {exc!r}")
        finally:
            with self.lock:
                self.ended = True
                self.lock.notify_all()

    def _send(self, index: int, due: float) -> None:
        with self.lock:
            self.fed.append(index)
            self.due.append(due)
        self.feeder.send({"op": "feed", "data": self.documents[index]})

    def _wait_completed(self, count: int, timeout: float = 60.0) -> bool:
        deadline = time.monotonic() + timeout
        with self.lock:
            while self.completed < count and not self.ended:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self.lock.wait(remaining)
            return self.completed >= count

    # --------------------------------------------------------------- phases

    def _closed_loop(self, seconds: Optional[float], result: Measurement) -> None:
        """At most ``window`` documents in flight; the next goes out when one
        completes, so a slower server receives less load."""
        window, segment = self.spec["window"], self.spec["segment"]
        first = len(self.fed)
        started = time.perf_counter()
        cursor = first
        segments = 0
        while True:
            for _ in range(segment):
                with self.lock:
                    while cursor - self.completed >= window and not self.ended:
                        if not self.lock.wait(60.0):
                            return
                    if self.ended:
                        return
                self._send(cursor % len(self.documents), time.perf_counter())
                cursor += 1
            segments += 1
            if seconds is None:
                if cursor - first >= self.spec["trace_closed_docs"]:
                    break
            elif enough(started, segments, seconds):
                break
        if not self._wait_completed(cursor):
            return
        boundary = started
        for index in range(segments):
            fed = self.fed[first + index * segment:first + (index + 1) * segment]
            size = sum(len(self.documents[i].encode("utf-8")) for i in fed)
            done_at = self.completed_at[first + (index + 1) * segment - 1]
            result.repetition(done_at - boundary, size, len(self.names), documents=segment)
            boundary = done_at

    def _open_loop(self, seconds: Optional[float], result: Measurement) -> None:
        """A fixed schedule that does not slow when the server does; latency
        runs from the instant a document was *due*, so a stall is charged to
        every document it delays."""
        rate = self.spec["rate"]
        count = self.spec["trace_open_docs"] if seconds is None else max(1, int(seconds * rate))
        first = len(self.fed)
        started = time.perf_counter() + 0.05
        late: List[float] = []
        for offset in range(count):
            due = started + offset / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late.append(1000 * max(0.0, time.perf_counter() - due))
            self._send((first + offset) % len(self.documents), due)
        self._wait_completed(first + count)
        with self.lock:
            for number in range(first, first + count):
                stamps = self.arrivals.get(number, [])
                samples = [1000 * (stamp - self.due[number]) for stamp in stamps]
                result.latency_ms.extend(samples)
        # repetition samples for compare.py: medians of ten equal slices
        slices = max(1, min(10, count // 10))
        per_slice = len(result.latency_ms) // slices
        result.latency_rep_ms = [
            median(result.latency_ms[i * per_slice:(i + 1) * per_slice]) for i in range(slices)
        ]
        result.extra.update(
            {
                "open_loop_rate_docs_per_s": rate,
                "open_loop_documents": count,
                "wire.latency_p99_ms": percentile(result.latency_ms, 0.99),
                "wire.generator_late_p99_ms": percentile(late, 0.99),
                "latency_samples": len(result.latency_ms),
            }
        )

    def run(self, seconds: Optional[float], outcome: Outcome) -> Measurement:
        result = Measurement()
        share = self.spec["closed_share"]
        started = result.started_at
        self._closed_loop(None if seconds is None else seconds * share, result)
        self._open_loop(None if seconds is None else seconds * (1 - share), result)
        result.wall = time.perf_counter() - started
        self._finish(outcome)
        outcome.check(self.rss_kb() > 0, "the server child reported no peak RSS")
        if not self.traced:
            result.peak_buffered_bytes = replayed_buffer_peak(self.documents, self.spec["queries"])
            self.counters["buffers.peak_bytes"] = result.peak_buffered_bytes
        return result

    def _finish(self, outcome: Outcome) -> None:
        """Hub counters over the wire, end of feed, then stop the server."""
        self.subscriber.request_stats()
        with self.lock:
            while self.stats_frame is None and not self.ended:
                if not self.lock.wait(30.0):
                    break
        self.feeder.send({"op": "finish"})
        self.receiver.join(timeout=60.0)
        self.feeder.close()
        self.subscriber.close()
        with self.lock:
            missing = len(self.names) * len(self.fed) - sum(len(s) for s in self.arrivals.values())
            outcome.missing(missing, "fed but never received")
            progress = (self.stats_frame or {}).get("progress")
        if progress is None:
            outcome.violate("no stats frame from the server")
            progress = {"subscriptions": [], "fanout": {"recompiles": -1}}
        dropped = sum(sub["dropped"] for sub in progress["subscriptions"])
        outcome.check(dropped == 0, f"{dropped} results dropped")
        outcome.check(progress["fanout"]["recompiles"] == 0, "fan-out recompiled mid-stream")
        self._stop_server()
        if self.server_report.get("engine_error"):
            outcome.violate(f"server engine failed: {self.server_report['engine_error']}")
        self.counters = {
            "attach.recompiles": progress["fanout"]["recompiles"],
            "hub.queue_depth_hwm": max(
                [sub["peak_queue_depth"] for sub in progress["subscriptions"]] or [0]
            ),
            "hub.dropped": dropped,
            "sink.bytes_out": self.result_bytes,
        }

    def _stop_server(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        try:
            report, _ = server.communicate("stop\n", timeout=60.0)
            lines = [line for line in report.splitlines() if line.strip()]
            self.server_report = json.loads(lines[-1]) if lines else {}
        except (subprocess.TimeoutExpired, ValueError):
            server.kill()
            server.wait()

    def close(self) -> None:
        if self.server is not None:  # a failed run: do not leave the server behind
            for client in (getattr(self, "feeder", None), getattr(self, "subscriber", None)):
                if client is not None:
                    client.close()
            self._stop_server()


def server_main(job: dict) -> int:
    """The ``serve.tcp`` server child: a client-fed ``ServeServer`` that runs
    until its parent writes a line to stdin (or goes away)."""
    recorder = None
    if job["trace"]:
        recorder = layer_trace.Recorder(job["run_id"], first_id=1_000_000_000).install()
    from repro.serve import ServeServer, SubscriptionHub
    from repro.xmark import xmark_dtd

    server = ServeServer(SubscriptionHub(xmark_dtd()), host=ServeTcp.HOST, port=0).start()
    print(json.dumps({"port": server.port}), flush=True)
    sys.stdin.readline()
    server.stop()
    if recorder is not None:
        recorder.uninstall()
        recorder.write_jsonl(job["server_spans"])
    print(
        json.dumps(
            {
                "peak_rss_kb": peak_rss_kb(),
                "engine_error": repr(server.engine_error) if server.engine_error else None,
            }
        ),
        flush=True,
    )
    return 0


# ------------------------------------------------------------ the child main

KINDS = {"solo": Solo, "multi": MultiSpill, "fanout": ServeFanout, "tcp": ServeTcp}


def end_to_end(measurement: Measurement, setup_s: float, rss_kb: int) -> dict:
    """The six end-to-end metrics; timings as best repetition, median beside."""

    def timing(name: str, unit: str, samples: List[float], pick) -> dict:
        return {
            "value": measurement.best.get(name, pick(samples) if samples else 0.0),
            "unit": unit, "median": median(samples), "samples": samples,
        }

    return {
        "throughput_mb_s": timing("throughput_mb_s", "MB/s", measurement.throughput, max),
        "docs_per_s": timing("docs_per_s", "docs/s", measurement.docs_per_s, max),
        "latency_p50_ms": dict(
            timing("latency_p50_ms", "ms", measurement.latency_rep_ms, min),
            overall_p50=median(measurement.latency_ms), n=len(measurement.latency_ms),
        ),
        "peak_rss_mb": {"value": rss_kb * 1024 / MB, "unit": "MB", "samples": []},
        "peak_buffered_bytes": {
            "value": measurement.peak_buffered_bytes, "unit": "bytes", "samples": [],
        },
        "setup_s": {"value": setup_s, "unit": "s", "samples": [setup_s]},
    }


def per_layer(rows: dict, spans: list, traced: Measurement, counters: dict,
              untraced_rep_wall: float) -> dict:
    """The per-layer metrics of the traced pass: spans for time and work
    counts, the program's own counters for what only it can know."""

    def row(layer: str, field: str, default=0.0):
        return rows[layer][field] if layer in rows else default

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    entries = {e: v for row_ in rows.values() for e, v in row_["entries"].items()}

    def calls(entry: str) -> int:
        return entries.get(entry, {}).get("calls", 0)

    def entry_self(entry: str) -> float:
        return entries.get(entry, {}).get("self_s", 0.0)

    lookups = calls("FluxSession.prepare") + calls("SubscriptionHub.subscribe")
    metrics = {
        "compile.prepare_s": (row("compile", "busy_s"), "s"),
        "compile.cache_hit_ratio": (
            ratio(lookups - calls("FluxEngine.__init__"), lookups), "ratio"),
        "scan.self_s": (row("scan", "self_s"), "s"),
        "scan.events": (row("scan", "n_out", 0), "count"),
        "scan.mb_s": (ratio(traced.input_bytes / MB, row("scan", "self_s")), "MB/s"),
        "coalesce.self_s": (row("coalesce", "self_s"), "s"),
        "project.self_s": (row("project", "self_s"), "s"),
        "project.keep_ratio": (ratio(row("project", "n_out", 0), row("project", "n_in", 0)), "ratio"),
        "execute.self_s": (row("execute", "self_s"), "s"),
        "execute.events": (row("execute", "n_in", 0), "count"),
        "execute.share": (row("execute", "share"), "ratio"),
        "buffers.flushes": (row("buffers", "calls", 0), "count"),
        "buffers.materialize_s": (row("buffers", "self_s"), "s"),
        "buffers.peak_bytes": (counters.get("buffers.peak_bytes", 0), "bytes"),
        "sink.self_s": (row("sink", "self_s"), "s"),
        "sink.bytes_out": (counters.get("sink.bytes_out", 0), "bytes"),
        "storage.spill_count": (counters.get("storage.spill_count", 0), "count"),
        "storage.spilled_bytes": (counters.get("storage.spilled_bytes", 0), "bytes"),
        "storage.page_faults": (counters.get("storage.page_faults", 0), "count"),
        "storage.self_s": (row("storage", "self_s"), "s"),
        "storage.peak_resident_bytes": (counters.get("storage.peak_resident_bytes", 0), "bytes"),
        "fanout.self_s": (row("fanout", "self_s"), "s"),
        "fanout.events_out_per_in": (ratio(row("fanout", "n_out", 0), row("fanout", "n_in", 0)), "ratio"),
        "attach.s_per_subscription": (
            ratio(row("attach", "busy_s"), calls("SubscriptionHub.subscribe")), "s"),
        "attach.recompiles": (counters.get("attach.recompiles", 0), "count"),
        "hub.scan_s": (layer_trace.busy_under(spans, ("scan", "coalesce", "fanout"), "hub"), "s"),
        "hub.execute_s": (layer_trace.busy_under(spans, ("execute",), "hub"), "s"),
        "hub.enqueue_s": (row("enqueue", "busy_s"), "s"),
        "hub.queue_depth_hwm": (counters.get("hub.queue_depth_hwm", 0), "count"),
        "hub.dropped": (counters.get("hub.dropped", 0), "count"),
        "wire.encode_s": (entry_self("encode"), "s"),
        "wire.decode_s": (entry_self("decode"), "s"),
        "wire.bytes_per_doc": (ratio(row("wire", "n_out", 0), traced.documents), "bytes"),
        "wire.latency_p99_ms": (counters.get("wire.latency_p99_ms", 0.0), "ms"),
        "wire.generator_late_p99_ms": (counters.get("wire.generator_late_p99_ms", 0.0), "ms"),
        "trace_overhead": (ratio(median(traced.rep_walls), untraced_rep_wall), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_job(job: dict, started: float) -> dict:
    """Set up, measure untraced, then (optionally) trace one repetition."""
    spec = job["spec"]
    workload_class = KINDS[spec["kind"]]
    outcome = Outcome()
    report: dict = {"workload": spec["name"]}

    workload = workload_class(job)
    try:
        workload.setup(outcome)
        setup_s = time.perf_counter() - started
        report["setup_s"] = setup_s
        if job["mode"] == "setup":
            return finish_report(report, outcome)

        untraced = workload.run(job["seconds"], outcome)
        report["end_to_end"] = end_to_end(untraced, setup_s, workload.rss_kb())
        report["repetitions"] = len(untraced.rep_walls)
        report["measured_s"] = untraced.wall
        report["extra"] = untraced.extra
        untraced_counters = dict(workload.counters, **untraced.extra)
    finally:
        workload.close()

    if job["trace"]:
        recorder = layer_trace.Recorder(job["run_id"]).install()
        traced_workload = workload_class(job, traced=True)
        try:
            traced_workload.setup(outcome)
            traced = traced_workload.run(None, outcome)
            counters = dict(untraced_counters, **traced_workload.counters)
            if job.get("diagnostics") and spec["kind"] == "solo":
                recorder.uninstall()
                report["obs_stage_seconds"] = traced_workload.obs_stage_seconds()
        finally:
            traced_workload.close()
            recorder.uninstall()
        spans = list(recorder.spans)
        recorder.write_jsonl(job["spans"])
        if spec["kind"] == "tcp" and os.path.exists(job["server_spans"]):
            server_spans = layer_trace.read_jsonl(job["server_spans"])
            spans += server_spans
            with open(job["spans"], "a", encoding="utf-8") as out, open(job["server_spans"]) as src:
                out.write(src.read())
            os.remove(job["server_spans"])
        # Budget over the traced repetition only; set-up spans (compile,
        # attach) are added back so their rows exist.
        boundary = traced.started_at
        repetition_spans = [s for s in spans if s[4] >= boundary]
        setup_spans = [s for s in spans if s[4] < boundary and s[2] in ("compile", "attach")]
        rows = layer_trace.layer_budget(repetition_spans + setup_spans, traced.wall)
        report["trace"] = {
            "wall_s": traced.wall,
            "spans": len(spans),
            "skipped_entries": recorder.skipped,
            "layers": {
                layer: {k: v for k, v in row.items() if k != "entries"} for layer, row in rows.items()
            },
            "self_sum_share": sum(
                row["self_s"] for layer, row in rows.items()
                # set-up spans lie outside the wall; a blocked ``get`` is waiting, not work
                if layer not in ("compile", "attach", "dequeue")
            ) / traced.wall if traced.wall else 0.0,
        }
        report["per_layer"] = per_layer(
            rows, repetition_spans + setup_spans, traced, counters, median(untraced.rep_walls)
        )
    return finish_report(report, outcome)


def finish_report(report: dict, outcome: Outcome) -> dict:
    report["ops_attempted"] = outcome.attempted
    report["ops_failed"] = outcome.failed
    report["violations"] = outcome.violations
    report["correct"] = outcome.correct
    return report


def main(argv: List[str]) -> int:
    started = time.perf_counter()  # set-up time starts before the program is imported
    job = json.loads(Path(argv[1]).read_text())
    if job["mode"] == "server":
        return server_main(job)
    try:
        report = run_job(job, started)
    except Exception as exc:  # noqa: BLE001 - one workload's crash must not stop the others
        import traceback

        traceback.print_exc()
        report = failure_report(job["spec"]["name"], f"workload crashed: {exc!r}")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
