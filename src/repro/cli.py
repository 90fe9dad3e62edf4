"""Command-line interface: ``python -m repro --help`` lists the commands,
``python -m repro COMMAND --help`` the flags of one.

Exit codes: 0 on success; 1 when what a command reads is bad (a missing
file, malformed XML, DTD or query, an unschedulable query, a refused
connection) or when a check it runs fails; 2 on a usage error (a bad flag
value or combination).  Errors print one ``error:`` line to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.core.api import compare_engines, load_dtd
from repro.core.options import ExecutionOptions
from repro.core.session import FluxSession
from repro.pipeline.sinks import NullSink
from repro.dtd.errors import DTDError
from repro.dtd.validator import validate_document
from repro.flux.errors import FluxError
from repro.storage import parse_memory_budget
from repro.xmark.dtd import XMARK_DTD_SOURCE
from repro.xmark.generator import config_for_scale, write_document, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.ticker import DEFAULT_TICK_SCALE, iter_ticker_chunks
from repro.xmlstream.errors import XMLSyntaxError
from repro.xmlstream.parser import iter_events
from repro.xmlstream.source import iter_byte_chunks
from repro.xquery.errors import XQueryError


class _UsageError(Exception):
    """A bad flag value or combination: :func:`main` prints it, exit code 2."""


class _Given(argparse.Action):
    """Store a flag's value and note the flag in ``args.given``, so that a
    flag given can be told from one left at its default (:data:`_MOOT_FLAGS`)."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (self.option_strings[0],)


#: Errors in what a command reads -- files, sockets and spill I/O, documents,
#: schemas, queries -- that :func:`main` prints as one line, exit code 1.  A
#: failing run has written its crash dump before the error reaches ``main``.
_INPUT_ERRORS = (OSError, XMLSyntaxError, DTDError, XQueryError, FluxError)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_schema(args) -> "DTD":
    if args.dtd is None:
        return load_dtd(XMARK_DTD_SOURCE, root_element=args.root or "site")
    return load_dtd(_read(args.dtd), root_element=args.root)


def _add_schema_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dtd", help="path to the DTD file (defaults to the built-in XMark DTD)")
    parser.add_argument("--root", help="name of the document element", default=None)


def _add_query_argument(parser: argparse.ArgumentParser, repeated: str = "") -> None:
    """``--query``; given a ``repeated`` help suffix, the flag repeats."""
    parser.add_argument(
        "--query",
        required=True,
        action="append" if repeated else "store",
        help=(
            "path to the XQuery- file, or the name of a built-in XMark query "
            "(Q1, Q8, Q11, Q13, Q20)" + repeated
        ),
    )


def _resolve_query(argument: str) -> str:
    if argument in BENCHMARK_QUERIES:
        return BENCHMARK_QUERIES[argument]
    return _read(argument)


def _add_run_settings(parser: argparse.ArgumentParser) -> None:
    """``--memory-budget BYTES`` and ``--serve-metrics PORT`` (:func:`main`
    starts the metrics server)."""
    parser.add_argument(
        "--memory-budget",
        type=parse_memory_budget,
        default=None,
        metavar="BYTES",
        help=(
            "hard cap on resident buffered memory (accepts k/m/g suffixes, "
            "e.g. 32m); cold buffer pages spill to a temp file, output is "
            "unchanged"
        ),
    )
    parser.add_argument(
        "--serve-metrics",
        dest="metrics_port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve /metrics (Prometheus text) and /progress (JSON watermarks "
            "of open push-mode runs) on 127.0.0.1:PORT while the command "
            "runs (0 picks an ephemeral port); output is unchanged"
        ),
    )


def _add_generator_arguments(
    parser, mode="", scale=0.1, what="document scale (1 is about 0.62 MB)"
) -> None:
    """``--scale`` and ``--seed`` of a generated XMark input; ``mode``
    prefixes the help with when they apply."""
    parser.add_argument("--scale", type=float, default=scale, action=_Given, help=f"{mode}{what}")
    parser.add_argument("--seed", type=int, default=42, action=_Given, help=f"{mode}generator seed")


def _add_stream_source_arguments(parser: argparse.ArgumentParser) -> None:
    """The stream ``feed`` and ``serve`` read: an ``--input`` file or the
    ticker, cut into ``--chunk-size`` chunks (see :func:`_stream_source`)."""
    parser.add_argument(
        "--input",
        action=_Given,
        help=(
            "file of concatenated documents to stream (omit to generate the "
            "synthetic XMark auction ticker instead)"
        ),
    )
    parser.add_argument(
        "--documents",
        type=int,
        default=100,
        action=_Given,
        help="ticker mode: number of tick documents to stream",
    )
    _add_generator_arguments(parser, "ticker mode: ", DEFAULT_TICK_SCALE, "per-tick document scale")
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=8192,
        action=_Given,
        metavar="BYTES",
        help="cut the stream into chunks of this many bytes (boundaries land anywhere)",
    )


#: Numeric flags out of whose range a command would crash or quietly run
#: on nothing; checked before any command runs.
_POSITIVE_FLAGS = ("--scale", "--documents", "--chunk-size", "--max-queries")
_NON_NEGATIVE_FLAGS = ("--resume-from",)
#: The flags each flag makes moot: given with it, they are a usage error,
#: not silently ignored.
_MOOT_FLAGS = {
    "--document": ("--scale", "--seed"),
    "--input": ("--documents", "--scale", "--seed"),
    "--client-fed": ("--input", "--documents", "--scale", "--seed", "--chunk-size"),
}


def _check_flags(args) -> None:
    for flag in _POSITIVE_FLAGS + _NON_NEGATIVE_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None:
            continue
        if flag in _NON_NEGATIVE_FLAGS and value < 0:
            raise _UsageError(f"{flag} must not be negative")
        if flag in _POSITIVE_FLAGS and value <= 0:
            raise _UsageError(f"{flag} must be positive")
    given = getattr(args, "given", ())
    for by, flags in _MOOT_FLAGS.items():
        for flag in flags:
            if flag in given and getattr(args, by[2:].replace("-", "_"), None):
                raise _UsageError(f"{flag} has no effect with {by}")


def _start_metrics_server(port: Optional[int]) -> None:
    """Start the ``--serve-metrics`` inspection server (if asked for) for
    the rest of the process, and print its address to stderr."""
    if port is None:
        return
    from repro.obs.serve import ensure_server

    try:
        server = ensure_server(port)
    except ValueError as error:
        raise _UsageError(f"--serve-metrics: {error}") from None
    print(f"serving /metrics and /progress on http://127.0.0.1:{server.port}", file=sys.stderr)


def _options(args) -> ExecutionOptions:
    """The run options a command's ``--memory-budget`` / ``--trace`` flags
    ask for (a flag the command lacks stays unset)."""
    return ExecutionOptions(
        memory_budget=getattr(args, "memory_budget", None),
        trace=True if getattr(args, "trace", False) else None,
    )


def _session(args) -> FluxSession:
    """The session ``compile``, ``run`` and ``feed`` prepare their queries
    in: the ``--dtd``/``--root`` schema under the command's run options."""
    return FluxSession(_load_schema(args), options=_options(args))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_compile(args) -> int:
    prepared = _session(args).prepare(_resolve_query(args.query))
    print("--- scheduled FluX query ---")
    print(prepared.flux_source)
    if args.show_normalized:
        print("\n--- normalised XQuery- ---")
        print(prepared.engine.rewrite_result.normalized.to_source())
    print("\n--- buffer trees ---")
    print(prepared.describe_buffers())
    joins = prepared.plan.describe_joins()
    if joins:
        print(joins)
    # The compile step refuses an unsafe schedule, so a compiled query is safe.
    print("\nsafe for the DTD: True")
    return 0


def _cmd_run(args) -> int:
    """Execute every ``--query`` in one pass over ``--document`` (or a
    generated XMark document), to one ``--output`` file per query or to
    stdout, and report.  One query runs unnamed: its output and statistics
    carry no ``--- name ---`` labels and there is no shared-pass line."""
    outputs = args.output or []
    if outputs and len(outputs) != len(args.query):
        raise _UsageError(
            f"{len(args.query)} queries but {len(outputs)} --output paths "
            "(pass exactly one per query, or none)"
        )
    if outputs and args.discard_output:
        raise _UsageError("--output and --discard-output are mutually exclusive")
    if args.document is None and args.dtd is not None:
        raise _UsageError("--dtd needs --document: a generated document follows the XMark DTD")
    queries = {}
    for argument in args.query:
        name = argument
        suffix = 2
        while name in queries:
            name = f"{argument}#{suffix}"
            suffix += 1
        queries[name] = _resolve_query(argument)
    session = _session(args)
    if len(queries) == 1:
        prepared = session.prepare(*queries.values(), projection=not args.no_projection)
    else:
        prepared = session.prepare_many(queries, projection=not args.no_projection)
    document = args.document
    if document is None:
        document = generate_document(config_for_scale(args.scale, seed=args.seed))
    names = prepared.names
    solo = names == (None,)
    with contextlib.ExitStack() as stack:
        # Output files take fragments as they are produced: a result never
        # exists as one in-memory string, however large it is.
        files = [stack.enter_context(open(path, "w", encoding="utf-8")) for path in outputs]
        if files:
            sinks = dict(zip(names, files))
        elif args.discard_output:
            sinks = {name: NullSink() for name in names}
        else:
            sinks = None
        result = prepared.execute(document, sinks=sinks)
    members = [(None, result)] if solo else list(result.items())
    if not files and not args.discard_output:
        for name, member in members:
            if name is not None:
                print(f"--- {name} ---")
            print(member.output)
    for name, member in members:
        label = "" if name is None else f"{name}: "
        print(f"{label}{member.stats.summary()}", file=sys.stderr)
    if args.explain_buffers:
        from repro.obs.attrib import format_attribution

        for name, member in members:
            if name is not None:
                print(f"--- {name} buffers ---", file=sys.stderr)
            print(format_attribution(member.stats), file=sys.stderr)
    if not solo:
        print(
            f"shared pass over {len(names)} queries: {result.elapsed_seconds:.3f}s total",
            file=sys.stderr,
        )
    if args.stats:
        named = [(name or args.query[0], member.stats) for name, member in members]
        _print_stats(named, session.memory_telemetry())
    if result.trace is not None:
        print(result.trace.table(), file=sys.stderr)
    return 0


def _print_stats(members, memory: Optional[dict]) -> None:
    """The ``run --stats`` per-query summary table (to stderr): one row per
    ``(name, stats)``, then the shared memory governor's counters."""
    headers = (
        "query", "in events", "out bytes", "peak buffer [B]",
        "peak resident [B]", "spill bytes", "evictions",
    )
    rows = [
        (name, *map(str, (
            stats.input_events, stats.output_bytes, stats.peak_buffered_bytes,
            stats.peak_resident_bytes, stats.spilled_bytes_written, stats.spill_count,
        )))
        for name, stats in members
    ]
    widths = [
        max(len(header), *(len(row[column]) for row in rows))
        for column, header in enumerate(headers)
    ]

    def render(cells) -> str:
        # The query name is the only text column; every number right-aligns.
        rest = (cell.rjust(widths[i]) for i, cell in enumerate(cells) if i > 0)
        return "  ".join([cells[0].ljust(widths[0]), *rest]).rstrip()

    print(render(headers), file=sys.stderr)
    for row in rows:
        print(render(row), file=sys.stderr)
    if memory is not None:
        print(
            "memory budget: {budget_bytes}B (page {page_bytes}B) "
            "peak-resident={peak_resident_bytes}B "
            "spills={spill_count} pages/{spilled_bytes_written}B "
            "faults={fault_count} pages/{spilled_bytes_read}B".format(**memory),
            file=sys.stderr,
        )


def _cmd_compare(args) -> int:
    # The path goes to every engine as-is: each reads the file itself, in
    # chunks.
    rows = compare_engines(_resolve_query(args.query), args.document, _load_schema(args))
    agree = len({row["output"] for row in rows.values()}) == 1
    print(f"{'engine':>16} {'time [s]':>10} {'peak memory [B]':>16}")
    for engine, row in rows.items():
        print(f"{engine:>16} {row['elapsed_seconds']:>10.3f} {row['peak_buffered_bytes']:>16}")
    print(f"outputs identical: {agree}")
    return 0 if agree else 1


def _cmd_validate(args) -> int:
    schema = _load_schema(args)
    report = validate_document(schema, iter_events(args.document), expected_root=args.root)
    if report.is_valid:
        print(f"valid ({report.element_count} elements)")
        return 0
    print(f"INVALID ({len(report.errors)} errors)")
    for error in report.errors[: args.max_errors]:
        print(f"  - {error}")
    return 1


def _cmd_generate(args) -> int:
    config = config_for_scale(args.scale, seed=args.seed)
    if args.output:
        written = write_document(args.output, config)
        print(f"wrote {written} bytes to {args.output}")
    else:
        sys.stdout.write(generate_document(config))
    return 0


def _stream_source(args):
    """The stream ``feed`` and ``serve`` read, as ``(chunks, label)``: the
    ``--input`` file or the XMark ticker, cut into ``--chunk-size`` chunks."""
    if args.input is not None:
        return iter_byte_chunks(Path(args.input), args.chunk_size), args.input
    if args.dtd is not None:
        raise _UsageError("--dtd needs --input: the ticker streams XMark documents")
    chunks = iter_ticker_chunks(
        documents=args.documents,
        seed=args.seed,
        scale=args.scale,
        chunk_size=args.chunk_size,
    )
    return chunks, f"ticker({args.documents} docs, scale {args.scale}, seed {args.seed})"


def _cmd_feed(args) -> int:
    chunks, source = _stream_source(args)
    prepared = _session(args).prepare(_resolve_query(args.query))

    def on_document(document) -> None:
        if args.show_output:
            print(document.result.output)
        if args.verbose:
            print(
                f"doc {document.index}: bytes "
                f"[{document.start_offset}, {document.end_offset}) "
                f"output={document.result.stats.output_bytes}B "
                f"peak-buffer={document.result.stats.peak_buffered_bytes}B",
                file=sys.stderr,
            )

    def on_heartbeat(progress) -> None:
        print(
            f"heartbeat: {progress['bytes_fed']}B fed, "
            f"{progress['documents_completed']} documents, "
            f"resume offset {progress['resume_offset']}",
            file=sys.stderr,
        )

    started = time.perf_counter()
    with prepared.open_feed(
        on_document=on_document,
        on_heartbeat=on_heartbeat if args.heartbeat else None,
        resume_from=args.resume_from,
    ) as feed:
        for chunk in chunks:
            feed.feed(chunk)
    elapsed = time.perf_counter() - started
    summary = feed.result
    rate = summary.documents_completed / elapsed if elapsed > 0 else float("inf")
    print(
        f"feed over {source}: {summary.documents_completed} documents, "
        f"{summary.bytes_fed} bytes in {elapsed:.3f}s ({rate:.1f} docs/s), "
        f"resume offset {summary.resume_offset}"
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ServeServer, SubscriptionHub

    chunks, source = (None, "client-fed stream") if args.client_fed else _stream_source(args)
    hub = SubscriptionHub(_load_schema(args), options=_options(args))
    server = ServeServer(hub, host=args.host, port=args.port, chunks=chunks)
    server.start()
    print(f"subscription server on {args.host}:{server.port} ({source})", flush=True)
    try:
        server.join()
        # Give connected subscribers a window to drain their queues and
        # receive ``eof`` before the socket goes away.
        deadline = time.monotonic() + args.linger
        while time.monotonic() < deadline:
            if all(c.eof_sent or c.closed for c in list(server._connections)):
                break
            time.sleep(0.05)
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        server.stop()
    progress = hub.progress()
    print(
        f"served {progress['documents_completed']} documents, "
        f"{progress['bytes_fed']} bytes; fanout attaches={progress['fanout']['attaches']} "
        f"detaches={progress['fanout']['detaches']} recompiles={progress['fanout']['recompiles']}"
    )
    return 1 if server.engine_error is not None else 0


def _cmd_subscribe(args) -> int:
    from repro.serve import SubscribeClient

    # Built-in names travel as-is (the server resolves them); anything else
    # must be a local query file whose text goes over the wire.
    queries = [q if q in BENCHMARK_QUERIES else _read(q) for q in args.query]
    results = 0
    status = 0
    with SubscribeClient(args.host, args.port, timeout=args.timeout) as client:
        for query in queries:
            client.subscribe(query, policy=args.policy, max_queue=args.max_queue)
        for frame in client.frames():
            event = frame.get("event")
            if event == "subscribed":
                print(f"subscribed as {frame['name']}", file=sys.stderr)
            elif event == "result":
                results += 1
                if not args.quiet:
                    print(frame["output"], end="")
                    if frame["output"] and not frame["output"].endswith("\n"):
                        print()
                if args.max_results is not None and results >= args.max_results:
                    break
            elif event == "error":
                print(f"server error: {frame.get('message')}", file=sys.stderr)
                status = 1
            elif event == "eof":
                break
    print(f"{results} results received", file=sys.stderr)
    return status


def _cmd_inspect(args) -> int:
    from repro.obs.recorder import inspect_crash

    status = 0
    for path in args.dump:
        try:
            print(inspect_crash(path))
        except (OSError, ValueError) as error:
            print(f"error: cannot inspect {path}: {error}", file=sys.stderr)
            status = 1
    return status


def _cmd_fuzz(args) -> int:
    from repro.conformance import ConformanceFailure, fuzz, replay

    if args.replay:
        failures = 0
        for path in args.replay:
            try:
                report = replay(path)
            except ConformanceFailure as failure:
                failures += 1
                print(f"{path}: FAIL")
                for divergence in failure.divergences:
                    print(f"  - {divergence}")
            else:
                facts = []
                if report.buffered:
                    facts.append("buffered")
                if report.forced_spills:
                    facts.append("forced spills")
                print(f"{path}: PASS ({', '.join(facts) if facts else 'streaming-only'})")
        return 1 if failures else 0

    def progress(index, case_report):
        if args.verbose:
            verdict = "ok" if case_report.passed else "FAIL"
            print(f"case {index}: {verdict} ({case_report.case.describe()})", file=sys.stderr)

    report = fuzz(
        args.seed,
        args.cases,
        start=args.start,
        save_dir=args.save_dir,
        max_queries=args.max_queries,
        shrink=not args.no_shrink,
        on_case=progress,
    )
    print(report.summary())
    for failure in report.failures:
        print(failure.summary())
        for divergence in failure.divergences[:5]:
            print(f"  - {divergence}")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FluX: schema-based scheduling for queries on XML streams (VLDB 2004 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        subparser = subparsers.add_parser(name, help=summary)
        subparser.set_defaults(handler=handler)
        return subparser

    compile_parser = command("compile", _cmd_compile, "schedule a query into FluX and show the buffers")
    _add_query_argument(compile_parser)
    _add_schema_arguments(compile_parser)
    compile_parser.add_argument("--show-normalized", action="store_true", help="also print the normalised query")

    run_parser = command(
        "run", _cmd_run, "execute one query, or several in one shared pass, over a document"
    )
    _add_query_argument(run_parser, "; repeat it to run several queries over one shared document pass")
    _add_schema_arguments(run_parser)
    run_parser.add_argument(
        "--document",
        help="path to the XML document (omit to run over a generated XMark document)",
    )
    _add_generator_arguments(run_parser, "without --document: ")
    run_parser.add_argument(
        "--output",
        action="append",
        help=(
            "stream the result to this file instead of stdout (never materialised); "
            "repeat it once per --query"
        ),
    )
    run_parser.add_argument("--discard-output", action="store_true", help="do not materialise the result")
    run_parser.add_argument(
        "--no-projection",
        action="store_true",
        help="disable the pre-executor projection filter (for comparisons)",
    )
    _add_run_settings(run_parser)
    run_parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "trace the run and print a per-stage time/bytes/events breakdown "
            "to stderr (REPRO_TRACE overrides); output is unchanged"
        ),
    )
    run_parser.add_argument(
        "--explain-buffers",
        action="store_true",
        help=(
            "print the per-owner buffer attribution table (who held the "
            "peak bytes and which plan decision blocked streaming) to stderr"
        ),
    )
    run_parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print a per-query summary table (events, peak buffered bytes, "
            "spill bytes, evictions) after the run"
        ),
    )

    compare_parser = command("compare", _cmd_compare, "run FluX and both baselines over a document")
    _add_query_argument(compare_parser)
    _add_schema_arguments(compare_parser)
    compare_parser.add_argument("--document", required=True, help="path to the XML document")

    validate_parser = command("validate", _cmd_validate, "validate a document against a DTD")
    _add_schema_arguments(validate_parser)
    validate_parser.add_argument("--document", required=True, help="path to the XML document")
    validate_parser.add_argument("--max-errors", type=int, default=20)

    generate_parser = command("generate", _cmd_generate, "generate an XMark-like document")
    _add_generator_arguments(generate_parser)
    generate_parser.add_argument("--output", help="output file (stdout if omitted)")

    feed_parser = command(
        "feed", _cmd_feed, "run one query as a continuous feed over a stream of concatenated documents"
    )
    _add_query_argument(feed_parser)
    _add_schema_arguments(feed_parser)
    _add_stream_source_arguments(feed_parser)
    feed_parser.add_argument(
        "--resume-from",
        type=int,
        default=None,
        metavar="OFFSET",
        help=(
            "skip this many stream bytes before processing: the resume offset "
            "a previous run printed (or its crash dump recorded)"
        ),
    )
    feed_parser.add_argument(
        "--show-output", action="store_true", help="print each document's result to stdout"
    )
    feed_parser.add_argument(
        "--heartbeat", action="store_true", help="print heartbeat punctuation lines to stderr"
    )
    feed_parser.add_argument("--verbose", action="store_true", help="per-document progress on stderr")
    _add_run_settings(feed_parser)

    serve_parser = command(
        "serve", _cmd_serve, "run the streaming subscription server (repro.serve) over a live feed"
    )
    _add_schema_arguments(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1", help="listen address")
    serve_parser.add_argument(
        "--port", type=int, default=0, help="listen port (0 picks an ephemeral port)"
    )
    _add_stream_source_arguments(serve_parser)
    serve_parser.add_argument(
        "--client-fed",
        action="store_true",
        help="no server-side source: clients push the stream via 'feed'/'finish' ops",
    )
    serve_parser.add_argument(
        "--linger",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="after the feed ends, wait up to this long for subscribers to drain",
    )
    _add_run_settings(serve_parser)

    subscribe_parser = command(
        "subscribe", _cmd_subscribe, "subscribe queries to a running subscription server and stream results"
    )
    _add_query_argument(subscribe_parser, "; repeat it for several subscriptions on one connection")
    subscribe_parser.add_argument("--host", default="127.0.0.1", help="server address")
    subscribe_parser.add_argument("--port", type=int, required=True, help="server port")
    subscribe_parser.add_argument(
        "--policy",
        choices=("block", "drop", "disconnect"),
        default="block",
        help="slow-consumer policy for these subscriptions",
    )
    subscribe_parser.add_argument(
        "--max-queue", type=int, default=None, help="bounded delivery queue depth"
    )
    subscribe_parser.add_argument(
        "--max-results", type=int, default=None, help="disconnect after this many results"
    )
    subscribe_parser.add_argument(
        "--timeout", type=float, default=30.0, help="socket timeout in seconds"
    )
    subscribe_parser.add_argument(
        "--quiet", action="store_true", help="count results instead of printing them"
    )

    inspect_parser = command(
        "inspect", _cmd_inspect, "pretty-print a *.crash.json flight-recorder dump (see REPRO_CRASH_DIR)"
    )
    inspect_parser.add_argument(
        "dump", nargs="+", metavar="CRASH_JSON", help="crash dump file(s) to render"
    )

    fuzz_parser = command(
        "fuzz", _cmd_fuzz, "randomized conformance sweep: every engine and sink mode must agree byte-for-byte"
    )
    fuzz_parser.add_argument("--seed", type=int, default=1, help="generator seed (the sweep is deterministic per seed)")
    fuzz_parser.add_argument("--cases", type=int, default=100, help="number of generated cases to check")
    fuzz_parser.add_argument("--start", type=int, default=0, help="first case index (resume a sweep)")
    fuzz_parser.add_argument(
        "--save-dir",
        default="fuzz-failures",
        help="directory for shrunk failing .case files (created on demand)",
    )
    fuzz_parser.add_argument(
        "--max-queries", type=int, default=3, help="maximum queries per generated case"
    )
    fuzz_parser.add_argument(
        "--no-shrink", action="store_true", help="save failing cases unshrunk (faster triage loop)"
    )
    fuzz_parser.add_argument("--verbose", action="store_true", help="per-case progress on stderr")
    fuzz_parser.add_argument(
        "--replay",
        action="extend",
        nargs="+",
        metavar="FILE",
        help="replay saved .case files through the oracle instead of generating (repeatable)",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        _start_metrics_server(getattr(args, "metrics_port", None))
        return args.handler(args)
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
