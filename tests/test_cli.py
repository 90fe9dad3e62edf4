"""Unit tests for the command-line interface."""

import re
import socket
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.serve import shutdown_servers
from repro.xmark.usecases import BIB_DTD_USECASES, XMP_INTRO, generate_bibliography


@pytest.fixture()
def workspace(tmp_path):
    """A query file, DTD file and document file on disk."""
    query = tmp_path / "query.xq"
    query.write_text(XMP_INTRO, encoding="utf-8")
    dtd = tmp_path / "bib.dtd"
    dtd.write_text(BIB_DTD_USECASES, encoding="utf-8")
    document = tmp_path / "bib.xml"
    document.write_text(generate_bibliography(12, seed=5), encoding="utf-8")
    return {"query": str(query), "dtd": str(dtd), "document": str(document), "dir": tmp_path}


def test_compile_command_prints_flux_and_buffers(workspace, capsys):
    code = main(
        ["compile", "--query", workspace["query"], "--dtd", workspace["dtd"], "--root", "bib",
         "--show-normalized"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "scheduled FluX query" in out
    assert "on title as" in out
    assert "safe for the DTD: True" in out
    assert "normalised XQuery-" in out
    assert "join index:" not in out


def test_compile_command_prints_one_line_per_indexed_join(capsys):
    assert main(["compile", "--query", "Q8"]) == 0
    out = capsys.readouterr().out
    buffers = out.index("--- buffer trees ---")
    line = (
        "join index: for $t in $__v_closed_auctions_5/closed_auction"
        " on $p/person_id = $t/buyer/buyer_person\n"
    )
    assert out.count("join index:") == 1
    assert buffers < out.index(line) < out.index("safe for the DTD")


GOLDEN_COMPILE = Path(__file__).parent / "fixtures" / "compile"


@pytest.mark.parametrize("query", ["Q1", "Q8", "Q11", "Q13", "Q20"])
def test_compile_output_matches_golden_file(query, capsys):
    assert main(["compile", "--query", query, "--show-normalized"]) == 0
    golden = (GOLDEN_COMPILE / f"{query}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_compile_checks_safety_once(monkeypatch, capsys):
    import repro.flux.safety as safety

    calls = []
    original = safety.check_safety

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # Every module that imported the checker by name counts through it.
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "check_safety", None) is original:
            monkeypatch.setattr(module, "check_safety", counting)
    assert main(["compile", "--query", "Q8"]) == 0
    assert "safe for the DTD: True" in capsys.readouterr().out
    assert len(calls) == 1


def _closed_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.mark.parametrize(
    "files, argv, message",
    [
        (
            {},
            ["run", "--query", "Q1", "--dtd", "{dir}/missing.dtd", "--document", "{dir}/doc.xml"],
            "No such file or directory",
        ),
        (
            {},
            ["subscribe", "--query", "Q1", "--port", "{closed_port}"],
            "refused",
        ),
        (
            {"doc.xml": "<bib><book><title>x</title></bib>"},
            ["run", "--query", "{dir}/q.xq", "--dtd", "{dir}/bib.dtd", "--root", "bib",
             "--document", "{dir}/doc.xml"],
            "mismatched closing tag </bib>, expected </book>",
        ),
        (
            {"bib.dtd": "<!ELEMENT bib (book"},
            ["run", "--query", "{dir}/q.xq", "--dtd", "{dir}/bib.dtd", "--root", "bib",
             "--document", "{dir}/doc.xml"],
            "unterminated",
        ),
        (
            {"q.xq": "<r>{ for $b in $ROOT/bib/book return {$b}</r>"},
            ["run", "--query", "{dir}/q.xq", "--dtd", "{dir}/bib.dtd", "--root", "bib",
             "--document", "{dir}/doc.xml"],
            "unbalanced",
        ),
        (
            {"q.xq": "{ for $b in $ROOT/bib/book return { $bib } }"},
            ["compile", "--query", "{dir}/q.xq", "--dtd", "{dir}/bib.dtd", "--root", "bib"],
            "cannot be scheduled",
        ),
        (
            {"q.xq": "<r>{ for $b in $ROOT/bib/book return <t>{ $x/title }</t> }</r>"},
            ["compile", "--query", "{dir}/q.xq", "--dtd", "{dir}/bib.dtd", "--root", "bib"],
            "unbound variable $x",
        ),
    ],
    ids=[
        "OSError-file",
        "OSError-connection",
        "XMLSyntaxError",
        "DTDError",
        "XQueryError",
        "FluxError",
        "XQueryError-free-variable",
    ],
)
def test_input_errors_print_one_line_and_exit_1(tmp_path, capsys, files, argv, message):
    defaults = {
        "q.xq": XMP_INTRO,
        "bib.dtd": BIB_DTD_USECASES,
        "doc.xml": "<bib><book><title>x</title></book></bib>",
    }
    for name, text in {**defaults, **files}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    values = {"dir": tmp_path, "closed_port": _closed_port()}
    assert main([arg.format(**values) for arg in argv]) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0], err
    assert "Traceback" not in err


def test_run_command_writes_output_file(workspace, capsys):
    output = workspace["dir"] / "result.xml"
    code = main(
        [
            "run",
            "--query", workspace["query"],
            "--dtd", workspace["dtd"],
            "--root", "bib",
            "--document", workspace["document"],
            "--output", str(output),
        ]
    )
    assert code == 0
    text = output.read_text(encoding="utf-8")
    assert text.startswith("<results>")
    err = capsys.readouterr().err
    assert "peak-buffer=0" in err


def test_run_command_prints_to_stdout(workspace, capsys):
    code = main(
        ["run", "--query", workspace["query"], "--dtd", workspace["dtd"], "--root", "bib",
         "--document", workspace["document"]]
    )
    assert code == 0
    assert "<results>" in capsys.readouterr().out


@pytest.fixture()
def xmark_workspace(tmp_path, capsys):
    """A small generated XMark document on disk (for XMark query runs)."""
    document = tmp_path / "site.xml"
    main(["generate", "--scale", "0.03", "--output", str(document)])
    capsys.readouterr()
    return {"document": str(document), "dir": tmp_path}


def test_run_several_queries_prints_every_query_output(xmark_workspace, capsys):
    code = main(
        ["run", "--query", "Q1", "--query", "Q13",
         "--document", xmark_workspace["document"]]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "--- Q1 ---" in captured.out
    assert "--- Q13 ---" in captured.out
    assert "<query1>" in captured.out
    assert "<query13>" in captured.out
    assert "shared pass over 2 queries" in captured.err
    assert "Q1: in=" in captured.err


def test_run_several_queries_writes_per_query_output_files(xmark_workspace, capsys):
    out1 = xmark_workspace["dir"] / "q1.xml"
    out13 = xmark_workspace["dir"] / "q13.xml"
    code = main(
        ["run", "--query", "Q1", "--query", "Q13",
         "--document", xmark_workspace["document"],
         "--output", str(out1), "--output", str(out13)]
    )
    assert code == 0
    assert out1.read_text(encoding="utf-8").startswith("<query1>")
    assert out13.read_text(encoding="utf-8").startswith("<query13>")
    # The files match what solo runs produce.
    solo = xmark_workspace["dir"] / "solo13.xml"
    main(["run", "--query", "Q13", "--document", xmark_workspace["document"],
          "--output", str(solo)])
    assert out13.read_text(encoding="utf-8") == solo.read_text(encoding="utf-8")


def test_run_rejects_output_with_discard(workspace, capsys, tmp_path):
    target = tmp_path / "never.xml"
    code = main(
        ["run", "--query", workspace["query"], "--dtd", workspace["dtd"], "--root", "bib",
         "--document", workspace["document"], "--discard-output", "--output", str(target)]
    )
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err
    assert not target.exists()


def test_run_several_queries_rejects_output_with_discard(xmark_workspace, capsys):
    code = main(
        ["run", "--query", "Q1", "--query", "Q13", "--document", xmark_workspace["document"],
         "--discard-output", "--output", "never1.xml", "--output", "never13.xml"]
    )
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_run_rejects_mismatched_output_count(xmark_workspace, capsys):
    code = main(
        ["run", "--query", "Q1", "--query", "Q13",
         "--document", xmark_workspace["document"], "--output", "only-one.xml"]
    )
    assert code == 2
    assert "exactly one per query" in capsys.readouterr().err


def test_run_uniquifies_repeated_query_names(xmark_workspace, capsys):
    code = main(
        ["run", "--query", "Q13", "--query", "Q13", "--discard-output",
         "--document", xmark_workspace["document"]]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "Q13:" in err
    assert "Q13#2:" in err


def test_run_stats_flag_prints_summary_table(xmark_workspace, capsys):
    code = main(
        ["run", "--query", "Q1", "--query", "Q8", "--discard-output", "--stats",
         "--document", xmark_workspace["document"]]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "peak buffer [B]" in err
    assert "spill bytes" in err
    assert "evictions" in err
    assert "Q8" in err


def test_run_stats_reports_shared_memory_budget(xmark_workspace, capsys):
    code = main(
        ["run", "--query", "Q1", "--query", "Q8", "--discard-output", "--stats",
         "--memory-budget", "2k", "--document", xmark_workspace["document"]]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "memory budget: 2048B" in err
    assert "peak-resident=" in err


def test_run_stats_table_names_a_single_query(xmark_workspace, capsys):
    code = main(
        ["run", "--query", "Q8", "--discard-output", "--stats",
         "--memory-budget", "2k", "--document", xmark_workspace["document"]]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "shared pass" not in err
    assert re.search(r"^Q8 +\d+", err, re.MULTILINE), err
    assert "memory budget: 2048B" in err


def test_run_with_memory_budget_output_identical(xmark_workspace, capsys):
    bounded = xmark_workspace["dir"] / "bounded.xml"
    unbounded = xmark_workspace["dir"] / "unbounded.xml"
    for path, extra in ((unbounded, []), (bounded, ["--memory-budget", "2k"])):
        code = main(
            ["run", "--query", "Q8", "--document", xmark_workspace["document"],
             "--output", str(path)] + extra
        )
        assert code == 0
    assert bounded.read_text(encoding="utf-8") == unbounded.read_text(encoding="utf-8")
    # The bounded run's summary reports the spill activity.
    err = capsys.readouterr().err
    assert "spills=" in err


def test_run_query_set_with_memory_budget_files_identical(xmark_workspace, capsys):
    bounded = xmark_workspace["dir"] / "multi-bounded.xml"
    unbounded = xmark_workspace["dir"] / "multi-unbounded.xml"
    base = ["run", "--query", "Q8", "--query", "Q13", "--document", xmark_workspace["document"]]
    other = xmark_workspace["dir"] / "multi-q13.xml"
    assert main(base + ["--output", str(unbounded), "--output", str(other)]) == 0
    bounded_argv = ["--output", str(bounded), "--output", str(other), "--memory-budget", "2048"]
    assert main(base + bounded_argv) == 0
    assert bounded.read_text(encoding="utf-8") == unbounded.read_text(encoding="utf-8")


def test_run_over_a_generated_document_accepts_memory_budget(capsys):
    code = main(
        ["run", "--query", "Q8", "--scale", "0.03", "--discard-output",
         "--memory-budget", "2k"]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "peak-resident=" in err
    assert "spills=" in err


def test_run_serve_metrics_prints_its_address_and_serves(xmark_workspace, capsys):
    try:
        code = main(["run", "--query", "Q1", "--document", xmark_workspace["document"],
                     "--discard-output", "--serve-metrics", "0"])
        assert code == 0
        err = capsys.readouterr().err
        address = re.search(r"serving /metrics and /progress on (http://127\.0\.0\.1:\d+)", err)
        assert address, err
        with urllib.request.urlopen(f"{address.group(1)}/metrics", timeout=10) as response:
            assert "repro_runs_total" in response.read().decode("utf-8")
    finally:
        shutdown_servers()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--query", "Q1", "--document", "never-read.xml"],
        ["run", "--query", "Q1", "--query", "Q13", "--document", "never-read.xml"],
        ["feed", "--query", "Q1"],
        ["serve"],
    ],
    ids=["run", "run-several", "feed", "serve"],
)
def test_negative_serve_metrics_port_is_a_usage_error(argv, capsys):
    assert main(argv + ["--serve-metrics", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--serve-metrics" in err and "TCP port" in err


@pytest.mark.parametrize("command", ["feed", "serve"])
def test_stream_commands_reject_a_non_positive_chunk_size(command, capsys):
    argv = [command, "--chunk-size", "0"] + (["--query", "Q1"] if command == "feed" else [])
    assert main(argv) == 2
    assert "--chunk-size must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["feed", "--query", "Q1", "--resume-from", "-1"], "--resume-from"),
        (["fuzz", "--max-queries", "0"], "--max-queries"),
        (["feed", "--query", "Q1", "--documents", "-3"], "--documents"),
        (["serve", "--documents", "-1"], "--documents"),
        (["generate", "--scale", "-1"], "--scale"),
        (["generate", "--scale", "0"], "--scale"),
        (["run", "--query", "Q1", "--scale", "0"], "--scale"),
    ],
    ids=[
        "feed-resume-from",
        "fuzz-max-queries",
        "feed-documents",
        "serve-documents",
        "generate-negative-scale",
        "generate-zero-scale",
        "run-scale",
    ],
)
def test_out_of_range_flag_values_are_usage_errors(argv, flag, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and flag in errors[0], err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--query", "Q1", "--document", "{document}", "--scale", "5", "--seed", "3"],
         "--scale"),
        (["run", "--query", "Q1", "--document", "{document}", "--seed", "3"], "--seed"),
        (["feed", "--query", "Q1", "--input", "{document}", "--documents", "3", "--scale", "9"],
         "--documents"),
        (["feed", "--query", "Q1", "--input", "{document}", "--seed", "3"], "--seed"),
        (["serve", "--client-fed", "--input", "{document}"], "--input"),
        (["serve", "--client-fed", "--chunk-size", "512"], "--chunk-size"),
    ],
    ids=["run-scale", "run-seed", "feed-documents", "feed-seed", "serve-input", "serve-chunk-size"],
)
def test_a_flag_another_flag_makes_moot_is_a_usage_error(workspace, argv, flag, capsys):
    """Generator flags with an input file, and source flags of a client-fed
    server, would be silently ignored."""
    assert main([arg.format(**workspace) for arg in argv]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and flag in errors[0], err


@pytest.mark.parametrize(
    "argv, needs",
    [
        (["run", "--query", "{query}"], "--document"),
        (["feed", "--query", "{query}", "--documents", "2"], "--input"),
        (["serve", "--documents", "2"], "--input"),
    ],
    ids=["run", "feed", "serve"],
)
def test_a_custom_dtd_needs_an_input_document(workspace, argv, needs, capsys):
    """Without an input file these commands read generated XMark documents,
    which a custom schema does not describe."""
    argv = [arg.format(**workspace) for arg in argv]
    assert main(argv + ["--dtd", workspace["dtd"], "--root", "bib"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --dtd needs " + needs), err


def test_feed_reads_the_ticker_or_an_input_file(tmp_path, capsys):
    from repro.xmark.ticker import iter_ticker_chunks

    assert main(["feed", "--query", "Q1", "--documents", "3", "--chunk-size", "512"]) == 0
    ticker = capsys.readouterr().out
    assert ticker.startswith("feed over ticker(3 docs, scale ")
    stream = tmp_path / "stream.xml"
    stream.write_bytes(b"".join(iter_ticker_chunks(documents=3, seed=42, chunk_size=512)))
    assert main(["feed", "--query", "Q1", "--input", str(stream), "--chunk-size", "100"]) == 0
    from_file = capsys.readouterr().out
    assert from_file.startswith(f"feed over {stream}: 3 documents, {stream.stat().st_size} bytes")
    # The same stream either way: the same final resume offset.
    assert ticker.rsplit("resume offset", 1)[1] == from_file.rsplit("resume offset", 1)[1]


def test_invalid_memory_budget_is_rejected(xmark_workspace, capsys):
    with pytest.raises(SystemExit):
        main(["run", "--query", "Q1", "--document", xmark_workspace["document"],
              "--memory-budget", "lots"])
    assert "invalid" in capsys.readouterr().err


def test_compare_command_reports_agreement(workspace, capsys):
    code = main(
        ["compare", "--query", workspace["query"], "--dtd", workspace["dtd"], "--root", "bib",
         "--document", workspace["document"]]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "outputs identical: True" in out
    assert "naive-dom" in out


def test_validate_command_accepts_valid_document(workspace, capsys):
    code = main(
        ["validate", "--dtd", workspace["dtd"], "--root", "bib", "--document", workspace["document"]]
    )
    assert code == 0
    assert "valid" in capsys.readouterr().out


def test_validate_command_rejects_invalid_document(workspace, capsys, tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("<bib><book><author>A</author></book></bib>", encoding="utf-8")
    code = main(["validate", "--dtd", workspace["dtd"], "--root", "bib", "--document", str(bad)])
    assert code == 1
    assert "INVALID" in capsys.readouterr().out


def test_generate_command_writes_document(tmp_path, capsys):
    output = tmp_path / "xmark.xml"
    code = main(["generate", "--scale", "0.02", "--output", str(output)])
    assert code == 0
    assert output.stat().st_size > 1000
    assert "wrote" in capsys.readouterr().out


def test_run_without_a_document_reads_a_generated_xmark_document(tmp_path, capsys):
    document = tmp_path / "site.xml"
    main(["generate", "--scale", "0.02", "--seed", "7", "--output", str(document)])
    capsys.readouterr()
    assert main(["run", "--query", "Q13", "--document", str(document)]) == 0
    from_file = capsys.readouterr()
    assert main(["run", "--query", "Q13", "--scale", "0.02", "--seed", "7"]) == 0
    generated = capsys.readouterr()
    assert generated.out == from_file.out
    assert "<query13>" in generated.out
    assert "peak-buffer=0 events/0B" in generated.err


def test_builtin_query_names_resolve_without_files(tmp_path, capsys):
    document = tmp_path / "site.xml"
    main(["generate", "--scale", "0.02", "--output", str(document)])
    capsys.readouterr()
    code = main(["run", "--query", "Q1", "--document", str(document), "--discard-output"])
    assert code == 0
    assert "peak-buffer=0" in capsys.readouterr().err


def test_fuzz_command_runs_a_deterministic_sweep(tmp_path, capsys):
    code = main(
        ["fuzz", "--cases", "8", "--seed", "3", "--save-dir", str(tmp_path / "failures")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "fuzz seed=3: 8 cases" in out
    assert "OK" in out
    assert not (tmp_path / "failures").exists()  # only created for failures


def test_fuzz_command_replays_case_files(tmp_path, capsys):
    from repro.conformance import CaseGenerator, save_case

    paths = [str(tmp_path / f"case{index}.case") for index in range(3)]
    for index, path in enumerate(paths):
        save_case(path, CaseGenerator(seed=3).case(index))
    # One flag takes several files (a shell glob), and it stays repeatable.
    code = main(["fuzz", "--replay", paths[0], paths[1], "--replay", paths[2]])
    out = capsys.readouterr().out
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == paths
    assert out.count("PASS") == 3


def test_fuzz_command_replay_reports_failures(tmp_path, capsys):
    from repro.conformance import CaseGenerator, save_case

    case = CaseGenerator(seed=3).case(0).with_document("<e0></e0>")
    path = tmp_path / "broken.case"
    save_case(path, case)
    code = main(["fuzz", "--replay", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
