"""The repo's benchmark: one command, five workloads, every metric by name.

    python benchmarks/perf/run.py [--seed 97] [--workload NAME]... [--seconds N]
                                  [--no-trace] [--smoke] [--output REPORT.json]

generates and caches the inputs, runs each workload in a fresh child process
(untraced for the end-to-end metrics, then one traced repetition for the
per-layer budget), checks every result against a reference, prints every
metric by name with its unit and writes one JSON report.  The exit code is
non-zero iff any operation or check failed.

``BENCHMARK.json`` at the repo root declares the metrics, units, bounds and
workloads; this file reads the names from there.  Its ``command`` is this
script in *single-run* form,

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

which runs one pass of one workload and prints, as the last line of stdout,
``{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).

See README.md in this directory for the glossary and how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").exists():
    sys.exit(f"run.py: the program under test is missing ({SRC / 'repro'}); nothing to measure")
sys.path.insert(0, str(SRC))

from datagen import CACHE, XMarkBench  # noqa: E402
from workloads import (  # noqa: E402
    SPECS, WARMUP_SCALE, child_environment, failure_report, spec_for,
)

#: Set-up is timed in this many fresh processes per run; the median is reported.
SETUP_SAMPLES = 5

FOOTER = """\
How the numbers interact
- One engine thread, nothing overlaps: a layer's saving is bounded by its self-time
  share of that workload (the share printed next to each layer row).
- serve.tcp: engine thread, asyncio loop and JSON encoding share one GIL, so freeing
  engine time can cut latency by more than its own share.
- Above ~70% utilisation latency rises before docs_per_s stops rising, which is why the
  open-loop phase runs at a fixed 60 docs/s, about 20% of the closed-loop seed rate."""


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------- inputs


def prepare_inputs(spec: dict, seed: int) -> dict:
    """Generate (or find cached) the workload's documents and references."""
    documents = spec.get("documents", 1)
    bench = XMarkBench(spec["scale"], seed, documents=documents)
    data = bench.generate_data()
    started = time.perf_counter()
    inputs = {
        "path": str(data.path),
        "document_bytes": data.document_bytes,
        "documents": data.documents,
        "datagen_s": data.datagen_s,
        "datagen_cached": data.cached,
        "refs": {query: bench.reference(query) for query in spec["queries"]},
    }
    if spec["kind"] in ("solo", "multi"):
        warmup = XMarkBench(WARMUP_SCALE, seed)
        inputs["warmup"] = {
            "path": str(warmup.generate_data().path),
            "refs": {query: warmup.reference(query) for query in spec["queries"]},
        }
    inputs["reference_s"] = time.perf_counter() - started
    return inputs


# ----------------------------------------------------------------- children


def run_child(job: dict, tmp: Path, timeout: float = 170.0) -> dict:
    """One workload child; its last stdout line is its JSON report."""
    job_path = tmp / f"job-{os.getpid()}.json"
    job_path.write_text(json.dumps(job))
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), str(job_path)],
            stdout=subprocess.PIPE,
            env=child_environment(tmp),
            text=True,
            timeout=timeout,
        )
        lines = [line for line in done.stdout.splitlines() if line.strip()]
        return json.loads(lines[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        return failure_report(job["spec"]["name"], f"child failed: {exc!r}")
    finally:
        job_path.unlink(missing_ok=True)


def run_workload(name: str, seed: int, seconds, trace: bool, smoke: bool,
                 setup_samples: int, diagnostics: bool) -> dict:
    """Inputs, set-up samples, the measured child; one report row."""
    spec = spec_for(name, smoke)
    tmp = CACHE / "tmp"
    spans_dir = CACHE / "spans"
    tmp.mkdir(parents=True, exist_ok=True)
    spans_dir.mkdir(parents=True, exist_ok=True)
    inputs = prepare_inputs(spec, seed)
    job = {
        "spec": spec,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "mode": "measure",
        "diagnostics": diagnostics,
        "inputs": inputs,
        "tmp": str(tmp),
        "run_id": f"{name}-seed{seed}-{os.getpid()}",
        "spans": str(spans_dir / f"{name}-seed{seed}.jsonl"),
        "server_spans": str(tmp / f"server-spans-{os.getpid()}.jsonl"),
    }
    setups = []
    for _ in range(setup_samples - 1):
        sample = run_child(dict(job, mode="setup", trace=False), tmp)
        if "setup_s" in sample:
            setups.append(sample["setup_s"])
    report = run_child(job, tmp)
    report["why"] = spec["why"]
    report["document_bytes"] = inputs["document_bytes"]
    report["documents"] = inputs["documents"]
    report["datagen_s"] = inputs["datagen_s"]
    report["datagen_cached"] = inputs["datagen_cached"]
    report["reference_s"] = inputs["reference_s"]
    if trace and "trace" in report:
        report["trace"]["spans_file"] = os.path.relpath(job["spans"], ROOT)
    if "end_to_end" in report:
        setups.append(report["setup_s"])
        report["end_to_end"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s", "samples": setups,
        }
    if diagnostics and spec["kind"] == "solo" and "end_to_end" in report:
        report["yardsticks"] = yardsticks(spec, inputs)
        if "obs_stage_seconds" in report and "trace" in report:
            report["obs_crosscheck"] = obs_crosscheck(report)
    return report


# -------------------------------------------------- diagnostics, never gated


def yardsticks(spec: dict, inputs: dict) -> dict:
    """Machine-speed normalisers over the same bytes: the stdlib's streaming
    XML parser, and the full-materialisation baseline on the first query."""
    import xml.etree.ElementTree as ElementTree

    from repro.baselines import NaiveDomEngine
    from repro.xmark import BENCHMARK_QUERIES

    megabytes = inputs["document_bytes"] / 1e6
    started = time.perf_counter()
    for _event, element in ElementTree.iterparse(inputs["path"]):
        element.clear()
    etree_s = time.perf_counter() - started
    started = time.perf_counter()
    NaiveDomEngine(BENCHMARK_QUERIES[spec["queries"][0]]).run(Path(inputs["path"]))
    naive_s = time.perf_counter() - started
    return {
        "yardstick.etree_parse_mb_s": {"value": megabytes / etree_s, "unit": "MB/s"},
        "yardstick.naive_dom_mb_s": {"value": megabytes / naive_s, "unit": "MB/s"},
    }


def obs_crosscheck(report: dict) -> list:
    """Outside-in time per stage next to the program's own ``trace=True``
    stage table (both summed over the workload's queries)."""
    layers = report["trace"]["layers"]
    outside = {
        "tokenize": layers.get("scan", {}).get("self_s", 0.0),
        "coalesce": layers.get("coalesce", {}).get("self_s", 0.0),
        "project": layers.get("project", {}).get("self_s", 0.0),
        # the built-in execute stage covers buffers and sinks called inside it
        "execute": layers.get("execute", {}).get("busy_s", 0.0),
    }
    rows = []
    for stage, built_in in report["obs_stage_seconds"].items():
        if stage in outside and outside[stage] > 0:
            rows.append(
                {
                    "stage": stage,
                    "outside_in_s": outside[stage],
                    "built_in_s": built_in,
                    "disagreement": (built_in - outside[stage]) / outside[stage],
                }
            )
    return rows


# ------------------------------------------------------------------ printing


def print_workload(name: str, report: dict) -> None:
    print(f"\n=== {name} ===")
    print(f"  {report.get('why', '')}")
    print(
        f"  ops_failed / ops_attempted: {report['ops_failed']} / {report['ops_attempted']}"
        f"   document_bytes: {report.get('document_bytes')} x {report.get('documents')}"
        f"   datagen_s: {report.get('datagen_s', 0.0):.3f}"
        f"{' (cached)' if report.get('datagen_cached') else ''}"
    )
    for violation in report.get("violations", []):
        print(f"  FAILED: {violation}")
    if "end_to_end" not in report:
        return
    print(
        f"  end to end (best of {report['repetitions']} repetitions, "
        f"{report['measured_s']:.1f} s measured)"
    )
    for metric, row in report["end_to_end"].items():
        samples = len(row.get("samples") or []) or 1
        middle = f"  median {row['median']:.4f}" if "median" in row else ""
        print(f"    {metric:<22} {row['value']:>14.4f} {row['unit']:<7} n={samples}{middle}")
    for metric, row in report.get("yardsticks", {}).items():
        print(f"    {metric:<28} {row['value']:>8.4f} {row['unit']}")
    if "trace" in report:
        trace = report["trace"]
        print(
            f"  layer budget (one traced repetition, wall {trace['wall_s']:.3f} s, "
            f"trace_overhead {report['per_layer']['trace_overhead']['value']:.3f}, "
            f"self times sum to {100 * trace['self_sum_share']:.1f}% of wall)"
        )
        print(f"    {'layer':<10} {'calls':>9} {'busy s':>9} {'self s':>9} {'share':>7}")
        for layer, row in trace["layers"].items():
            print(
                f"    {layer:<10} {row['calls']:>9} {row['busy_s']:>9.4f} "
                f"{row['self_s']:>9.4f} {100 * row['share']:>6.1f}%"
            )
        print("  per layer")
        for metric, row in report["per_layer"].items():
            print(f"    {metric:<30} {row['value']:>16.6f} {row['unit']}")
    for row in report.get("obs_crosscheck", []):
        print(
            f"  obs cross-check {row['stage']:<9} outside-in {row['outside_in_s']:.4f} s"
            f"  built-in {row['built_in_s']:.4f} s  ({100 * row['disagreement']:+.1f}%)"
        )


# --------------------------------------------------------------------- modes


def single_run(args, names) -> int:
    """The ``BENCHMARK.json`` command: one pass of one workload, one JSON line."""
    if len(names) != 1:
        sys.exit("run.py: --trace 0|1 runs exactly one --workload")
    name = names[0]
    traced = args.trace == 1
    report = run_workload(
        name, args.seed, None if traced else args.seconds, traced, args.smoke,
        1 if traced else SETUP_SAMPLES, diagnostics=False,
    )
    print_workload(name, report)
    section = "per_layer" if traced else "end_to_end"
    wanted = declared()[section]
    measured = report.get(section)
    if measured is None:
        print(f"run.py: {name} produced no {section} metrics: {report.get('error')}", file=sys.stderr)
        return 1
    metrics = {}
    for metric in wanted:
        # A layer this workload never enters has no row; its metrics read 0.
        row = measured.get(metric["name"], {"value": 0})
        metrics[metric["name"]] = {"value": row["value"], "unit": metric["unit"]}
    print(
        json.dumps(
            {
                "correct": bool(report["correct"]),
                "attempted": max(1, report["ops_attempted"]),
                "failed": report["ops_failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if report["correct"] else 1


def full_run(args, names) -> int:
    """Every selected workload, both passes, one report."""
    started = time.time()
    reports = {}
    for name in names:
        reports[name] = run_workload(
            name, args.seed, args.seconds, not args.no_trace, args.smoke,
            1 if args.smoke else SETUP_SAMPLES, diagnostics=not args.smoke,
        )
        print_workload(name, reports[name])
    print("\n" + FOOTER)
    report = {
        "schema": 1,
        # Toy sizes measure nothing: compare.py refuses such reports.
        "comparable": not args.smoke,
        "seed": args.seed,
        "seconds": args.seconds,
        "started_unix": started,
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "workloads": reports,
    }
    output = Path(args.output) if args.output else CACHE / "reports" / f"report-seed{args.seed}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=1))
    failed = sum(r["ops_failed"] for r in reports.values())
    attempted = sum(r["ops_attempted"] for r in reports.values())
    correct = all(r["correct"] for r in reports.values())
    print(f"\nreport: {output}   ops_failed / ops_attempted: {failed} / {attempted}"
          f"   {'OK' if correct else 'FAILED'}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=97, help="the only thing that varies the inputs")
    parser.add_argument("--workload", action="append", choices=sorted(SPECS), help="repeatable; default all")
    parser.add_argument("--seconds", type=float, default=None,
                        help="untraced measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="single-run form: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced pass")
    parser.add_argument("--smoke", action="store_true", help="toy sizes, structure check only")
    parser.add_argument("--output", help="where to write the JSON report")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(declared()["run_seconds"])
    names = args.workload or list(SPECS)
    if args.trace is not None:
        return single_run(args, names)
    return full_run(args, names)


if __name__ == "__main__":
    sys.exit(main())
