"""Compare two benchmark reports row by row.

    python benchmarks/perf/compare.py A.json B.json

For every (end-to-end metric, workload) row the report pair is judged with
the metric's direction and bound from ``BENCHMARK.json``:

``better`` / ``worse``
    B differs from A (the base) by more than the bound,
``unchanged``
    within the bound,
``unresolved``
    the inter-quartile spread of the repetitions of either report exceeds
    the bound, so the pair cannot tell a change of that size from noise.

Every ratio is printed with its base.  Two reports of the *same seed* hold
the same documents, so there ``peak_buffered_bytes`` is an exact count and
any difference counts; ``BENCHMARK.json`` gives it a wider bound only
because its runs vary the seed.  ``setup_s`` differences under 0.05 s are
ignored.  The count-type layer metrics are listed with whether they repeat.

The exit code is non-zero iff any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Exact counts when both reports ran the same seed.
EXACT_ON_SAME_SEED = ("peak_buffered_bytes",)
#: Absolute differences below this many seconds of set-up are noise.
SETUP_FLOOR_S = 0.05
#: Layer metrics that count work: they must repeat exactly on one seed.
COUNT_SUFFIXES = (".events", ".spill_count", ".page_faults", ".flushes")


def spread(samples) -> float:
    """Inter-quartile distance as a share of the median; 0 without enough samples."""
    if not samples or len(samples) < 4:
        return 0.0
    first, _, third = statistics.quantiles(samples, n=4)
    middle = statistics.median(samples)
    return (third - first) / middle if middle else 0.0


def judge(metric: dict, base: dict, other: dict, same_seed: bool) -> tuple:
    """``(verdict, ratio, spread, bound applied)`` for one row."""
    name, bound = metric["name"], metric["bound"]
    if same_seed and name in EXACT_ON_SAME_SEED:
        bound = 0.0
    a, b = base["value"], other["value"]
    ratio = b / a if a else float("inf") if b else 1.0
    noise = max(spread(base.get("samples")), spread(other.get("samples")))
    change = ratio - 1 if metric["better"] == "higher" else 1 - ratio
    if name == "setup_s" and abs(b - a) < SETUP_FLOOR_S:
        verdict = "unchanged"
    elif noise > bound > 0:
        verdict = "unresolved"
    elif change > bound:
        verdict = "better"
    elif change < -bound:
        verdict = "worse"
    else:
        verdict = "unchanged"
    return verdict, ratio, noise, bound


def compare(report_a: dict, report_b: dict, declared: dict) -> int:
    for label, report in (("A", report_a), ("B", report_b)):
        if not report.get("comparable"):
            sys.exit(f"compare.py: report {label} is a --smoke report; it measures nothing")
    same_seed = report_a["seed"] == report_b["seed"]
    print(f"A: seed {report_a['seed']}   B: seed {report_b['seed']}   (ratio = B / A, base A)")
    print(f"{'workload':<13} {'metric':<20} {'A':>14} {'B':>14} {'B/A':>7} {'spread':>7} {'bound':>6}  verdict")
    bad = 0
    for name in report_a["workloads"]:
        a_row, b_row = report_a["workloads"][name], report_b["workloads"].get(name)
        if b_row is None or "end_to_end" not in a_row or "end_to_end" not in b_row:
            print(f"{name:<13} missing from one report")
            bad += 1
            continue
        for metric in declared["end_to_end"]:
            base, other = a_row["end_to_end"][metric["name"]], b_row["end_to_end"][metric["name"]]
            verdict, ratio, noise, bound = judge(metric, base, other, same_seed)
            bad += verdict in ("worse", "unresolved")
            print(
                f"{name:<13} {metric['name']:<20} {base['value']:>14.4f} {other['value']:>14.4f} "
                f"{ratio:>7.3f} {100 * noise:>6.1f}% {100 * bound:>5.0f}%  {verdict}"
            )
    if same_seed:
        print("\ncount-type layer metrics (same seed: must repeat exactly)")
        for name in report_a["workloads"]:
            a_layers = report_a["workloads"][name].get("per_layer", {})
            b_layers = report_b["workloads"].get(name, {}).get("per_layer", {})
            for metric, row in a_layers.items():
                if metric.endswith(COUNT_SUFFIXES) and metric in b_layers:
                    same = row["value"] == b_layers[metric]["value"]
                    bad += not same
                    print(
                        f"{name:<13} {metric:<24} {row['value']:>14.0f} "
                        f"{b_layers[metric]['value']:>14.0f}  {'same' if same else 'DIFFERENT'}"
                    )
    print(f"\n{bad} rows worse, unresolved or different")
    return 1 if bad else 0


def main(argv) -> int:
    if len(argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    report_a = json.loads(Path(argv[1]).read_text())
    report_b = json.loads(Path(argv[2]).read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(report_a, report_b, declared)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
