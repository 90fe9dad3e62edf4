"""Tier-1 self-test of the benchmark: structure only, never timing.

Runs ``run.py --smoke`` -- every workload at toy size, traced pass included --
and checks that the report has the shape ``BENCHMARK.json`` declares.  It
asserts nothing about which layer rows exist or how long anything took, so
a change that deletes a code path loses a row without failing here.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_smoke_report_matches_benchmark_json(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    output = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--output", str(output)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout[-4000:]
    report = json.loads(output.read_text())
    assert report["comparable"] is False

    for workload in declared["workloads"]:
        assert NAME.match(workload["name"])
        row = report["workloads"][workload["name"]]
        assert row["ops_attempted"] >= 1
        assert row["ops_failed"] == 0, row["violations"]
        assert row["correct"], row["violations"]
        for section in ("end_to_end", "per_layer"):
            for metric in declared[section]:
                assert NAME.match(metric["name"])
                measured = row[section][metric["name"]]
                assert measured["unit"] == metric["unit"], metric["name"]
                assert isinstance(measured["value"], (int, float)), metric["name"]

        spans = [
            json.loads(line)
            for line in (ROOT / row["trace"]["spans_file"]).read_text().splitlines()
        ]
        assert spans, workload["name"]
        ids = {span["id"] for span in spans}
        for span in spans:
            assert span["parent"] == 0 or span["parent"] in ids, span
            assert span["end"] >= span["start"], span
        assert len({span["run"] for span in spans}) == 1
