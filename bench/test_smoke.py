"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs one untraced and one traced session on a tiny cohort.
The test checks that every metric BENCHMARK.json names comes out with its
unit and a numeric value, and that no operation failed.  It takes about
two minutes, almost all of it interpreter start-up in the CLI calls.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run._workloads()))
def test_tiny_run_reports_every_metric(workload, trace):
    correct, attempted, failed, metrics, report = run.measure(
        workload, seed=3, seconds=0, trace=trace, tiny=True
    )
    text = "\n".join(report)
    assert correct and attempted > 0 and failed / attempted == 0, text  # failed_frac
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == expected
    for name, (value, _) in metrics.items():
        assert isinstance(value, (int, float)), f"{name} = {value!r}\n{text}"


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run._workloads())
