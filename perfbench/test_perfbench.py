"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402


def test_nan_residual_counts_as_failed(monkeypatch):
    """The report's own grade passes a NaN residual; the benchmark must not."""
    request = {
        "config": {"rank": 2, "n": 3},
        "checks": [["gt", "eigenbasis-recursion"]],
        "seed": 2026,
        "points": {},
    }
    verify, cfg, checks = worker.setup(request)
    monkeypatch.setattr(verify, "relative_defect", lambda a, b: float("nan"))
    recorder = worker.CheckRecorder()
    recorder.install(verify)
    try:
        record = worker.run_pass(verify, cfg, request, checks, recorder)
    finally:
        recorder.uninstall()
    attempted, failed, faults = run.grade([record], checks, {})

    result = record["checks"][0]["result"]
    assert (result["residual"], result["passed"]) == (0.0, True)
    assert (attempted, failed, faults) == (1, 1, [])


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
