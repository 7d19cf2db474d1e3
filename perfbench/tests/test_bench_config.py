"""BENCHMARK.json lists exactly the workloads and metrics the code reports."""

import json
from pathlib import Path

import run
import spans
from workloads import WORKLOADS

CONFIG = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in CONFIG["end_to_end"])
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in CONFIG["end_to_end"])


def test_per_layer_metrics_match():
    expected = [(m, u, b) for m, u, b, *_ in spans.LAYER_METRICS]
    expected += [(m, u, b) for m, (u, b) in run.TRACE_METRICS.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in CONFIG["per_layer"]] == expected
