"""BENCHMARK.json names exactly the workloads and metrics that run.py reports."""

import json
from pathlib import Path

import run
from layers import PER_LAYER, SUITES

from partsem import harness

SPEC = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_workloads_exist():
    for workload in SPEC["workloads"]:
        assert workload["name"] in run.WORKLOADS


def test_end_to_end_metrics_match():
    listed = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert listed == list(run.END_TO_END)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_per_layer_metrics_match():
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == PER_LAYER


def test_suite_metrics_follow_the_registry():
    assert SUITES == tuple(harness.SUITES)
