"""The tracer wraps every import site, restores every binding and covers the run's time."""

import sys
import time

import partsem
from partsem import harness

from layers import PER_LAYER, summarize
from tracer import Tracer
import run


def _bindings():
    """Every attribute of every partsem module, plus the patched class slots."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "partsem" or name.startswith("partsem."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for cls in (partsem.FiniteMap, partsem.IndexSemigroup, partsem.greens._GreensData,
                partsem.Report):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    for name, fn in harness.SUITES.items():
        out[("SUITES", name)] = fn
    return out


def test_wraps_every_import_site_and_restores():
    before = _bindings()
    originals = {
        "harness.is_regular_oracle": partsem.harness.is_regular_oracle,
        "regularity.enumerate_elements": partsem.regularity.enumerate_elements,
        "partsem.compose": partsem.compose,
        "greens.require_member": partsem.greens.require_member,
    }
    tracer = Tracer().install()
    try:
        assert partsem.harness.is_regular_oracle is not originals["harness.is_regular_oracle"]
        assert partsem.regularity.enumerate_elements is not originals["regularity.enumerate_elements"]
        assert partsem.compose is not originals["partsem.compose"]
        assert partsem.greens.require_member is not originals["greens.require_member"]
        assert partsem.harness.is_regular_oracle is partsem.regularity.is_regular_oracle
        assert partsem.FiniteMap.__init__ is not before[("FiniteMap", "__init__")]
        f = partsem.FiniteMap.of((0, 0))
        partsem.compose(f, f)
    finally:
        tracer.uninstall()
    assert tracer.calls("finite_maps.compose") == 1
    assert tracer.calls("finite_maps.FiniteMap.__init__") == 2
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_accounts_for_time_on_a_tiny_catalog():
    catalog = partsem.build_catalog(2, seed=1)
    tracer = Tracer().install()
    try:
        started = time.perf_counter()
        report = partsem.run_all(catalog)
        region = time.perf_counter() - started
    finally:
        tracer.uninstall()
    assert report.failures == 0
    values = summarize(tracer, region)
    # Only the timing around the one wrapped call is left outside the layers.
    assert run.bench_share(values) < 0.01
    assert values["harness.suite.greens-mode-agreement_s"] > 0
    assert values["finite_maps.compose_calls"] > 0
    assert values["greens.calls"] > 0 and 0 < values["greens.related_ratio"] <= 1
    assert values["greens.L.oracle_p50_ms"] > 0
    assert len(tracer.span_key) > 0
    assert max(tracer.span_parent) < len(tracer.span_key)
    names = {name for name, _, _ in PER_LAYER}
    assert set(values) <= names


def test_traced_run_reports_overhead_on_a_tiny_catalog(capsys):
    workload = run.Verify(max_n=2, repeats=1, setup_runs=0, limit_s=60)
    summary = run.traced("verify-n2", workload, seed=1, seconds=1)
    metrics = summary["metrics"]
    assert summary["correct"] and summary["failed"] == 0
    assert {name for name, _, _ in PER_LAYER} == set(metrics)
    wall = metrics["trace.wall_s"]["value"]
    untraced = metrics["trace.untraced_wall_s"]["value"]
    assert abs(metrics["trace.overhead_s"]["value"] - (wall - untraced)) < 1e-9
    # The benchmark's own code (decoding the records) is a small share.
    assert run.bench_share({k: v["value"] for k, v in metrics.items()}) < 0.05
    assert metrics["harness.records"]["value"] > 0
