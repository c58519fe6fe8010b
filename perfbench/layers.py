"""Per-layer metric names and their computation from a finished trace.

One layer per partsem module.  Route metrics (``*.oracle_s``,
``*.criterion_s``, ...) are the disjoint category times kept by the tracer;
``harness.*`` stage metrics are inclusive wall times; ``<layer>.self_s`` is
the time spent in the layer's own code.  ``bench.self_s`` is the part of
``trace.wall_s`` outside every wrapped call, the benchmark's own code; it
should be a small share, or the layers miss where the time goes.
"""

from __future__ import annotations

SUITES = (
    "character-homomorphism",
    "lift-character-section",
    "unit-bijection-crosscheck",
    "unit-image-blocks",
    "block-maps-roundtrip",
    "element-counting",
    "member-closure",
    "unit-set-identity",
    "units-are-bijections",
    "regular-element-equivalence",
    "inner-inverse-construction",
    "idempotent-equivalence",
    "regular-semigroup-equivalence",
    "inverse-semigroup-equivalence",
    "subgroup-regularity",
    "unit-regular-element-equivalence",
    "unit-inverse-construction",
    "unit-regular-implies-regular",
    "unit-regular-semigroup-equivalence",
    "equal-size-c-equals-d",
    "transversal-lemma",
    "greens-mode-agreement",
    "character-descent",
    "greens-d-composition-commutes",
    "greens-d-subset-j",
    "greens-tx-specialization",
    "greens-witness-replay",
    "greens-necessary-conditions",
    "txp-specialization",
)

RELATIONS = "LRDJ"
MODES = ("oracle", "theorem")


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    s, n, ms = "s", "count", "ms"
    out = [
        ("finite_maps.compose_calls", n, "lower"),
        ("finite_maps.map_constructions", n, "lower"),
        ("finite_maps.self_s", s, "lower"),
        ("partition_action.character_calls", n, "lower"),
        ("partition_action.self_s", s, "lower"),
        ("ensemble.enumerate_s", s, "lower"),
        ("ensemble.units_s", s, "lower"),
        ("ensemble.require_member_calls", n, "lower"),
        ("ensemble.require_member_s", s, "lower"),
        ("ensemble.index_semigroup_s", s, "lower"),
        ("ensemble.self_s", s, "lower"),
    ]
    for layer in ("regularity", "unit_regularity"):
        out += [(f"{layer}.{m}_s", s, "lower") for m in ("oracle", "criterion", "witness_build", "self")]
    out += [
        (f"greens.{m}_s", s, "lower")
        for m in ("preorder_build", "oracle", "criterion", "witness_build", "replay", "eggbox")
    ]
    out += [
        ("greens.calls", n, "lower"),
        ("greens.related_ratio", "ratio", "higher"),
        ("greens.capped", n, "lower"),
        ("greens.leq_J_known_wrong", n, "lower"),
        ("greens.self_s", s, "lower"),
    ]
    out += [(f"greens.{r}.{m}_p50_ms", ms, "lower") for r in RELATIONS for m in MODES]
    out += [(f"greens.leq.{r}_p50_ms", ms, "lower") for r in "LRJ"]
    out += [("harness.build_catalog_s", s, "lower")]
    out += [(f"harness.suite.{name}_s", s, "lower") for name in SUITES]
    out += [
        ("harness.serialize_s", s, "lower"),
        ("harness.checks", n, "higher"),
        ("harness.records", n, "higher"),
        ("harness.self_s", s, "lower"),
        ("cli.self_s", s, "lower"),
        ("bench.self_s", s, "lower"),
        ("trace.wall_s", s, "lower"),
        ("trace.untraced_wall_s", s, "lower"),
        ("trace.overhead_s", s, "lower"),
        ("trace.spans", n, "lower"),
        ("failed_frac", "ratio", "lower"),
        ("capped_frac", "ratio", "lower"),
    ]
    return out


PER_LAYER = _per_layer()


def summarize(tracer, region_s: float) -> dict[str, float]:
    """Every tracer-derived per-layer value, keyed by metric name."""
    cat = tracer.category_time
    layer_self = tracer.layer_self_seconds()
    relation_keys = [
        k for k in tracer.stats if k.startswith(tuple(f"greens.{r}_related[" for r in "lrdj"))
    ]
    calls = sum(tracer.stats[k].calls for k in relation_keys)
    related = sum(tracer.stats[k].not_none for k in relation_keys)
    out = {
        "finite_maps.compose_calls": tracer.calls("finite_maps.compose"),
        "finite_maps.map_constructions": tracer.calls("finite_maps.FiniteMap.__init__"),
        "partition_action.character_calls": tracer.calls("partition_action.character"),
        "ensemble.require_member_calls": tracer.calls("ensemble.require_member"),
        "greens.calls": calls,
        "greens.related_ratio": related / calls if calls else 0.0,
        "greens.capped": tracer.errors("ResourceLimitError", "greens."),
        "harness.build_catalog_s": _total(tracer, "harness.build_catalog"),
        "harness.serialize_s": _total(tracer, "harness.Report.to_machine_lines")
        + _total(tracer, "harness.Report.to_text"),
        "bench.self_s": region_s - tracer.top_level_seconds(),
        "trace.wall_s": region_s,
        "trace.spans": len(tracer.span_key),
    }
    for name in ("enumerate", "units", "require_member", "index_semigroup"):
        out[f"ensemble.{name}_s"] = cat.get(f"ensemble.{name}", 0.0)
    for layer in ("regularity", "unit_regularity"):
        for name in ("oracle", "criterion", "witness_build"):
            out[f"{layer}.{name}_s"] = cat.get(f"{layer}.{name}", 0.0)
    for name in ("preorder_build", "oracle", "criterion", "witness_build", "replay", "eggbox"):
        out[f"greens.{name}_s"] = cat.get(f"greens.{name}", 0.0)
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = seconds
    for r in RELATIONS:
        for m in MODES:
            out[f"greens.{r}.{m}_p50_ms"] = tracer.median_ms(f"greens.{r.lower()}_related[{m}]")
    for r in "LRJ":
        out[f"greens.leq.{r}_p50_ms"] = tracer.median_ms(f"greens.principal_leq_oracle[{r}]")
    for name in SUITES:
        out[f"harness.suite.{name}_s"] = _total(tracer, f"harness.suite.{name}")
    return out


def _total(tracer, key: str) -> float:
    stats = tracer.stats.get(key)
    return stats.total if stats else 0.0
