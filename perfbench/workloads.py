"""The work a measured child does: set-up and run functions per workload kind.

Imported by ``child.py`` after the speed timer has started, so that importing
partsem counts toward set-up.  Timings cover library calls only and use
``SPEED.clock``, which stops while the speed kernel runs; encoding results
for the checker happens outside the timed regions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import partsem
from partsem import cli, ensemble, finite_maps, greens, partition_action, regularity, unit_regularity
from speed import SPEED

clock = SPEED.clock


def _images(m):
    return None if m is None else list(m.images)


def _instance(blocks):
    partition = partition_action.Partition.of(blocks)
    return ensemble.Instance(partition, ensemble.IndexSemigroup.full(partition.degree))


# --- verify ------------------------------------------------------------------


def verify_setup(spec):
    return None


def verify_run(state, spec):
    argv = ["verify", "--max-n", str(spec["max_n"]), "--seed", str(spec["seed"]),
            "--format", "machine"]
    out = io.StringIO()
    started = clock()
    with contextlib.redirect_stdout(out):
        code = cli.run_command(argv)
    ended = clock()
    lines = out.getvalue().splitlines()
    records = [json.loads(line) for line in lines]
    for r in records:
        del r["millis"]
    untimed = "\n".join(json.dumps(r, sort_keys=True) for r in records)
    return {
        "seed": spec["seed"],
        "span": [started, ended],
        "exit_code": code,
        "records": len(records),
        "failed_records": sum(1 for r in records if r["failures"]),
        "checks": sum(r["checks"] for r in records),
        "capped": sum(r.get("capped", 0) for r in records),
        "suites": len({r["suite"] for r in records}),
        "digest": hashlib.sha256(untimed.encode()).hexdigest(),
    }


# --- query-mix ---------------------------------------------------------------


def _greens_op(rel, mode):
    name = f"{rel.lower()}_related"

    def op(f, g, inst):
        checker = getattr(greens, name)
        w = checker(f, g, inst, mode=mode)
        replayed = greens.verify_witness(w, f, g) if w is not None else None
        return w is not None, replayed

    return op


def _leq_op(rel):
    def op(f, g, inst):
        return greens.principal_leq_oracle(rel, f, g, inst)

    return op


def _regular_op(f, g, inst):
    inner = regularity.is_regular_oracle(f, inst)
    witnesses = regularity.regular_character_witnesses(f, inst)
    built = regularity.build_inner_inverse(f, witnesses[0], inst) if witnesses else None
    return inner, len(witnesses), built


def _unit_op(f, g, inst):
    unit = unit_regularity.is_unit_regular_oracle(f, inst)
    witnesses = unit_regularity.unit_regular_witnesses(f, inst)
    built = unit_regularity.build_unit_inverse(f, witnesses[0], inst) if witnesses else None
    return unit, len(witnesses), built


def _idempotent_op(f, g, inst):
    return regularity.is_idempotent_characterized(f, inst)


QUERY_OPS = {}
for _rel in "LRDJ":
    for _mode in ("oracle", "theorem"):
        QUERY_OPS[f"greens.{_rel}.{_mode}"] = _greens_op(_rel, _mode)
for _rel in "LRJ":
    QUERY_OPS[f"leq.{_rel}"] = _leq_op(_rel)
QUERY_OPS["element.regular"] = _regular_op
QUERY_OPS["element.unit"] = _unit_op
QUERY_OPS["element.idempotent"] = _idempotent_op


def _encode_query(kind, out):
    if kind.startswith("greens."):
        return list(out)
    if kind.startswith("leq."):
        if out is None or not isinstance(out, tuple):
            return _images(out)
        return [_images(h) for h in out]
    if kind == "element.idempotent":
        return out
    first, count, built = out
    return [_images(first), count, _images(built)]


def _ask(op, f, g, inst):
    """One query's ``(status, output)``; errors are reported, not raised."""
    try:
        return "ok", op(f, g, inst)
    except partsem.ResourceLimitError:
        return "capped", None
    except Exception as exc:  # reported as a failed query
        return f"error:{type(exc).__name__}: {exc}", None


def query_setup(spec):
    states = []
    for item in spec["instances"]:
        inst = _instance(item["blocks"])
        members = ensemble.enumerate_elements(inst)
        boxes = greens.eggbox(inst)
        ensemble.units(inst)
        ensemble.index_units(inst.si)
        states.append((inst, members, boxes))
    return states


def query_run(states, spec):
    """Each query is streamed out as ``[start, end, status, answer]`` when it
    finishes, so the process's memory does not grow with its throughput."""
    kinds = spec["kinds"]
    ops = [QUERY_OPS[k] for k in kinds]
    write = sys.stdout.write
    # A fixed query count replays an earlier run's work; otherwise run for the time.
    count = spec.get("max_queries")
    deadline = None if count is not None else clock() + spec["seconds"]
    for inst_id, kind_id, fk, gk in spec["queries"][:count]:
        if deadline is not None and clock() >= deadline:
            break
        inst, members, _ = states[inst_id]
        f, g = members[fk], members[gk]
        started = clock()
        status, out = _ask(ops[kind_id], f, g, inst)
        ended = clock()
        answer = _encode_query(kinds[kind_id], out) if status == "ok" else None
        with SPEED.held():
            write(json.dumps([started, ended, status, answer]) + "\n")
    # Untimed: one-sided J on the audit pairs, where ROADMAP item 1 makes it wrong.
    audit = []
    for inst_id, fk, gk in spec["audit"]:
        inst, members, _ = states[inst_id]
        status, out = _ask(QUERY_OPS["leq.J"], members[fk], members[gk], inst)
        audit.append([status, _encode_query("leq.J", out) if status == "ok" else None])
    return {
        "audit": audit,
        "members": [[list(m.images) for m in members] for _, members, _ in states],
        "eggbox": [boxes for _, _, boxes in states],
    }


# --- scale-n5 ------------------------------------------------------------------


def scale_setup(spec):
    return [_instance(item["blocks"]) for item in spec["instances"]]


def _sweep(f, inst):
    """The per-element calls of the sweep, oracle against criterion."""
    return (
        regularity.is_regular_oracle(f, inst),
        len(regularity.regular_character_witnesses(f, inst)),
        unit_regularity.is_unit_regular_oracle(f, inst),
        len(unit_regularity.unit_regular_witnesses(f, inst)),
        finite_maps.is_idempotent_def(f),
        regularity.is_idempotent_characterized(f, inst),
    )


def scale_run(insts, spec):
    started = clock()
    stages, per_instance, ops = [], [], []
    for inst, order in zip(insts, spec["orders"]):
        t = [clock()]
        members = ensemble.enumerate_elements(inst)
        size = ensemble.predicted_size(inst)
        t.append(clock())
        unit_list = ensemble.units(inst)
        t.append(clock())
        boxes = greens.eggbox(inst)
        t.append(clock())
        semigroup = {}
        for name, fn in (
            ("regular", regularity.is_regular_semigroup),
            ("inverse", regularity.is_inverse_semigroup),
            ("unit-regular", unit_regularity.is_unit_regular_semigroup),
        ):
            for mode in ("oracle", "theorem"):
                semigroup[f"{name}.{mode}"] = fn(inst, mode)
        t.append(clock())
        rows = []
        for k in order:
            op_started = clock()
            row = _sweep(members[k], inst)
            ops.append((op_started, clock()))
            rows.append((k, *row))
        t.append(clock())
        stages.append(t)
        per_instance.append((members, size, unit_list, boxes, semigroup, rows))
    return {
        "span": [started, clock()],
        "stages": stages,
        "ops": ops,
        "instances": [
            {
                "members": [list(m.images) for m in members],
                "predicted_size": size,
                "units": [list(u.images) for u in unit_list],
                "eggbox": boxes,
                "semigroup": semigroup,
                "elements": [
                    [k, _images(inner), n_reg, _images(unit), n_unit, idem, idem_c]
                    for k, inner, n_reg, unit, n_unit, idem, idem_c in rows
                ],
            }
            for members, size, unit_list, boxes, semigroup, rows in per_instance
        ],
    }


WORKLOADS = {
    "verify": (verify_setup, verify_run),
    "query": (query_setup, query_run),
    "scale": (scale_setup, scale_run),
}
