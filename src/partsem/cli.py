"""Command-line front end: load instances, run checks, emit reports.

Each ``_cmd_*`` function returns its report's lines and an error message,
or None; ``run_command`` alone writes every command's lines, to ``--out``
or standard output, and decides the exit code: 0 on success, 1 when a
decision command in ``--mode both`` detects an oracle/theorem mismatch or
``verify`` finds violations (the returned error), 2 on input errors, the
unwritable ``--out`` among them.  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    InvalidArgumentError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
    ValidationError,
)
from .finite_maps import FiniteMap, is_idempotent_def
from .partition_action import Partition, character, lift_character
from .ensemble import (
    DEFAULT_ENUMERATION_CAP,
    IndexSemigroup,
    Instance,
    closure_from_generators,
    enumerate_elements,
    predicted_size,
)
from . import greens
from .regularity import (
    is_idempotent_characterized,
    is_inverse_semigroup,
    is_regular_oracle,
    is_regular_semigroup,
    regular_character_witnesses,
)
from .unit_regularity import (
    is_unit_regular_oracle,
    is_unit_regular_semigroup,
    unit_regular_witnesses,
)
from .harness import build_catalog, instance_to_json, run_all, SUITES

_INPUT_ERRORS = (
    InvalidArgumentError,
    ParseError,
    PreconditionError,
    ValidationError,
    ResourceLimitError,
    OSError,
)

_Outcome = tuple[list[str], str | None]  # a report's lines, and its error or None


def _int_rows(value, path: str | Path, field: str) -> list[list[int]]:
    """``value``, once it is checked to be a list of integer lists; JSON floats
    and booleans are refused."""
    if not isinstance(value, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in value
    ):
        raise ValidationError(f"{path}: field {field!r} must be a list of integer lists")
    return value


def parse_instance(path: str | Path) -> Instance:
    """Load and validate an instance file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object at the top level")
    for key in ("n", "blocks", "si"):
        if key not in payload:
            raise ParseError(f"{path}: missing field {key!r}")
    if type(payload["n"]) is not int:
        raise ValidationError(f"{path}: field 'n' must be an integer")
    blocks = _int_rows(payload["blocks"], path, "blocks")
    try:
        partition = Partition(payload["n"], tuple(map(tuple, blocks)))
    except InvalidArgumentError as exc:
        raise ValidationError(f"{path}: invalid blocks: {exc}") from exc
    si_payload = payload["si"]
    if not isinstance(si_payload, dict) or "kind" not in si_payload:
        raise ParseError(f"{path}: field 'si' must be an object with a 'kind'")
    kind = si_payload["kind"]
    degree = partition.degree
    try:
        if kind == "full":
            si = IndexSemigroup.full(degree)
        elif kind == "symmetric":
            si = IndexSemigroup.symmetric(degree)
        elif kind == "explicit":
            if "elements" not in si_payload:
                raise ParseError(f"{path}: explicit si needs an 'elements' field")
            rows = _int_rows(si_payload["elements"], path, "elements")
            maps = [FiniteMap.of(m, degree) for m in rows]
            si = IndexSemigroup(degree, tuple(maps))
        elif kind == "generated":
            if "generators" not in si_payload:
                raise ParseError(f"{path}: generated si needs a 'generators' field")
            rows = _int_rows(si_payload["generators"], path, "generators")
            gens = [FiniteMap.of(m, degree) for m in rows]
            si = closure_from_generators(gens)
        else:
            raise ParseError(f"{path}: unknown si kind {kind!r}")
    except InvalidArgumentError as exc:
        raise ValidationError(f"{path}: invalid si: {exc}") from exc
    return Instance(partition, si)


serialize_instance = instance_to_json


def _parse_map(text: str, n: int, what: str, codomain: int | None = None) -> FiniteMap:
    """A map of [0, n) into [0, codomain) (into [0, n) by default)."""
    try:
        images = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidArgumentError(f"{what}: expected comma-separated integers") from exc
    if len(images) != n:
        raise InvalidArgumentError(f"{what}: expected {n} entries, got {len(images)}")
    return FiniteMap.of(images, n if codomain is None else codomain)


def _witness_payload(w: greens.GreenWitness, f: FiniteMap, g: FiniteMap, p: Partition) -> dict:
    index_maps, pairing, image_maps = greens.witness_maps(w, f, g, p)
    payload: dict = {
        "relation": w.relation,
        "index_maps": {k: list(v.images) for k, v in index_maps.items()},
        "factors": {k: list(v.images) for k, v in w.factors},
    }
    if pairing is not None:
        payload["class_pairing"] = [[list(a), list(b)] for a, b in pairing]
    if image_maps:
        payload["image_maps"] = {k: list(v.images) for k, v in image_maps.items()}
    return payload


def _cmd_enumerate(args) -> _Outcome:
    inst = parse_instance(args.instance)
    size = predicted_size(inst)
    members = enumerate_elements(inst, cap=args.cap)
    if args.format == "machine":
        return [json.dumps({"predicted_size": size, "count": len(members)})] + [
            json.dumps({"id": k, "images": list(m.images),
                        "character": list(character(m, inst.partition).images)})
            for k, m in enumerate(members)], None
    return [f"predicted size: {size}"] + [
        f"#{k} {m!r} character={character(m, inst.partition)!r}"
        for k, m in enumerate(members)], None


def _cmd_lift(args) -> _Outcome:
    inst = parse_instance(args.instance)
    p = inst.partition
    alpha = _parse_map(args.alpha, p.degree, "--alpha")
    if alpha not in inst.si:
        raise InvalidArgumentError(f"--alpha: {alpha} is not in the index semigroup")
    basepoints = None
    if args.basepoints:  # a map from the blocks into X
        basepoints = _parse_map(args.basepoints, p.degree, "--basepoints", p.n).images
    lifted = lift_character(alpha, p, basepoints)
    if args.format == "machine":
        return [json.dumps({"alpha": list(alpha.images), "lift": list(lifted.images)})], None
    return [f"lift of {alpha!r}: {lifted!r}"], None


def _cmd_check_element(args) -> _Outcome:
    inst = parse_instance(args.instance)
    f = _parse_map(args.f, inst.partition.n, "--f")
    inner = is_regular_oracle(f, inst)
    witnesses = regular_character_witnesses(f, inst)
    idem_def = is_idempotent_def(f)
    idem_chr = is_idempotent_characterized(f, inst)
    row: dict = {
        "element": list(f.images),
        "regular": inner is not None,
        "regular_witnesses": [list(a.images) for a in witnesses],
        "inner_inverse": list(inner.images) if inner else None,
        "idempotent": idem_def,
        "idempotent_characterized": idem_chr,
    }
    unit = None
    if inst.si.has_identity:
        unit = is_unit_regular_oracle(f, inst)
        uw = unit_regular_witnesses(f, inst)
        row["unit_regular"] = unit is not None
        row["unit_regular_witnesses"] = [list(a.images) for a in uw]
        row["unit_inverse"] = list(unit.images) if unit else None
    if args.format == "machine":
        return [json.dumps(row, sort_keys=True)], None
    lines = [
        f"element {f!r}",
        f"  regular: {row['regular']}" + (f" (inner inverse {inner!r})" if inner else ""),
        f"  regular witnesses: {[list(a.images) for a in witnesses]}",
        f"  idempotent: {idem_def} (characterized: {idem_chr})",
    ]
    if "unit_regular" in row:
        unit_repr = f" (unit inverse {unit!r})" if unit else ""
        lines.append(f"  unit-regular: {row['unit_regular']}{unit_repr}")
        lines.append(f"  unit witnesses: {row['unit_regular_witnesses']}")
    return lines, None


_PROPERTIES = {
    "regular": is_regular_semigroup,
    "inverse": is_inverse_semigroup,
    "unit-regular": is_unit_regular_semigroup,
}

_MISMATCH = "oracle/theorem mismatch"


def _cmd_check_semigroup(args) -> _Outcome:
    inst = parse_instance(args.instance)
    checker = _PROPERTIES[args.property]
    modes = ("oracle", "theorem") if args.mode == "both" else (args.mode,)
    verdicts = {mode: checker(inst, mode) for mode in modes}
    mismatch = len(set(verdicts.values())) > 1
    error = _MISMATCH if mismatch else None
    if args.format == "machine":
        return [json.dumps({"property": args.property, "verdicts": verdicts,
                            "mismatch": mismatch}, sort_keys=True)], error
    lines = [f"{args.property} ({mode}): {verdict}" for mode, verdict in verdicts.items()]
    if mismatch:
        lines.append("MODE MISMATCH: the structural criterion disagrees with the oracle")
    return lines, error


def _cmd_greens(args) -> _Outcome:
    inst = parse_instance(args.instance)
    if args.eggbox:
        boxes = greens.eggbox(inst)
        if args.format == "machine":
            return [json.dumps(box, sort_keys=True) for box in boxes], None
        members = enumerate_elements(inst)
        lines = []
        for k, box in enumerate(boxes):
            lines.append(f"D-class {k} (representative #{box['representative']} "
                         f"{members[box['representative']]!r})")
            for row, r_label in zip(box["grid"], box["r_classes"]):
                cells = [
                    "{" + ",".join(f"#{m}" for m in cell) + "}" for cell in row
                ]
                lines.append(f"  R#{r_label}: " + " ".join(cells))
        return lines, None
    if not args.rel or not args.f or not args.g:
        raise InvalidArgumentError("--rel, --f and --g are required without --eggbox")
    f = _parse_map(args.f, inst.partition.n, "--f")
    g = _parse_map(args.g, inst.partition.n, "--g")
    checker = greens.checkers()[args.rel]
    modes = ("oracle", "theorem") if args.mode == "both" else (args.mode,)
    results = {}
    capped = []
    for mode in modes:
        try:
            results[mode] = checker(f, g, inst, mode=mode, cap=args.cap)
        except ResourceLimitError:
            capped.append(mode)
    verdicts = {mode: w is not None for mode, w in results.items()}
    mismatch = len(set(verdicts.values())) > 1
    error = _MISMATCH if mismatch else None
    if args.format == "machine":
        payload = {
            "relation": args.rel,
            "f": list(f.images),
            "g": list(g.images),
            "verdicts": verdicts,
            "capped_modes": capped,
            "mismatch": mismatch,
        }
        for mode, w in results.items():
            if w is not None:
                payload[f"witness_{mode}"] = _witness_payload(w, f, g, inst.partition)
        return [json.dumps(payload, sort_keys=True)], error
    lines = []
    for mode, w in results.items():
        lines.append(f"{args.rel}-related ({mode}): {w is not None}")
        if w is not None:
            lines += (f"  factor {name}: {factor!r}" for name, factor in w.factors)
    only = ", oracle verdict only" if "oracle" in results else ""
    lines += (f"{args.rel}-related ({mode}): capped out{only}" for mode in capped)
    if mismatch:
        lines.append("MODE MISMATCH")
    return lines, error


def _cmd_verify(args) -> _Outcome:
    report = run_all(build_catalog(args.max_n, args.seed), [args.suite] if args.suite else None)
    lines = report.to_machine_lines() if args.format == "machine" else [report.to_text()]
    return lines, f"{report.failures} suite failures" if report.failures else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partsem",
        description="Laboratory for partition-preserving transformation semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("enumerate", help="list members and the predicted size")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("lift", help="lift an index map to a member")
    p.add_argument("instance")
    p.add_argument("--alpha", required=True, help="comma-separated index images")
    p.add_argument("--basepoints", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("check-element", help="regularity report for one member")
    p.add_argument("instance")
    p.add_argument("--f", required=True, help="comma-separated images")
    add_common(p)
    p.set_defaults(func=_cmd_check_element)

    p = sub.add_parser("check-semigroup", help="whole-semigroup property check")
    p.add_argument("instance")
    p.add_argument("--property", choices=tuple(_PROPERTIES), required=True)
    p.add_argument("--mode", choices=("oracle", "theorem", "both"), default="both")
    add_common(p)
    p.set_defaults(func=_cmd_check_semigroup)

    p = sub.add_parser("greens", help="relation verdict with witness, or the egg-box")
    p.add_argument("instance")
    p.add_argument("--rel", choices=("L", "R", "D", "J"))
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--mode", choices=("oracle", "theorem", "both"), default="both")
    p.add_argument("--cap", type=int, default=greens.DEFAULT_PHI_CAP)
    p.add_argument("--eggbox", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_greens)

    p = sub.add_parser("verify", help="run the theorem-equivalence suites")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--suite", choices=tuple(sorted(SUITES)), default=None)
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "cap", 0) < 0:
            raise InvalidArgumentError(f"--cap must be non-negative, got {args.cap}")
        lines, error = args.func(args)
        text = "".join(f"{line}\n" for line in lines)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if error is None:
        return 0
    print(f"error: {error}", file=sys.stderr)
    return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
