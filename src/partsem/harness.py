"""Instance catalog generation and the theorem-equivalence suites.

The catalog crosses every set partition of [0, n) for n up to ``max_n`` with
a menu of index semigroups per block count.  Each suite replays one claimed
equivalence or containment over the whole catalog and reports per-instance
verdicts with replayable counterexamples.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .finite_maps import FiniteMap, collapse_defect, compose
from .partition_action import (
    Partition,
    block_maps,
    character,
    is_unit_bijection,
    lift_character,
    preserves_partition,
    reassemble,
)
from .ensemble import (
    IndexSemigroup,
    Instance,
    closure_from_generators,
    enumerate_elements,
    member_index,
    predicted_size,
    units,
)
from . import greens
from .regularity import (
    build_inner_inverse,
    is_idempotent_characterized,
    is_inverse_semigroup,
    is_regular_oracle,
    is_regular_semigroup,
    regular_character_witnesses,
)
from .unit_regularity import (
    build_unit_inverse,
    fg_image_is_kernel_transversal,
    is_unit_regular_oracle,
    is_unit_regular_semigroup,
    unit_regular_witnesses,
)

EXHAUSTIVE_PAIR_LIMIT = 60  # instances above this get sampled pairs
SAMPLE_PAIRS = 10
REPLAY_PAIR_LIMIT = 30  # witness replay is exhaustive below this size


@dataclass(frozen=True)
class CatalogEntry:
    instance: Instance
    partition_label: str
    si_label: str

    @property
    def label(self) -> str:
        return f"{self.partition_label}/{self.si_label}"


@dataclass(frozen=True)
class Catalog:
    max_n: int
    seed: int
    entries: tuple[CatalogEntry, ...]


@dataclass
class SuiteRecord:
    suite: str
    instance: str
    verdict: str  # "pass" or "fail"
    checks: int
    failures: int
    counterexample: dict | None
    capped: int
    millis: float
    observations: tuple[str, ...] = ()

    def to_payload(self, include_timing: bool = True) -> dict:
        payload: dict = {
            "suite": self.suite,
            "instance": self.instance,
            "verdict": self.verdict,
        }
        if self.counterexample is not None:
            payload["counterexample"] = self.counterexample
        if self.capped:
            payload["capped"] = self.capped
        if self.observations:
            payload["observations"] = list(self.observations)
        payload["checks"] = self.checks
        payload["failures"] = self.failures
        if include_timing:
            payload["millis"] = round(self.millis, 3)
        return payload


@dataclass
class Report:
    max_n: int
    seed: int
    records: list[SuiteRecord] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(r.failures for r in self.records)

    @property
    def capped(self) -> int:
        return sum(r.capped for r in self.records)

    def suite_names(self) -> list[str]:
        return sorted({r.suite for r in self.records})

    def to_machine_lines(self, include_timing: bool = True) -> list[str]:
        return [
            json.dumps(r.to_payload(include_timing), sort_keys=True)
            for r in self.records
        ]

    def to_text(self) -> str:
        lines = []
        for suite in self.suite_names():
            rows = [r for r in self.records if r.suite == suite]
            checks = sum(r.checks for r in rows)
            fails = sum(r.failures for r in rows)
            capped = sum(r.capped for r in rows)
            millis = sum(r.millis for r in rows)
            status = "PASS" if fails == 0 else "FAIL"
            extra = f" capped={capped}" if capped else ""
            lines.append(
                f"{status} {suite}: {checks} checks, {fails} failures{extra} "
                f"({millis:.0f} ms)"
            )
            for r in rows:
                if r.failures and r.counterexample is not None:
                    lines.append(f"  counterexample @ {r.instance}: {json.dumps(r.counterexample)}")
                for obs in r.observations:
                    lines.append(f"  note @ {r.instance}: {obs}")
        lines.append(
            f"total: {sum(r.checks for r in self.records)} checks, "
            f"{self.failures} failures across {len(self.suite_names())} suites"
        )
        return "\n".join(lines)


def instance_to_json(inst: Instance) -> dict:
    return {
        "n": inst.partition.n,
        "blocks": [list(b) for b in inst.partition.blocks],
        "si": {
            "kind": "explicit",
            "elements": [list(a.images) for a in inst.si.elements],
        },
    }


def _set_partitions(n: int):
    """All set partitions of [0, n) via restricted-growth strings."""

    def extend(prefix: list[int], top: int):
        if len(prefix) == n:
            blocks: list[list[int]] = [[] for _ in range(top + 1)]
            for x, j in enumerate(prefix):
                blocks[j].append(x)
            yield tuple(tuple(b) for b in blocks)
            return
        for j in range(top + 2):
            yield from extend(prefix + [j], max(top, j))

    yield from extend([0], 0)


def _subgroups_of_sym(degree: int) -> list[IndexSemigroup]:
    perms = IndexSemigroup.symmetric(degree).elements
    seen: dict[frozenset, IndexSemigroup] = {}
    for g in perms:
        sub = closure_from_generators([g])
        seen.setdefault(frozenset(m.images for m in sub.elements), sub)
    for g, h in itertools.combinations(perms, 2):
        sub = closure_from_generators([g, h])
        seen.setdefault(frozenset(m.images for m in sub.elements), sub)
    return sorted(
        seen.values(), key=lambda s: (len(s.elements), [m.images for m in s.elements])
    )


def build_catalog(max_n: int, seed: int) -> Catalog:
    """Deterministic instance catalog for (max_n, seed)."""
    if max_n < 1:
        raise InvalidArgumentError("max_n must be at least 1")
    rng = random.Random(seed)
    entries: list[CatalogEntry] = []
    for n in range(1, max_n + 1):
        for blocks in _set_partitions(n):
            partition = Partition(n, blocks)
            degree = partition.degree
            menu: list[tuple[str, IndexSemigroup]] = [
                ("full", IndexSemigroup.full(degree)),
                ("sym", IndexSemigroup.symmetric(degree)),
                ("id", IndexSemigroup.trivial(degree)),
                ("id+const", IndexSemigroup.identity_with_constants(degree)),
            ]
            for k, sub in enumerate(_subgroups_of_sym(degree)):
                menu.append((f"subgrp{k}", sub))
            for count in (1, 2):
                gens = [
                    FiniteMap(degree, degree, tuple(rng.randrange(degree) for _ in range(degree)))
                    for _ in range(count)
                ]
                gen_si = closure_from_generators(gens)
                menu.append((f"rand{count}", gen_si))
                menu.append(
                    (
                        f"rand{count}+id",
                        closure_from_generators(gens + [FiniteMap.identity(degree)]),
                    )
                )
            plabel = f"n{n}:" + "".join(
                "[" + ",".join(map(str, b)) + "]" for b in blocks
            )
            used: set[frozenset] = set()
            for silabel, si in menu:
                key = frozenset(m.images for m in si.elements)
                if key in used:
                    continue
                used.add(key)
                entries.append(CatalogEntry(Instance(partition, si), plabel, silabel))
    return Catalog(max_n, seed, tuple(entries))


def _record(
    suite: str,
    entry_label: str,
    started: float,
    checks: int,
    failures: list[dict],
    capped: int = 0,
    observations: tuple[str, ...] = (),
) -> SuiteRecord:
    return SuiteRecord(
        suite=suite,
        instance=entry_label,
        verdict="pass" if not failures else "fail",
        checks=checks,
        failures=len(failures),
        counterexample=failures[0] if failures else None,
        capped=capped,
        millis=(time.perf_counter() - started) * 1000.0,
        observations=observations,
    )


def _fail(entry: CatalogEntry, detail: str, **elements) -> dict:
    payload = {
        "instance": instance_to_json(entry.instance),
        "detail": detail,
    }
    for key, value in elements.items():
        if isinstance(value, FiniteMap):
            payload[key] = list(value.images)
        else:
            payload[key] = value
    return payload


def _member_tuples(inst: Instance) -> list[tuple[int, ...]]:
    return [m.images for m in enumerate_elements(inst)]


def _chars(inst: Instance) -> list[tuple[int, ...]]:
    p = inst.partition
    lookup = [p.block_of(x) for x in range(p.n)]
    return [
        tuple(lookup[t[b[0]]] for b in p.blocks) for t in _member_tuples(inst)
    ]


# --- partition_action suites -------------------------------------------------


def _suite_character_homomorphism(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        started = time.perf_counter()
        inst = entry.instance
        p = inst.partition
        lookup = [p.block_of(x) for x in range(p.n)]
        firsts = [b[0] for b in p.blocks]
        tuples = _member_tuples(inst)
        chars = _chars(inst)
        failures: list[dict] = []
        checks = 0
        rng_n = range(p.n)
        for ft, cf in zip(tuples, chars):
            for gt, cg in zip(tuples, chars):
                checks += 1
                composite = tuple(gt[ft[x]] for x in rng_n)
                direct = tuple(lookup[composite[x]] for x in firsts)
                homomorphic = tuple(cg[cf[i]] for i in range(p.degree))
                if direct != homomorphic:
                    failures.append(
                        _fail(entry, "character of composite differs from composed characters",
                              f=list(ft), g=list(gt))
                    )
        out.append(_record("character-homomorphism", entry.label, started, checks, failures))
    return out


def _suite_lift_character_section(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        started = time.perf_counter()
        inst = entry.instance
        failures = []
        checks = 0
        for alpha in inst.si.elements:
            checks += 1
            lifted = lift_character(alpha, inst.partition)
            if character(lifted, inst.partition) != alpha:
                failures.append(_fail(entry, "lift does not section the character map", alpha=alpha))
        out.append(_record("lift-character-section", entry.label, started, checks, failures))
    return out


def _suite_unit_bijection_crosscheck(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        started = time.perf_counter()
        inst = entry.instance
        p = inst.partition
        failures = []
        checks = 0
        for f in enumerate_elements(inst):
            checks += 1
            direct = f.is_bijective() and preserves_partition(f.inverse(), p)
            if is_unit_bijection(f, p) != direct:
                failures.append(_fail(entry, "block-bijectivity test disagrees with inverse test", f=f))
        out.append(_record("unit-bijection-crosscheck", entry.label, started, checks, failures))
    return out


def _suite_unit_image_blocks(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        started = time.perf_counter()
        inst = entry.instance
        p = inst.partition
        block_sets = set(p.block_sets)
        failures = []
        checks = 0
        for f in enumerate_elements(inst):
            if not is_unit_bijection(f, p):
                continue
            for b in p.blocks:
                checks += 1
                if frozenset(f.images[x] for x in b) not in block_sets:
                    failures.append(_fail(entry, "image of a block under a unit is not a block", f=f))
        out.append(_record("unit-image-blocks", entry.label, started, checks, failures))
    return out


def _suite_block_maps_roundtrip(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        started = time.perf_counter()
        inst = entry.instance
        failures = []
        checks = 0
        for f in enumerate_elements(inst):
            checks += 1
            if reassemble(block_maps(f, inst.partition), inst.partition) != f:
                failures.append(_fail(entry, "block decomposition does not reassemble", f=f))
        out.append(_record("block-maps-roundtrip", entry.label, started, checks, failures))
    return out


# --- ensemble suites ---------------------------------------------------------


def _suite_element_counting(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        started = time.perf_counter()
        inst = entry.instance
        failures = []
        actual = len(enumerate_elements(inst))
        expected = predicted_size(inst)
        if actual != expected:
            failures.append(_fail(entry, f"enumerated {actual} members, formula gives {expected}"))
        out.append(_record("element-counting", entry.label, started, 1, failures))
    return out


def _suite_member_closure(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        started = time.perf_counter()
        inst = entry.instance
        tuples = _member_tuples(inst)
        index = member_index(inst)
        rng_n = range(inst.partition.n)
        failures = []
        checks = 0
        for ft in tuples:
            for gt in tuples:
                checks += 1
                if tuple(gt[ft[x]] for x in rng_n) not in index:
                    failures.append(_fail(entry, "composite escapes the member set",
                                          f=list(ft), g=list(gt)))
        out.append(_record("member-closure", entry.label, started, checks, failures))
    return out


def _suite_unit_set_identity(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        if not entry.instance.si.has_identity:
            continue
        started = time.perf_counter()
        inst = entry.instance
        members = enumerate_elements(inst)
        ident = FiniteMap.identity(inst.partition.n)
        by_definition = []
        for f in members:
            if any(compose(f, g) == ident and compose(g, f) == ident for g in members):
                by_definition.append(f)
        by_formula = [f for f in members if is_unit_bijection(f, inst.partition)]
        failures = []
        if by_definition != by_formula:
            failures.append(_fail(entry, "two-sided-invertible members differ from the S(X,P) intersection"))
        out.append(_record("unit-set-identity", entry.label, started, len(members), failures))
    return out


def _suite_units_are_bijections(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        if not entry.instance.si.has_identity:
            continue
        started = time.perf_counter()
        inst = entry.instance
        failures = []
        checks = 0
        for u in units(inst):
            checks += 1
            if not (u.is_bijective() and is_unit_bijection(u, inst.partition)):
                failures.append(_fail(entry, "a unit fails the bijection tests", u=u))
        out.append(_record("units-are-bijections", entry.label, started, checks, failures))
    return out


# --- regularity suites -------------------------------------------------------


def _suite_regular_element_equivalence(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        started = time.perf_counter()
        inst = entry.instance
        failures = []
        checks = 0
        for f in enumerate_elements(inst):
            checks += 1
            g = is_regular_oracle(f, inst)
            witnesses = regular_character_witnesses(f, inst)
            if (g is not None) != bool(witnesses):
                failures.append(_fail(entry, "oracle and witness-set verdicts disagree", f=f))
                continue
            if g is not None and character(g, inst.partition) not in witnesses:
                failures.append(_fail(entry, "character of the found inner inverse is not a witness",
                                      f=f, g=g))
        out.append(_record("regular-element-equivalence", entry.label, started, checks, failures))
    return out


def _suite_inner_inverse_construction(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        started = time.perf_counter()
        inst = entry.instance
        index = member_index(inst)
        failures = []
        checks = 0
        for f in enumerate_elements(inst):
            for alpha in regular_character_witnesses(f, inst):
                checks += 1
                g = build_inner_inverse(f, alpha, inst)
                ok = (
                    compose(compose(f, g), f) == f
                    and character(g, inst.partition) == alpha
                    and g.images in index
                )
                if not ok:
                    failures.append(_fail(entry, "constructed inner inverse fails validation",
                                          f=f, alpha=alpha, g=g))
        out.append(_record("inner-inverse-construction", entry.label, started, checks, failures))
    return out


def _suite_idempotent_equivalence(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        started = time.perf_counter()
        inst = entry.instance
        failures = []
        checks = 0
        for f in enumerate_elements(inst):
            checks += 1
            if (compose(f, f) == f) != is_idempotent_characterized(f, inst):
                failures.append(_fail(entry, "direct and structural idempotency disagree", f=f))
        out.append(_record("idempotent-equivalence", entry.label, started, checks, failures))
    return out


def _suite_regular_semigroup_equivalence(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        started = time.perf_counter()
        inst = entry.instance
        failures = []
        oracle = is_regular_semigroup(inst, "oracle")
        theorem = is_regular_semigroup(inst, "theorem")
        checks = 1
        if oracle != theorem:
            failures.append(_fail(entry, f"oracle={oracle} but theorem={theorem}"))
        if entry.si_label == "full":
            checks += 1
            if theorem != inst.partition.is_trivial():
                failures.append(_fail(
                    entry,
                    "full-character instance regularity does not match partition triviality",
                ))
        out.append(_record("regular-semigroup-equivalence", entry.label, started, checks, failures))
    return out


def _suite_inverse_semigroup_equivalence(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        started = time.perf_counter()
        inst = entry.instance
        oracle = is_inverse_semigroup(inst, "oracle")
        theorem = is_inverse_semigroup(inst, "theorem")
        failures = []
        if oracle != theorem:
            failures.append(_fail(entry, f"oracle={oracle} but theorem={theorem}"))
        out.append(_record("inverse-semigroup-equivalence", entry.label, started, 1, failures))
    return out


def _suite_subgroup_regularity(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        si = entry.instance.si
        if not (si.has_identity and all(a.is_bijective() for a in si.elements)):
            continue
        started = time.perf_counter()
        failures = []
        for mode in ("oracle", "theorem"):
            if not is_regular_semigroup(entry.instance, mode):
                failures.append(_fail(entry, f"subgroup-character instance is not regular ({mode})"))
        out.append(_record("subgroup-regularity", entry.label, started, 2, failures))
    return out


# --- unit_regularity suites --------------------------------------------------


def _suite_unit_regular_element_equivalence(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        if not entry.instance.si.has_identity:
            continue
        started = time.perf_counter()
        inst = entry.instance
        failures = []
        checks = 0
        for f in enumerate_elements(inst):
            checks += 1
            u = is_unit_regular_oracle(f, inst)
            witnesses = unit_regular_witnesses(f, inst)
            if (u is not None) != bool(witnesses):
                failures.append(_fail(entry, "unit oracle and witness-set verdicts disagree", f=f))
                continue
            if u is not None and character(u, inst.partition) not in witnesses:
                failures.append(_fail(entry, "character of the found unit inverse is not a witness",
                                      f=f, u=u))
        out.append(_record("unit-regular-element-equivalence", entry.label, started, checks, failures))
    return out


def _suite_unit_inverse_construction(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        if not entry.instance.si.has_identity:
            continue
        started = time.perf_counter()
        inst = entry.instance
        index = member_index(inst)
        failures = []
        checks = 0
        for f in enumerate_elements(inst):
            for alpha in unit_regular_witnesses(f, inst):
                checks += 1
                u = build_unit_inverse(f, alpha, inst)
                ok = (
                    compose(compose(f, u), f) == f
                    and is_unit_bijection(u, inst.partition)
                    and character(u, inst.partition) == alpha
                    and u.images in index
                )
                if not ok:
                    failures.append(_fail(entry, "constructed unit inverse fails validation",
                                          f=f, alpha=alpha, u=u))
        out.append(_record("unit-inverse-construction", entry.label, started, checks, failures))
    return out


def _suite_unit_regular_implies_regular(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        if not entry.instance.si.has_identity:
            continue
        started = time.perf_counter()
        inst = entry.instance
        failures = []
        checks = 0
        for f in enumerate_elements(inst):
            checks += 1
            if is_unit_regular_oracle(f, inst) is not None and is_regular_oracle(f, inst) is None:
                failures.append(_fail(entry, "unit-regular member is not regular", f=f))
        out.append(_record("unit-regular-implies-regular", entry.label, started, checks, failures))
    return out


def _suite_unit_regular_semigroup_equivalence(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        if not entry.instance.si.has_identity:
            continue
        started = time.perf_counter()
        inst = entry.instance
        oracle = is_unit_regular_semigroup(inst, "oracle")
        theorem = is_unit_regular_semigroup(inst, "theorem")
        failures = []
        checks = 1
        if oracle != theorem:
            failures.append(_fail(entry, f"oracle={oracle} but theorem={theorem}"))
        if entry.si_label == "full":
            checks += 1
            if theorem != inst.partition.is_trivial():
                failures.append(_fail(
                    entry,
                    "full-character instance unit-regularity does not match partition triviality",
                ))
        out.append(_record("unit-regular-semigroup-equivalence", entry.label, started, checks, failures))
    return out


def _suite_equal_size_c_equals_d(catalog: Catalog) -> list[SuiteRecord]:
    started = time.perf_counter()
    failures = []
    checks = 0
    for n in range(1, 6):
        for images in itertools.product(range(n), repeat=n):
            checks += 1
            c, d = collapse_defect(FiniteMap(n, n, images))
            if c != d:
                failures.append({"detail": "equal-size map with c != d", "f": list(images)})
    return [_record("equal-size-c-equals-d", "maps up to size 5", started, checks, failures)]


def _suite_transversal_lemma(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        started = time.perf_counter()
        inst = entry.instance
        failures = []
        checks = 0
        with_units = inst.si.has_identity
        for f in enumerate_elements(inst):
            g = is_regular_oracle(f, inst)
            if g is not None:
                checks += 1
                if not fg_image_is_kernel_transversal(f, g):
                    failures.append(_fail(entry, "image of f*g is not a kernel transversal", f=f, g=g))
            if with_units:
                u = is_unit_regular_oracle(f, inst)
                if u is not None:
                    checks += 1
                    if not fg_image_is_kernel_transversal(f, u):
                        failures.append(_fail(entry, "image of f*u is not a kernel transversal", f=f, u=u))
        out.append(_record("transversal-lemma", entry.label, started, checks, failures))
    return out


# --- greens suites -----------------------------------------------------------


def _pair_sample(entry: CatalogEntry, catalog: Catalog, size: int, limit: int) -> list[tuple[int, int]]:
    if size <= limit:
        return [(a, b) for a in range(size) for b in range(size)]
    rng = random.Random(f"{catalog.seed}:{entry.label}:pairs")
    return [(rng.randrange(size), rng.randrange(size)) for _ in range(SAMPLE_PAIRS)]


def _suite_greens_mode_agreement(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    checkers = greens.checkers()
    for entry in catalog.entries:
        if not entry.instance.si.has_identity:
            continue
        started = time.perf_counter()
        inst = entry.instance
        members = enumerate_elements(inst)
        pairs = _pair_sample(entry, catalog, len(members), EXHAUSTIVE_PAIR_LIMIT)
        failures = []
        capped = 0
        checks = 0
        for a, b in pairs:
            f, g = members[a], members[b]
            for rel, checker in checkers.items():
                checks += 1
                oracle = checker(f, g, inst, mode="oracle") is not None
                try:
                    theorem = checker(f, g, inst, mode="theorem") is not None
                except ResourceLimitError:
                    capped += 1
                    continue
                if oracle != theorem:
                    failures.append(_fail(
                        entry, f"{rel}: oracle={oracle} but theorem={theorem}", f=f, g=g,
                    ))
        notes = (f"{capped} capped checks recorded oracle-only verdicts",) if capped else ()
        out.append(_record("greens-mode-agreement", entry.label, started, checks,
                           failures, capped, notes))
    return out


def _suite_character_descent(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        if not entry.instance.si.has_identity:
            continue
        started = time.perf_counter()
        inst = entry.instance
        data = greens._greens_data(inst)
        size = len(data.members)
        failures = []
        checks = 0
        char_ids = data.char_ids
        for a in range(size):
            for b in range(size):
                checks += 1
                if data.l_below[a, b] and not data.si_l_below[char_ids[a], char_ids[b]]:
                    failures.append(_fail(entry, "L-inequality does not descend to characters",
                                          f=data.members[a], g=data.members[b]))
                if data.r_below[a, b] and not data.si_r_below[char_ids[a], char_ids[b]]:
                    failures.append(_fail(entry, "R-inequality does not descend to characters",
                                          f=data.members[a], g=data.members[b]))
        out.append(_record("character-descent", entry.label, started, checks, failures))
    return out


def _suite_greens_d_composition_commutes(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        if not entry.instance.si.has_identity:
            continue
        started = time.perf_counter()
        data = greens._greens_data(entry.instance)
        size = len(data.members)
        l_eq = data.l_below & data.l_below.T
        r_eq = data.r_below & data.r_below.T
        lr = data.d_rel
        rl = r_eq @ l_eq
        failures = []
        if not np.array_equal(lr, rl):
            a, b = map(int, np.argwhere(lr != rl)[0])
            failures.append(_fail(entry, "L-then-R differs from R-then-L",
                                  f=data.members[a], g=data.members[b]))
        out.append(_record("greens-d-composition-commutes", entry.label, started, size * size, failures))
    return out


def _suite_greens_d_subset_j(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        if not entry.instance.si.has_identity:
            continue
        started = time.perf_counter()
        data = greens._greens_data(entry.instance)
        size = len(data.members)
        d_rel = data.d_rel
        j_rel = data.j_below & data.j_below.T
        failures = []
        if np.any(d_rel & ~j_rel):
            a, b = map(int, np.argwhere(d_rel & ~j_rel)[0])
            failures.append(_fail(entry, "a D-related pair is not J-related",
                                  f=data.members[a], g=data.members[b]))
        # D = J in every finite semigroup, so a J-related pair outside D is a fault.
        if np.any(j_rel & ~d_rel):
            a, b = map(int, np.argwhere(j_rel & ~d_rel)[0])
            failures.append(_fail(entry, "a J-related pair is not D-related",
                                  f=data.members[a], g=data.members[b]))
        out.append(_record("greens-d-subset-j", entry.label, started, size * size, failures))
    return out


def _suite_greens_tx_specialization(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        if entry.instance.partition.degree != 1 or not entry.instance.si.has_identity:
            continue
        started = time.perf_counter()
        data = greens._greens_data(entry.instance)
        size = len(data.members)
        l_eq = data.l_below & data.l_below.T
        r_eq = data.r_below & data.r_below.T
        d_rel = data.d_rel
        j_rel = data.j_below & data.j_below.T
        ranks = [len(set(t)) for t in data.imgs]
        failures = []
        checks = 0
        for a in range(size):
            for b in range(size):
                checks += 1
                image_eq = data.img_mask[a] == data.img_mask[b]
                kernel_eq = data.kernels[a] == data.kernels[b]
                rank_eq = ranks[a] == ranks[b]
                if bool(l_eq[a, b]) != image_eq:
                    failures.append(_fail(entry, "L disagrees with image equality",
                                          f=data.members[a], g=data.members[b]))
                elif bool(r_eq[a, b]) != kernel_eq:
                    failures.append(_fail(entry, "R disagrees with kernel equality",
                                          f=data.members[a], g=data.members[b]))
                elif bool(j_rel[a, b]) != rank_eq or bool(d_rel[a, b]) != rank_eq:
                    failures.append(_fail(entry, "D or J disagrees with rank equality",
                                          f=data.members[a], g=data.members[b]))
        out.append(_record("greens-tx-specialization", entry.label, started, checks, failures))
    return out


def _suite_greens_witness_replay(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    checkers = greens.checkers()
    for entry in catalog.entries:
        if not entry.instance.si.has_identity:
            continue
        started = time.perf_counter()
        inst = entry.instance
        members = enumerate_elements(inst)
        pairs = _pair_sample(entry, catalog, len(members), REPLAY_PAIR_LIMIT)
        failures = []
        capped = 0
        checks = 0
        for a, b in pairs:
            f, g = members[a], members[b]
            for rel, checker in checkers.items():
                for mode in ("oracle", "theorem"):
                    try:
                        w = checker(f, g, inst, mode=mode)
                    except ResourceLimitError:
                        capped += 1
                        continue
                    if w is None:
                        continue
                    checks += 1
                    if not greens.verify_witness(w, f, g):
                        failures.append(_fail(entry, f"{rel} witness ({mode}) fails to replay", f=f, g=g))
        out.append(_record("greens-witness-replay", entry.label, started, checks, failures, capped))
    return out


def _suite_greens_necessary_conditions(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    for entry in catalog.entries:
        if not entry.instance.si.has_identity:
            continue
        started = time.perf_counter()
        data = greens._greens_data(entry.instance)
        size = len(data.members)
        failures = []
        checks = 0
        for a in range(size):
            for b in range(size):
                checks += 1
                if data.l_eq(a, b) and data.img_mask[a] != data.img_mask[b]:
                    failures.append(_fail(entry, "L-related pair with different images",
                                          f=data.members[a], g=data.members[b]))
                if data.r_eq(a, b) and data.kernels[a] != data.kernels[b]:
                    failures.append(_fail(entry, "R-related pair with different kernels",
                                          f=data.members[a], g=data.members[b]))
        out.append(_record("greens-necessary-conditions", entry.label, started, checks, failures))
    return out


def _suite_txp_specialization(catalog: Catalog) -> list[SuiteRecord]:
    out = []
    checkers = greens.checkers()
    for entry in catalog.entries:
        if entry.si_label != "full":
            continue
        started = time.perf_counter()
        inst = entry.instance
        members = enumerate_elements(inst)
        pairs = _pair_sample(entry, catalog, len(members), REPLAY_PAIR_LIMIT)
        failures = []
        capped = 0
        checks = 0
        for a, b in pairs:
            f, g = members[a], members[b]
            for rel, checker in checkers.items():
                checks += 1
                specialized = greens.txp_green(rel, f, g, inst.partition)
                oracle = checker(f, g, inst, mode="oracle") is not None
                if specialized != oracle:
                    failures.append(_fail(entry, f"{rel}: specialized={specialized} oracle={oracle}",
                                          f=f, g=g))
                    continue
                try:
                    theorem = checker(f, g, inst, mode="theorem") is not None
                except ResourceLimitError:
                    capped += 1
                    continue
                if specialized != theorem:
                    failures.append(_fail(entry, f"{rel}: specialized={specialized} theorem={theorem}",
                                          f=f, g=g))
        out.append(_record("txp-specialization", entry.label, started, checks, failures, capped))
    return out


SUITES = {
    "character-homomorphism": _suite_character_homomorphism,
    "lift-character-section": _suite_lift_character_section,
    "unit-bijection-crosscheck": _suite_unit_bijection_crosscheck,
    "unit-image-blocks": _suite_unit_image_blocks,
    "block-maps-roundtrip": _suite_block_maps_roundtrip,
    "element-counting": _suite_element_counting,
    "member-closure": _suite_member_closure,
    "unit-set-identity": _suite_unit_set_identity,
    "units-are-bijections": _suite_units_are_bijections,
    "regular-element-equivalence": _suite_regular_element_equivalence,
    "inner-inverse-construction": _suite_inner_inverse_construction,
    "idempotent-equivalence": _suite_idempotent_equivalence,
    "regular-semigroup-equivalence": _suite_regular_semigroup_equivalence,
    "inverse-semigroup-equivalence": _suite_inverse_semigroup_equivalence,
    "subgroup-regularity": _suite_subgroup_regularity,
    "unit-regular-element-equivalence": _suite_unit_regular_element_equivalence,
    "unit-inverse-construction": _suite_unit_inverse_construction,
    "unit-regular-implies-regular": _suite_unit_regular_implies_regular,
    "unit-regular-semigroup-equivalence": _suite_unit_regular_semigroup_equivalence,
    "equal-size-c-equals-d": _suite_equal_size_c_equals_d,
    "transversal-lemma": _suite_transversal_lemma,
    "greens-mode-agreement": _suite_greens_mode_agreement,
    "character-descent": _suite_character_descent,
    "greens-d-composition-commutes": _suite_greens_d_composition_commutes,
    "greens-d-subset-j": _suite_greens_d_subset_j,
    "greens-tx-specialization": _suite_greens_tx_specialization,
    "greens-witness-replay": _suite_greens_witness_replay,
    "greens-necessary-conditions": _suite_greens_necessary_conditions,
    "txp-specialization": _suite_txp_specialization,
}


def run_suite(name: str, catalog: Catalog) -> Report:
    """Run one registered suite over the catalog."""
    if name not in SUITES:
        raise InvalidArgumentError(
            f"unknown suite {name!r}; known suites: {', '.join(sorted(SUITES))}"
        )
    report = Report(catalog.max_n, catalog.seed)
    report.records.extend(SUITES[name](catalog))
    return report


def run_all(catalog: Catalog, names: list[str] | None = None) -> Report:
    """Run every registered suite (or the named subset) over the catalog."""
    report = Report(catalog.max_n, catalog.seed)
    for name in names if names is not None else list(SUITES):
        report.records.extend(run_suite(name, catalog).records)
    return report
