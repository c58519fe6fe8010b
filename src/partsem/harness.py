"""Instance catalog generation and the theorem-equivalence suites.

The catalog crosses every set partition of [0, n) for n up to ``max_n`` with
a menu of index semigroups per block count.  Each suite replays one claimed
equivalence or containment over the whole catalog and reports per-instance
verdicts with replayable counterexamples.

``SUITES`` maps each of the 29 suite names, in report order, to a callable
from a ``Catalog`` to its records.  A suite is declared once: ``@_suite(name,
admits)`` names it and its admission rule (every entry when omitted), and
the one runner times the body on each admitted entry and makes its record.
The body, ``body(entry, tally, catalog)``, only states its checks through
``tally.check(ok, detail, **elements)`` and ``tally.fail(detail,
**elements)``.  To add a suite, declare it with ``@_suite`` where it belongs
in the report order; the order of the declarations is the order of
``SUITES``.

The three Green's pair suites (``greens-mode-agreement``,
``greens-witness-replay`` and ``txp-specialization``) read one **Green's
sweep** per entry instead of calling the checkers themselves.  The sweep
calls each public checker once per pair of ``_pairs``, relation and mode,
on the members' own maps (which the checkers find by identity, with no
lookup), replays a found witness at once (``greens.verify_witness``, on
image tuples), and keeps a one-byte outcome code: unrelated, replays,
fails to replay, or capped.  Whichever of the three suites reaches an entry
first fills its sweep; the catalog keeps it (``greens_sweeps``), so it is
freed with the catalog.  Codes, not witnesses, are kept because the sweeps
of the whole catalog are held from the first of those suites to the last,
and the witnesses would multiply the memory this takes.  The sweep's rows
name members by position, so ``txp-specialization`` decides ``txp_green``
on the members' geometry (``inst.derived.geometry``).
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

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
    _right_closure,
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

    @cached_property
    def greens_sweeps(self) -> dict[str, "_GreensSweep"]:
        """Each entry's Green's sweep by entry label, filled on first use by
        ``_greens_sweep``; kept on the catalog, so it is freed with it."""
        return {}


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
    """The subgroups of the symmetric group on [0, degree) generated by one
    or two permutations, by size and then by their elements' images.

    Each closure runs on positions in the symmetric group's product table,
    multiplying on the right by the generators; one ``IndexSemigroup`` is
    built per distinct subgroup.
    """
    sym = IndexSemigroup.symmetric(degree)
    table = sym.table.tolist()
    pairs = itertools.combinations(range(len(table)), 2)
    found = {
        frozenset(_right_closure(gens, lambda a, g: table[a][g]))
        for gens in itertools.chain(((g,) for g in range(len(table))), pairs)
    }
    subgroups = [
        IndexSemigroup(degree, tuple(sym.elements[k] for k in sorted(sub))) for sub in found
    ]
    return sorted(subgroups, key=lambda s: (len(s.elements), [m.images for m in s.elements]))


def build_catalog(max_n: int, seed: int) -> Catalog:
    """Deterministic instance catalog for (max_n, seed)."""
    if max_n < 1:
        raise InvalidArgumentError("max_n must be at least 1")
    rng = random.Random(seed)
    entries: list[CatalogEntry] = []
    subgroups: dict[int, list[IndexSemigroup]] = {}  # by degree, shared by its partitions
    for n in range(1, max_n + 1):
        for blocks in _set_partitions(n):
            partition = Partition(n, blocks)
            degree = partition.degree
            if degree not in subgroups:
                subgroups[degree] = _subgroups_of_sym(degree)
            menu: list[tuple[str, IndexSemigroup]] = [
                ("full", IndexSemigroup.full(degree)),
                ("sym", IndexSemigroup.symmetric(degree)),
                ("id", IndexSemigroup.trivial(degree)),
                ("id+const", IndexSemigroup.identity_with_constants(degree)),
            ]
            for k, sub in enumerate(subgroups[degree]):
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


# --- the suite runner --------------------------------------------------------

SUITES: dict[str, Callable[[Catalog], list[SuiteRecord]]] = {}


class _Tally:
    """The checks and failures of one suite on one catalog entry."""

    def __init__(self, entry: CatalogEntry | None) -> None:
        self.entry = entry
        self.checks = 0
        self.capped = 0
        self.failures: list[dict] = []
        self.observations: tuple[str, ...] = ()

    def check(self, ok: bool, detail: str, **elements) -> None:
        """Count one check and record a failure unless it holds."""
        self.checks += 1
        if not ok:
            self.fail(detail, **elements)

    def fail(self, detail: str, **elements) -> None:
        """Record a replayable failure; the elements are maps, given as
        ``FiniteMap``s or image tuples."""
        payload: dict = {}
        if self.entry is not None:
            payload["instance"] = instance_to_json(self.entry.instance)
        payload["detail"] = detail
        for key, value in elements.items():
            payload[key] = list(value.images if isinstance(value, FiniteMap) else value)
        self.failures.append(payload)


def _record(suite: str, label: str, started: float, tally: _Tally) -> SuiteRecord:
    failures = tally.failures
    return SuiteRecord(
        suite=suite,
        instance=label,
        verdict="fail" if failures else "pass",
        checks=tally.checks,
        failures=len(failures),
        counterexample=failures[0] if failures else None,
        capped=tally.capped,
        millis=(time.perf_counter() - started) * 1000.0,
        observations=tally.observations,
    )


def _suite(name: str, admits: Callable[[CatalogEntry], bool] | None = None):
    """Register the decorated body as suite ``name``.

    The runner times the body once per catalog entry that ``admits`` keeps
    (every entry when it is None) and makes one record of its tally.  The
    body, ``body(entry, tally, catalog)``, only states its checks.
    """

    def register(body):
        def run(catalog: Catalog) -> list[SuiteRecord]:
            out = []
            for entry in catalog.entries:
                if admits is None or admits(entry):
                    started = time.perf_counter()
                    tally = _Tally(entry)
                    body(entry, tally, catalog)
                    out.append(_record(name, entry.label, started, tally))
            return out

        SUITES[name] = run
        return body

    return register


def _has_identity(entry: CatalogEntry) -> bool:
    return entry.instance.si.has_identity


def _full_characters(entry: CatalogEntry) -> bool:
    return entry.si_label == "full"


def _degree_one_with_identity(entry: CatalogEntry) -> bool:
    return entry.instance.partition.degree == 1 and entry.instance.si.has_identity


def _bijective_characters(entry: CatalogEntry) -> bool:
    si = entry.instance.si
    return si.has_identity and all(a.is_bijective() for a in si.elements)


# --- partition_action suites -------------------------------------------------


@_suite("character-homomorphism")
def _character_homomorphism(entry, tally, catalog):
    p = entry.instance.partition
    lookup = [p.block_of(x) for x in range(p.n)]
    firsts = [b[0] for b in p.blocks]
    tuples = [m.images for m in enumerate_elements(entry.instance)]
    chars = [tuple(lookup[t[x]] for x in firsts) for t in tuples]
    rng_n = range(p.n)
    for ft, cf in zip(tuples, chars):
        for gt, cg in zip(tuples, chars):
            composite = tuple(gt[ft[x]] for x in rng_n)
            direct = tuple(lookup[composite[x]] for x in firsts)
            homomorphic = tuple(cg[cf[i]] for i in range(p.degree))
            tally.check(direct == homomorphic,
                        "character of composite differs from composed characters", f=ft, g=gt)


@_suite("lift-character-section")
def _lift_character_section(entry, tally, catalog):
    p = entry.instance.partition
    for alpha in entry.instance.si.elements:
        tally.check(character(lift_character(alpha, p), p) == alpha,
                    "lift does not section the character map", alpha=alpha)


@_suite("unit-bijection-crosscheck")
def _unit_bijection_crosscheck(entry, tally, catalog):
    p = entry.instance.partition
    for f in enumerate_elements(entry.instance):
        direct = f.is_bijective() and preserves_partition(f.inverse(), p)
        tally.check(is_unit_bijection(f, p) == direct,
                    "block-bijectivity test disagrees with inverse test", f=f)


@_suite("unit-image-blocks")
def _unit_image_blocks(entry, tally, catalog):
    p = entry.instance.partition
    block_sets = set(p.block_sets)
    for f in enumerate_elements(entry.instance):
        if is_unit_bijection(f, p):
            for b in p.blocks:
                tally.check(frozenset(f.images[x] for x in b) in block_sets,
                            "image of a block under a unit is not a block", f=f)


@_suite("block-maps-roundtrip")
def _block_maps_roundtrip(entry, tally, catalog):
    p = entry.instance.partition
    for f in enumerate_elements(entry.instance):
        tally.check(reassemble(block_maps(f, p), p) == f,
                    "block decomposition does not reassemble", f=f)


# --- ensemble suites ---------------------------------------------------------


@_suite("element-counting")
def _element_counting(entry, tally, catalog):
    actual = len(enumerate_elements(entry.instance))
    expected = predicted_size(entry.instance)
    tally.check(actual == expected, f"enumerated {actual} members, formula gives {expected}")


@_suite("member-closure")
def _member_closure(entry, tally, catalog):
    tuples = [m.images for m in enumerate_elements(entry.instance)]
    index = member_index(entry.instance)
    rng_n = range(entry.instance.partition.n)
    for ft in tuples:
        for gt in tuples:
            tally.check(tuple(gt[ft[x]] for x in rng_n) in index,
                        "composite escapes the member set", f=ft, g=gt)


@_suite("unit-set-identity", _has_identity)
def _unit_set_identity(entry, tally, catalog):
    inst = entry.instance
    members = enumerate_elements(inst)
    ident = FiniteMap.identity(inst.partition.n)
    by_definition = [
        f for f in members
        if any(compose(f, g) == ident and compose(g, f) == ident for g in members)
    ]
    by_formula = [f for f in members if is_unit_bijection(f, inst.partition)]
    tally.checks = len(members)
    if by_definition != by_formula:
        tally.fail("two-sided-invertible members differ from the S(X,P) intersection")


@_suite("units-are-bijections", _has_identity)
def _units_are_bijections(entry, tally, catalog):
    for u in units(entry.instance):
        tally.check(u.is_bijective() and is_unit_bijection(u, entry.instance.partition),
                    "a unit fails the bijection tests", u=u)


# --- regularity suites -------------------------------------------------------


@_suite("regular-element-equivalence")
def _regular_element_equivalence(entry, tally, catalog):
    inst = entry.instance
    for f in enumerate_elements(inst):
        tally.checks += 1
        g = is_regular_oracle(f, inst)
        witnesses = regular_character_witnesses(f, inst)
        if (g is not None) != bool(witnesses):
            tally.fail("oracle and witness-set verdicts disagree", f=f)
        elif g is not None and character(g, inst.partition) not in witnesses:
            tally.fail("character of the found inner inverse is not a witness", f=f, g=g)


@_suite("inner-inverse-construction")
def _inner_inverse_construction(entry, tally, catalog):
    inst = entry.instance
    index = member_index(inst)
    for f in enumerate_elements(inst):
        for alpha in regular_character_witnesses(f, inst):
            g = build_inner_inverse(f, alpha, inst)
            ok = (
                compose(compose(f, g), f) == f
                and character(g, inst.partition) == alpha
                and g.images in index
            )
            tally.check(ok, "constructed inner inverse fails validation", f=f, alpha=alpha, g=g)


@_suite("idempotent-equivalence")
def _idempotent_equivalence(entry, tally, catalog):
    for f in enumerate_elements(entry.instance):
        tally.check((compose(f, f) == f) == is_idempotent_characterized(f, entry.instance),
                    "direct and structural idempotency disagree", f=f)


def _routes_agree(entry: CatalogEntry, tally: _Tally, decide) -> bool:
    """Check that the oracle and theorem routes of a semigroup property agree;
    return the theorem's verdict."""
    oracle = decide(entry.instance, "oracle")
    theorem = decide(entry.instance, "theorem")
    tally.check(oracle == theorem, f"oracle={oracle} but theorem={theorem}")
    return theorem


@_suite("regular-semigroup-equivalence")
def _regular_semigroup_equivalence(entry, tally, catalog):
    regular = _routes_agree(entry, tally, is_regular_semigroup)
    if entry.si_label == "full":
        tally.check(regular == entry.instance.partition.is_trivial(),
                    "full-character instance regularity does not match partition triviality")


@_suite("inverse-semigroup-equivalence")
def _inverse_semigroup_equivalence(entry, tally, catalog):
    _routes_agree(entry, tally, is_inverse_semigroup)


@_suite("subgroup-regularity", _bijective_characters)
def _subgroup_regularity(entry, tally, catalog):
    for mode in ("oracle", "theorem"):
        tally.check(is_regular_semigroup(entry.instance, mode),
                    f"subgroup-character instance is not regular ({mode})")


# --- unit_regularity suites --------------------------------------------------


@_suite("unit-regular-element-equivalence", _has_identity)
def _unit_regular_element_equivalence(entry, tally, catalog):
    inst = entry.instance
    for f in enumerate_elements(inst):
        tally.checks += 1
        u = is_unit_regular_oracle(f, inst)
        witnesses = unit_regular_witnesses(f, inst)
        if (u is not None) != bool(witnesses):
            tally.fail("unit oracle and witness-set verdicts disagree", f=f)
        elif u is not None and character(u, inst.partition) not in witnesses:
            tally.fail("character of the found unit inverse is not a witness", f=f, u=u)


@_suite("unit-inverse-construction", _has_identity)
def _unit_inverse_construction(entry, tally, catalog):
    inst = entry.instance
    index = member_index(inst)
    for f in enumerate_elements(inst):
        for alpha in unit_regular_witnesses(f, inst):
            u = build_unit_inverse(f, alpha, inst)
            ok = (
                compose(compose(f, u), f) == f
                and is_unit_bijection(u, inst.partition)
                and character(u, inst.partition) == alpha
                and u.images in index
            )
            tally.check(ok, "constructed unit inverse fails validation", f=f, alpha=alpha, u=u)


@_suite("unit-regular-implies-regular", _has_identity)
def _unit_regular_implies_regular(entry, tally, catalog):
    inst = entry.instance
    for f in enumerate_elements(inst):
        tally.check(is_unit_regular_oracle(f, inst) is None or is_regular_oracle(f, inst) is not None,
                    "unit-regular member is not regular", f=f)


@_suite("unit-regular-semigroup-equivalence", _has_identity)
def _unit_regular_semigroup_equivalence(entry, tally, catalog):
    unit_regular = _routes_agree(entry, tally, is_unit_regular_semigroup)
    if entry.si_label == "full":
        tally.check(unit_regular == entry.instance.partition.is_trivial(),
                    "full-character instance unit-regularity does not match partition triviality")


def _equal_size_c_equals_d(catalog: Catalog) -> list[SuiteRecord]:
    """Every self-map of an n-set with n <= 5 has collapse c equal to defect
    d; the one suite that does not read the catalog."""
    started = time.perf_counter()
    tally = _Tally(None)
    for n in range(1, 6):
        for images in itertools.product(range(n), repeat=n):
            c, d = collapse_defect(FiniteMap(n, n, images))
            tally.check(c == d, "equal-size map with c != d", f=images)
    return [_record("equal-size-c-equals-d", "maps up to size 5", started, tally)]


SUITES["equal-size-c-equals-d"] = _equal_size_c_equals_d


@_suite("transversal-lemma")
def _transversal_lemma(entry, tally, catalog):
    inst = entry.instance
    for f in enumerate_elements(inst):
        g = is_regular_oracle(f, inst)
        if g is not None:
            tally.check(fg_image_is_kernel_transversal(f, g),
                        "image of f*g is not a kernel transversal", f=f, g=g)
        u = is_unit_regular_oracle(f, inst) if inst.si.has_identity else None
        if u is not None:
            tally.check(fg_image_is_kernel_transversal(f, u),
                        "image of f*u is not a kernel transversal", f=f, u=u)


# --- greens suites -----------------------------------------------------------


def _pairs(entry: CatalogEntry, catalog: Catalog) -> list[tuple[int, int]]:
    """Member positions of every ordered pair up to ``EXHAUSTIVE_PAIR_LIMIT``
    members, else of a seeded sample of ``SAMPLE_PAIRS`` pairs."""
    size = len(enumerate_elements(entry.instance))
    if size <= EXHAUSTIVE_PAIR_LIMIT:
        return [(a, b) for a in range(size) for b in range(size)]
    rng = random.Random(f"{catalog.seed}:{entry.label}:pairs")
    return [(rng.randrange(size), rng.randrange(size)) for _ in range(SAMPLE_PAIRS)]


# The outcome of one checker call in the Green's sweep.
_UNRELATED, _REPLAYS, _FAILS_REPLAY, _CAPPED = range(4)
_MODES = ("oracle", "theorem")


class _GreensSweep:
    """Every Green's verdict of one catalog entry, each decided once.

    For each pair of ``_pairs`` (positions in ``pairs``), each relation of
    ``greens.checkers()`` and each mode, the checker is called once on the
    members' own maps, which it finds by identity, and a found witness is
    replayed at once (``greens.verify_witness``); ``codes[k, r, m]`` keeps
    only the outcome.  A capped call of either mode is counted
    as capped by every reader.
    """

    def __init__(self, entry: CatalogEntry, catalog: Catalog) -> None:
        inst = entry.instance
        members = self.members = enumerate_elements(inst)
        checkers = greens.checkers()
        pairs = _pairs(entry, catalog)
        self.relations = tuple(checkers)
        self.pairs = np.array(pairs, dtype=np.int32).reshape(len(pairs), 2)
        codes = []
        for a, b in pairs:
            f, g = members[a], members[b]
            for checker in checkers.values():
                for mode in _MODES:
                    try:
                        w = checker(f, g, inst, mode=mode)
                    except ResourceLimitError:
                        codes.append(_CAPPED)
                        continue
                    if w is None:
                        codes.append(_UNRELATED)
                    elif greens.verify_witness(w, f, g):
                        codes.append(_REPLAYS)
                    else:
                        codes.append(_FAILS_REPLAY)
        shape = (len(pairs), len(self.relations), len(_MODES))
        self.codes = np.array(codes, dtype=np.uint8).reshape(shape)

    def rows(self):
        """(a, b, [(relation, oracle code, theorem code), ...]) per pair of
        member positions, in order."""
        for (a, b), row in zip(self.pairs.tolist(), self.codes.tolist()):
            yield a, b, [(rel, o, t) for rel, (o, t) in zip(self.relations, row)]


def _greens_sweep(entry: CatalogEntry, catalog: Catalog) -> _GreensSweep:
    """The entry's Green's sweep, made by the first suite that asks."""
    sweeps = catalog.greens_sweeps
    if entry.label not in sweeps:
        sweeps[entry.label] = _GreensSweep(entry, catalog)
    return sweeps[entry.label]


def _first_pair(data, mask: np.ndarray) -> dict:
    """The first member pair, row-major, where ``mask`` holds, as failure elements."""
    a, b = map(int, np.argwhere(mask)[0])
    return {"f": data.members[a], "g": data.members[b]}


@_suite("greens-mode-agreement", _has_identity)
def _greens_mode_agreement(entry, tally, catalog):
    sweep = _greens_sweep(entry, catalog)
    members = sweep.members
    for a, b, verdicts in sweep.rows():
        for rel, oracle, theorem in verdicts:
            tally.checks += 1
            if _CAPPED in (oracle, theorem):
                tally.capped += 1
                continue
            oracle, theorem = oracle != _UNRELATED, theorem != _UNRELATED
            if oracle != theorem:
                tally.fail(f"{rel}: oracle={oracle} but theorem={theorem}",
                           f=members[a], g=members[b])
    if tally.capped:
        tally.observations = (f"{tally.capped} capped checks recorded oracle-only verdicts",)


@_suite("character-descent", _has_identity)
def _character_descent(entry, tally, catalog):
    data = greens._greens_data(entry.instance)
    char_ids = data.char_ids
    for a, b in itertools.product(range(len(data.members)), repeat=2):
        tally.checks += 1
        ca, cb = char_ids[a], char_ids[b]
        if data.l_below[a, b] and not data.si_l_below[ca, cb]:
            tally.fail("L-inequality does not descend to characters",
                       f=data.members[a], g=data.members[b])
        if data.r_below[a, b] and not data.si_r_below[ca, cb]:
            tally.fail("R-inequality does not descend to characters",
                       f=data.members[a], g=data.members[b])


@_suite("greens-d-composition-commutes", _has_identity)
def _greens_d_composition_commutes(entry, tally, catalog):
    data = greens._greens_data(entry.instance)
    l_eq = data.l_below & data.l_below.T
    r_eq = data.r_below & data.r_below.T
    differ = data.d_rel != r_eq @ l_eq
    tally.checks = len(data.members) ** 2
    if differ.any():
        tally.fail("L-then-R differs from R-then-L", **_first_pair(data, differ))


@_suite("greens-d-subset-j", _has_identity)
def _greens_d_subset_j(entry, tally, catalog):
    data = greens._greens_data(entry.instance)
    d_rel = data.d_rel
    j_rel = data.j_below & data.j_below.T
    tally.checks = len(data.members) ** 2
    if np.any(d_rel & ~j_rel):
        tally.fail("a D-related pair is not J-related", **_first_pair(data, d_rel & ~j_rel))
    # D = J in every finite semigroup, so a J-related pair outside D is a fault.
    if np.any(j_rel & ~d_rel):
        tally.fail("a J-related pair is not D-related", **_first_pair(data, j_rel & ~d_rel))


@_suite("greens-tx-specialization", _degree_one_with_identity)
def _greens_tx_specialization(entry, tally, catalog):
    data = greens._greens_data(entry.instance)
    d_rel = data.d_rel
    j_rel = data.j_below & data.j_below.T
    images = [geometry[0] for geometry in data.geometry.j_geometry]
    kernels = data.geometry.kernels
    for a, b in itertools.product(range(len(data.members)), repeat=2):
        tally.checks += 1
        rank_eq = len(images[a]) == len(images[b])
        if data.l_eq(a, b) != (images[a] == images[b]):
            detail = "L disagrees with image equality"
        elif data.r_eq(a, b) != (kernels[a] == kernels[b]):
            detail = "R disagrees with kernel equality"
        elif bool(j_rel[a, b]) != rank_eq or bool(d_rel[a, b]) != rank_eq:
            detail = "D or J disagrees with rank equality"
        else:
            continue
        tally.fail(detail, f=data.members[a], g=data.members[b])


@_suite("greens-witness-replay", _has_identity)
def _greens_witness_replay(entry, tally, catalog):
    sweep = _greens_sweep(entry, catalog)
    members = sweep.members
    for a, b, verdicts in sweep.rows():
        for rel, *codes in verdicts:
            for mode, code in zip(_MODES, codes):
                if code == _CAPPED:
                    tally.capped += 1
                elif code != _UNRELATED:
                    tally.check(code == _REPLAYS, f"{rel} witness ({mode}) fails to replay",
                                f=members[a], g=members[b])


@_suite("greens-necessary-conditions", _has_identity)
def _greens_necessary_conditions(entry, tally, catalog):
    data = greens._greens_data(entry.instance)
    images = [geometry[0] for geometry in data.geometry.j_geometry]
    kernels = data.geometry.kernels
    for a, b in itertools.product(range(len(data.members)), repeat=2):
        tally.checks += 1
        if data.l_eq(a, b) and images[a] != images[b]:
            tally.fail("L-related pair with different images",
                       f=data.members[a], g=data.members[b])
        if data.r_eq(a, b) and kernels[a] != kernels[b]:
            tally.fail("R-related pair with different kernels",
                       f=data.members[a], g=data.members[b])


@_suite("txp-specialization", _full_characters)
def _txp_specialization(entry, tally, catalog):
    sweep = _greens_sweep(entry, catalog)
    members = sweep.members
    geometry = entry.instance.derived.geometry  # ``txp_green`` on members by position
    for a, b, verdicts in sweep.rows():
        for rel, oracle, theorem in verdicts:
            tally.checks += 1
            specialized = greens._txp_related(rel, geometry, a, b)
            for route, code in (("oracle", oracle), ("theorem", theorem)):
                if code == _CAPPED:
                    tally.capped += 1
                    break
                if specialized != (code != _UNRELATED):
                    tally.fail(f"{rel}: specialized={specialized} {route}={not specialized}",
                               f=members[a], g=members[b])
                    break


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
