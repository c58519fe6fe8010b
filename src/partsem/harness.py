"""Instance catalog generation and the theorem-equivalence suites.

The catalog crosses every set partition of [0, n) for n up to ``max_n`` with
a menu of index semigroups per block count.  Each suite replays one claimed
equivalence or containment over the whole catalog and reports per-instance
verdicts with replayable counterexamples.

``SUITES`` maps each of the 29 suite names, in report order, to its
admission rule and body (a ``_Suite``).  A suite is declared once:
``@_suite(name, admits)`` names it and its admission rule (every entry when
omitted).  The body, ``body(entry, tally, sweep)``, only states its checks
through ``tally.check(ok, detail, **elements)`` and ``tally.fail(detail,
count, **elements)``.  A tally counts its failures and keeps only the first
as the record's counterexample, so a failing run holds one payload per
record however many checks fail.  To add a suite, declare it with
``@_suite`` where it belongs in the report order; the order of the
declarations is the order of ``SUITES``.

``run_all``, the one runner, goes one entry at a time: it runs every
admitted suite on an entry, in ``SUITES`` order, then drops the entry's
derived data (``Instance.drop_derived``) and Green's sweep, so a run holds
one entry's data at a time.  The records are reported suite by suite.
``equal-size-c-equals-d`` reads no entry and runs once, on the runner's
first step, which has none.

The three Green's pair suites (``greens-mode-agreement``,
``greens-witness-replay`` and ``txp-specialization``) read the entry's one
**Green's sweep**, a body's third argument, instead of calling the
checkers themselves.  The sweep decides its codes when a suite first reads
them: a one-byte outcome code per pair of its ``pairs``, relation and mode
(unrelated, capped, replays, fails to replay, or a fault: a build's
``InternalError``; only the theorem route is ever capped).  It runs on
member positions from end to end, with no member lookup, no public
checker, no oracle witness and no ``GreenWitness``, one relation and mode
at a time: the oracle's witnesses come from ``greens._oracle_rows``, the
class quotient's verdicts and first factors for every pair at once, by
array gathers a block of pairs at a time; the theorem's from
``greens._theorem_rows``, one search per key group of the pairs (their
theorem keys, computed once per entry; a capped search caps its whole
group) and one build per related pair.
Each found witness is a row (pair, f, g, *factors) of one int array per
relation and mode, replayed in one call (``greens._replay_rows``, on the
members' image array, ``geometry.image_array``, never the product table): a
witness is its factors, and the sweep reads nothing else of it.
``greens-witness-replay`` covers the public front end the sweep skips
(``_public_front_end``): per relation and mode, the public checker on one
replaying pair must give a witness that ``greens.verify_witness``
replays.  Every theorem search and build of
an entry is handed the one memo object (``greens._Kept``) that ``codes``
makes and owns: each one-sided search and builder then runs once per
entry, and is dropped when ``codes`` is left.  The three suites read the codes as one
array: each counts its checks, capped checks and failures (a fault is one)
with NumPy and records the first failure, row-major, as every suite that
tests a mask of member pairs does (``_fail_rows``); a record with failing
checks that are faults says how many in an observation.  The
inverse-construction suites count a build's ``InternalError`` as a failure
too (``_builds``), so a fault gives failing records, not an aborted run.
The sweep names members by position, so ``txp-specialization`` decides
``txp_green`` on the members' geometry (``inst.derived.geometry``), once
per group of pairs with equal theorem keys for each relation, the groups
the sweep's theorem searches take, with one memo of J covers and
one-sided J verdicts per entry.

The three suites that read J and D take them from the Green's data's class
quotient: ``_class_relations`` only gathers ≤_J or the H-classes onto the
member pairs, one axis at a time, and D is equality of D labels, compared
in the narrowest dtype that holds them (``_keys``).  ``character-descent``
reads ≤_L and ≤_R of a block of members, and of their characters, off the
packed principal ideals by one gather and mask each (``greens._bits``).

``character-homomorphism`` composes every ordered pair of members by
gathering on the members' N×n intp image array, the one the instance's
geometry keeps (``geometry.image_array``), a block of rows at a time sized
by its largest temporary (``ensemble._row_blocks``), so no array grows with
N²·n.  ``member-closure`` and ``unit-set-identity`` compose nothing: the
first reads the instance's product table (``derived.table``, built from that
same array) a block of rows at a time, where a composite outside the member
set is -1, and the second compares the units the table gives
(``derived.unit_ids``) with ``is_unit_bijection``, member by member.
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

from .errors import InternalError, InvalidArgumentError, ResourceLimitError
from .finite_maps import FiniteMap, _first_equal, all_endomaps, collapse_defect, is_idempotent_def
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
    predicted_size,
    _right_closure,
    _row_blocks,
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

    def to_payload(self) -> dict:
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

    def to_machine_lines(self) -> list[str]:
        return [json.dumps(r.to_payload(), sort_keys=True) for r in self.records]

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

class _Tally:
    """The label, checks, failures and first failure of one suite's record."""

    def __init__(self, entry: CatalogEntry | None) -> None:
        self.entry = entry
        self.label = "" if entry is None else entry.label
        self.checks = 0
        self.capped = 0
        self.failures = 0
        self.counterexample: dict | None = None
        self.observations: tuple[str, ...] = ()

    def check(self, ok: bool, detail: str, **elements) -> None:
        """Count one check and record a failure unless it holds."""
        self.checks += 1
        if not ok:
            self.fail(detail, **elements)

    def fail(self, detail: str, count: int = 1, **elements) -> None:
        """Count ``count`` failures; the tally's first is kept as its replayable
        counterexample, the elements given as maps (``FiniteMap``s or tuples)."""
        if not self.failures:
            payload = self.counterexample = {}
            if self.entry is not None:
                payload["instance"] = instance_to_json(self.entry.instance)
            payload["detail"] = detail
            for key, value in elements.items():
                payload[key] = list(value.images if isinstance(value, FiniteMap) else value)
        self.failures += count


def _record(suite: str, label: str, started: float, tally: _Tally) -> SuiteRecord:
    return SuiteRecord(
        suite=suite,
        instance=label,
        verdict="fail" if tally.failures else "pass",
        checks=tally.checks,
        failures=tally.failures,
        counterexample=tally.counterexample,
        capped=tally.capped,
        millis=(time.perf_counter() - started) * 1000.0,
        observations=tally.observations,
    )


@dataclass(frozen=True)
class _Suite:
    """A registered suite: its name, the rule admitting a catalog entry (or
    None, for no entry) and its body, ``body(entry, tally, sweep)``."""

    name: str
    admits: Callable[[CatalogEntry | None], bool]
    body: Callable

    def __call__(self, entry: CatalogEntry | None, sweep: _GreensSweep) -> SuiteRecord | None:
        """The timed body's record on ``entry``, or None when not admitted."""
        if not self.admits(entry):
            return None
        started, tally = time.perf_counter(), _Tally(entry)
        self.body(entry, tally, sweep)
        return _record(self.name, tally.label, started, tally)


SUITES: dict[str, _Suite] = {}


def _suite(name: str, admits=lambda entry: entry is not None):
    """Register the decorated body as suite ``name``, admitting what
    ``admits`` keeps (every catalog entry when omitted).  ``admits`` is also
    asked about None, the runner's first step: only a suite that reads no
    entry admits it, and its body names its record with ``tally.label``."""

    def register(body):
        SUITES[name] = _Suite(name, admits, body)
        return body

    return register


def _has_identity(entry: CatalogEntry | None) -> bool:
    return entry is not None and entry.instance.si.has_identity


def _full_characters(entry: CatalogEntry | None) -> bool:
    return entry is not None and entry.si_label == "full"


def _degree_one_with_identity(entry: CatalogEntry | None) -> bool:
    return _has_identity(entry) and entry.instance.partition.degree == 1


def _bijective_characters(entry: CatalogEntry | None) -> bool:
    return _has_identity(entry) and all(a.is_bijective() for a in entry.instance.si.elements)


# --- member pairs as arrays --------------------------------------------------


def _then(maps: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``out[i, g, x] = maps[g, rows[i, x]]``: each of ``rows`` followed by
    each of ``maps``, as ``compose(row, map)``, by one gather."""
    return maps[np.arange(len(maps))[:, None], rows[:, None, :]]


def _fail_rows(tally: _Tally, members, start: int, hits: np.ndarray, *details: str) -> None:
    """Count a failure at each f of the rows from ``start``, member g and
    detail i where ``hits[f - start, g, i]`` holds (``[f - start, g]`` for
    one detail), and record the first, row-major."""
    count = int(np.count_nonzero(hits))
    if count:
        a, b, i = np.unravel_index(hits.argmax(), (*hits.shape[:2], len(details)))
        tally.fail(details[i], count, f=members[start + a], g=members[b])


def _keys(values: np.ndarray) -> np.ndarray:
    """``values``, an array of non-negative ints, in the narrowest dtype that
    holds them, so a broadcast comparison of them takes the fewest bytes of
    iterator buffers (NumPy buffers ``np.getbufsize()`` items an operand)."""
    return values.astype(np.min_scalar_type(values.max(initial=0)))


def _equal(ids: np.ndarray, start: int, stop: int) -> np.ndarray:
    """``[i, g]``: the member at row start + i and member g have equal ids."""
    return ids[start:stop, None] == ids


# --- partition_action suites -------------------------------------------------


@_suite("character-homomorphism")
def _character_homomorphism(entry, tally, sweep):
    p = entry.instance.partition
    lookup = np.array(p._block_lookup)
    firsts = [b[0] for b in p.blocks]
    members = enumerate_elements(entry.instance)
    imgs = entry.instance.derived.geometry.image_array
    chars = lookup[imgs[:, firsts]]  # read off the images, one row per member
    # a row's largest temporary is its composites' intp characters
    for start, stop in _row_blocks(len(imgs), chars.nbytes):
        direct = lookup[_then(imgs, imgs[start:stop, firsts])]
        differ = (direct != _then(chars, chars[start:stop])).any(axis=2)
        tally.checks += differ.size
        _fail_rows(tally, members, start, differ,
                   "character of composite differs from composed characters")


@_suite("lift-character-section")
def _lift_character_section(entry, tally, sweep):
    p = entry.instance.partition
    for alpha in entry.instance.si.elements:
        tally.check(character(lift_character(alpha, p), p) == alpha,
                    "lift does not section the character map", alpha=alpha)


@_suite("unit-bijection-crosscheck")
def _unit_bijection_crosscheck(entry, tally, sweep):
    p = entry.instance.partition
    for f in enumerate_elements(entry.instance):
        direct = f.is_bijective() and preserves_partition(f.inverse(), p)
        tally.check(is_unit_bijection(f, p) == direct,
                    "block-bijectivity test disagrees with inverse test", f=f)


@_suite("unit-image-blocks")
def _unit_image_blocks(entry, tally, sweep):
    p = entry.instance.partition
    block_sets = set(p.block_sets)
    for f in enumerate_elements(entry.instance):
        if is_unit_bijection(f, p):
            for b in p.blocks:
                tally.check(frozenset(f.images[x] for x in b) in block_sets,
                            "image of a block under a unit is not a block", f=f)


@_suite("block-maps-roundtrip")
def _block_maps_roundtrip(entry, tally, sweep):
    p = entry.instance.partition
    for f in enumerate_elements(entry.instance):
        tally.check(reassemble(block_maps(f, p), p) == f,
                    "block decomposition does not reassemble", f=f)


# --- ensemble suites ---------------------------------------------------------


@_suite("element-counting")
def _element_counting(entry, tally, sweep):
    actual = len(enumerate_elements(entry.instance))
    expected = predicted_size(entry.instance)
    tally.check(actual == expected, f"enumerated {actual} members, formula gives {expected}")


@_suite("member-closure")
def _member_closure(entry, tally, sweep):
    members = enumerate_elements(entry.instance)
    table = entry.instance.derived.table
    # the table's -1 is a composite outside the member set; a row's temporary is its mask
    for start, stop in _row_blocks(len(table), len(table)):
        escaped = table[start:stop] < 0
        tally.checks += escaped.size
        _fail_rows(tally, members, start, escaped, "composite escapes the member set")


@_suite("unit-set-identity", _has_identity)
def _unit_set_identity(entry, tally, sweep):
    inst = entry.instance
    members = enumerate_elements(inst)
    by_definition = np.zeros(len(members), dtype=bool)
    by_definition[inst.derived.unit_ids] = True
    by_formula = [is_unit_bijection(f, inst.partition) for f in members]
    tally.checks = len(members)
    if by_definition.tolist() != by_formula:
        tally.fail("two-sided-invertible members differ from the S(X,P) intersection")


@_suite("units-are-bijections", _has_identity)
def _units_are_bijections(entry, tally, sweep):
    for u in units(entry.instance):
        tally.check(u.is_bijective() and is_unit_bijection(u, entry.instance.partition),
                    "a unit fails the bijection tests", u=u)


# --- regularity suites -------------------------------------------------------


def _inverse_routes_agree(entry, tally, oracle, witnesses, details, key: str) -> None:
    """Per member f, one check that ``oracle`` finds an inverse exactly when
    f has ``witnesses``, with its character among them; ``details`` name the
    two failures, and ``key`` the inverse in the counterexample."""
    inst = entry.instance
    for f in enumerate_elements(inst):
        tally.checks += 1
        g, found = oracle(f, inst), witnesses(f, inst)
        if (g is not None) != bool(found):
            tally.fail(details[0], f=f)
        elif g is not None and character(g, inst.partition) not in found:
            tally.fail(details[1], f=f, **{key: g})


@_suite("regular-element-equivalence")
def _regular_element_equivalence(entry, tally, sweep):
    _inverse_routes_agree(entry, tally, is_regular_oracle, regular_character_witnesses,
                          ("oracle and witness-set verdicts disagree",
                           "character of the found inner inverse is not a witness"), "g")


def _builds(entry: CatalogEntry, tally: _Tally, witnesses, build) -> None:
    """One check per ``build(f, alpha, inst)`` for each member f and alpha of
    ``witnesses(f, inst)``: an ``InternalError`` is a failure, its detail."""
    inst = entry.instance
    for f in enumerate_elements(inst):
        for alpha in witnesses(f, inst):
            tally.checks += 1
            try:
                build(f, alpha, inst)
            except InternalError as exc:
                tally.fail(str(exc), f=f, alpha=alpha)


@_suite("inner-inverse-construction")
def _inner_inverse_construction(entry, tally, sweep):
    _builds(entry, tally, regular_character_witnesses, build_inner_inverse)


@_suite("idempotent-equivalence")
def _idempotent_equivalence(entry, tally, sweep):
    for f in enumerate_elements(entry.instance):
        tally.check(is_idempotent_def(f) == is_idempotent_characterized(f, entry.instance),
                    "direct and structural idempotency disagree", f=f)


def _routes_agree(entry: CatalogEntry, tally: _Tally, decide, full: str | None = None) -> None:
    """Check that the oracle and theorem routes of a semigroup property agree
    and, for a property named ``full``, that on a full-character instance
    the theorem's verdict is the partition's triviality."""
    oracle = decide(entry.instance, "oracle")
    theorem = decide(entry.instance, "theorem")
    tally.check(oracle == theorem, f"oracle={oracle} but theorem={theorem}")
    if full and entry.si_label == "full":
        tally.check(theorem == entry.instance.partition.is_trivial(),
                    f"full-character instance {full} does not match partition triviality")


@_suite("regular-semigroup-equivalence")
def _regular_semigroup_equivalence(entry, tally, sweep):
    _routes_agree(entry, tally, is_regular_semigroup, "regularity")


@_suite("inverse-semigroup-equivalence")
def _inverse_semigroup_equivalence(entry, tally, sweep):
    _routes_agree(entry, tally, is_inverse_semigroup)


@_suite("subgroup-regularity", _bijective_characters)
def _subgroup_regularity(entry, tally, sweep):
    for mode in ("oracle", "theorem"):
        tally.check(is_regular_semigroup(entry.instance, mode),
                    f"subgroup-character instance is not regular ({mode})")


# --- unit_regularity suites --------------------------------------------------


@_suite("unit-regular-element-equivalence", _has_identity)
def _unit_regular_element_equivalence(entry, tally, sweep):
    _inverse_routes_agree(entry, tally, is_unit_regular_oracle, unit_regular_witnesses,
                          ("unit oracle and witness-set verdicts disagree",
                           "character of the found unit inverse is not a witness"), "u")


@_suite("unit-inverse-construction", _has_identity)
def _unit_inverse_construction(entry, tally, sweep):
    _builds(entry, tally, unit_regular_witnesses, build_unit_inverse)


@_suite("unit-regular-implies-regular", _has_identity)
def _unit_regular_implies_regular(entry, tally, sweep):
    inst = entry.instance
    for f in enumerate_elements(inst):
        tally.check(is_unit_regular_oracle(f, inst) is None or is_regular_oracle(f, inst) is not None,
                    "unit-regular member is not regular", f=f)


@_suite("unit-regular-semigroup-equivalence", _has_identity)
def _unit_regular_semigroup_equivalence(entry, tally, sweep):
    _routes_agree(entry, tally, is_unit_regular_semigroup, "unit-regularity")


@_suite("equal-size-c-equals-d", lambda entry: entry is None)
def _equal_size_c_equals_d(entry, tally, sweep):
    """Every self-map of an n-set with n <= 5 has collapse c equal to defect
    d; the one suite that reads no catalog entry."""
    tally.label = "maps up to size 5"
    for n in range(1, 6):
        for f in all_endomaps(n):
            c, d = collapse_defect(f)
            tally.check(c == d, "equal-size map with c != d", f=f)


@_suite("transversal-lemma")
def _transversal_lemma(entry, tally, sweep):
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


# The outcome of one Green's sweep call: from _REPLAYS up a witness check, above it a failed one.
_UNRELATED, _CAPPED, _REPLAYS, _FAILS_REPLAY, _FAULT = range(5)
_MODES = ("oracle", "theorem")


@dataclass
class _GreensSweep:
    """Every Green's verdict of one catalog entry, each decided at most once,
    when a suite first reads ``codes``.

    For each pair of ``pairs``, each relation of ``greens.checkers()`` and
    each mode, ``codes[k, r, m]`` keeps only the outcome its public checker
    would give on the pair's member positions, at ``greens.DEFAULT_PHI_CAP``,
    found for all pairs of a relation and mode at once: by
    ``greens._oracle_rows``, array gathers on the class quotient and the
    table, and by ``greens._theorem_rows``, one search per key group and one
    build per related pair.  Each relation and mode's found rows (pair, f, g,
    *factors) are replayed in one call (``greens._replay_rows``), which sets
    each row's code: replays or fails to replay.  A fault fails the check,
    else a capped theorem call (the oracle's scans have no budget) is counted
    as capped, by every reader;
    ``fault`` keeps the first fault's message, in (pair, relation, mode)
    order.  ``codes`` makes one memo object (``greens._Kept``) and hands it
    to every theorem search and build, so each runs once per entry however
    many pairs use it; nothing else holds it, so it is dropped when
    ``codes`` is left, by return or exception.
    """

    entry: CatalogEntry | None
    catalog: Catalog
    fault: str | None = None
    relations = tuple(greens.checkers())

    @cached_property
    def members(self) -> tuple[FiniteMap, ...]:
        return enumerate_elements(self.entry.instance)

    @cached_property
    def pairs(self) -> np.ndarray:
        """Member positions, one row a pair: of every ordered pair up to
        ``EXHAUSTIVE_PAIR_LIMIT`` members, else of a seeded sample of
        ``SAMPLE_PAIRS`` pairs."""
        size = len(self.members)
        if size <= EXHAUSTIVE_PAIR_LIMIT:
            return np.indices((size, size)).reshape(2, -1).T
        rng = random.Random(f"{self.catalog.seed}:{self.entry.label}:pairs")
        return np.array([(rng.randrange(size), rng.randrange(size)) for _ in range(SAMPLE_PAIRS)])

    @cached_property
    def codes(self) -> np.ndarray:
        data = greens._greens_data(self.entry.instance)
        pairs, facts, images = self.pairs, greens._Kept(), data.geometry.image_array
        codes = np.full((len(pairs), len(self.relations) * len(_MODES)), _UNRELATED,
                        dtype=np.uint8)
        first_fault = None  # (pair, message)
        for j, (rel, mode) in enumerate(itertools.product(self.relations, _MODES)):
            if mode == "oracle":
                rows, faults = greens._oracle_rows(data, rel, pairs)
            else:
                rows, capped, faults = greens._theorem_rows(data, rel, pairs, facts)
                codes[capped, j] = _CAPPED
            if len(rows):
                replays = greens._replay_rows(rel, images, rows[:, 1:])
                codes[rows[:, 0], j] = np.where(replays, _REPLAYS, _FAILS_REPLAY)
            for k, _ in faults:
                codes[k, j] = _FAULT
            if faults and (first_fault is None or faults[0][0] < first_fault[0]):
                first_fault = faults[0][0], f"{rel} ({mode}): {faults[0][1]}"
        self.fault = first_fault and first_fault[1]
        return codes.reshape(len(pairs), len(self.relations), len(_MODES))

    def fail_at(self, tally: _Tally, hits: np.ndarray, detail: Callable[..., str]) -> None:
        """Count a failure at each index of ``hits`` (its first axis the pair),
        and record the first, row-major: ``detail(*index)`` or, at a fault
        (each is a hit), the sweep's first fault.  The hits with a fault among
        their codes are counted in an observation."""
        count = int(np.count_nonzero(hits))
        if count:
            index = np.unravel_index(hits.argmax(), hits.shape)
            a, b = self.pairs[index[0]].tolist()
            faulted = self.codes.reshape(*hits.shape, -1).max(axis=-1) == _FAULT
            tally.fail(self.fault if faulted[index] else detail(*index), count,
                       f=self.members[a], g=self.members[b])
            faults = int(np.count_nonzero(hits & faulted))
            if faults:
                tally.observations += (f"{faults} failing checks were faults",)


@_suite("greens-mode-agreement", _has_identity)
def _greens_mode_agreement(entry, tally, sweep):
    oracle, theorem = sweep.codes[..., 0], sweep.codes[..., 1]
    faulted = sweep.codes.max(axis=2) == _FAULT
    capped = ~faulted & (theorem == _CAPPED)
    related = oracle != _UNRELATED
    tally.checks += oracle.size
    tally.capped += int(capped.sum())
    sweep.fail_at(
        tally, faulted | ~capped & (related != (theorem != _UNRELATED)),
        lambda k, r: f"{sweep.relations[r]}: oracle={related[k, r]} but theorem={not related[k, r]}",
    )
    if tally.capped:
        tally.observations += (f"{tally.capped} capped checks recorded oracle-only verdicts",)


@_suite("character-descent", _has_identity)
def _character_descent(entry, tally, sweep):
    data = greens._greens_data(entry.instance)
    chars = np.array(data.char_ids, dtype=np.intp)
    pairs = ((data.l_ideals, data.si_l_ideals), (data.r_ideals, data.si_r_ideals))
    # a row's temporaries, a byte a pair each: a relation's gathered bits and
    # their test, its characters' and theirs, beside the first mask, the two
    # masks and their stack, and the block before's stack
    for start, stop in _row_blocks(len(chars), 10 * len(chars)):
        block = np.arange(start, stop)
        hits = np.stack([(greens._bits(ideals, block).T != 0)
                         & (greens._bits(si, chars[block], chars).T == 0)
                         for ideals, si in pairs], axis=2)
        _fail_rows(tally, data.members, start, hits,
                   "L-inequality does not descend to characters",
                   "R-inequality does not descend to characters")
    tally.checks = len(chars) ** 2


def _class_relations(quotient: np.ndarray, r_of: np.ndarray, l_of: np.ndarray,
                     start: int, stop: int) -> np.ndarray:
    """``[i, g] = quotient[R(f), L(g)]`` for the member f at row start + i,
    on a matrix over the class quotient's (R-class, L-class): ≤_J on the
    members for ``j_below``, and R∘L for the nonempty H-classes.  It gathers
    one axis at a time: a gather on two broadcast axes takes NumPy's
    iterator buffers besides."""
    return quotient[r_of[start:stop]][:, l_of]


def _tx_keys(data) -> list[np.ndarray]:
    """Per member, its R-class and L-class, and the first member with its
    image and with its kernel: the keys compared on T(X)."""
    geometry = data.geometry
    firsts = (np.array(_first_equal(ids)) for ids in (geometry.sorted_images, geometry.kernels))
    return [*map(_keys, (*data.classes[:2], *firsts))]


@_suite("greens-d-composition-commutes", _has_identity)
def _greens_d_composition_commutes(entry, tally, sweep):
    data = greens._greens_data(entry.instance)
    d_label, r_of, l_of = map(_keys, (data.d_label, *data.classes[:2]))
    h = data.classes[2] >= 0
    # a row's temporaries, a byte a pair each: D, the H-classes' gather by
    # R-class and by L-class, the mismatch, and the block before's mismatch
    for start, stop in _row_blocks(len(d_label), 5 * len(d_label)):
        hits = _equal(d_label, start, stop) != _class_relations(h, r_of, l_of, start, stop)
        _fail_rows(tally, data.members, start, hits, "L-then-R differs from R-then-L")
    tally.checks = len(d_label) ** 2


@_suite("greens-d-subset-j", _has_identity)
def _greens_d_subset_j(entry, tally, sweep):
    data = greens._greens_data(entry.instance)
    j_below = data.j_below
    d_label, r_of, l_of = map(_keys, (data.d_label, *data.classes[:2]))
    # D = J in every finite semigroup, so a J-related pair outside D is a
    # fault too; D ⊄ J is walked first, so its pairs give the counterexample.
    # A row's temporaries, a byte a pair each: the two directions, each
    # gathered by one class and then by the other, J, D, their mismatch and
    # the mask failing, and the block before's J and mismatch
    for j_outside, detail in ((False, "a D-related pair is not J-related"),
                              (True, "a J-related pair is not D-related")):
        for start, stop in _row_blocks(len(d_label), 9 * len(d_label)):
            # f ≤_J g and g ≤_J f, for f at each row of the block
            j_rel = (_class_relations(j_below, r_of, l_of, start, stop)
                     & _class_relations(j_below.T, l_of, r_of, start, stop))
            outside = j_rel != _equal(d_label, start, stop)
            _fail_rows(tally, data.members, start, outside & (j_rel == j_outside), detail)
    tally.checks = len(d_label) ** 2


@_suite("greens-tx-specialization", _degree_one_with_identity)
def _greens_tx_specialization(entry, tally, sweep):
    data = greens._greens_data(entry.instance)
    r_of, l_of, images, kernels = _tx_keys(data)
    d_label, j_below = data.d_label, data.j_below
    ranks = np.array([len(image) for image in data.geometry.sorted_images])
    for start, stop in _row_blocks(len(images), 8 * len(images)):
        # symmetric J is ≤_J both ways, so the rank-order test covers it
        bad = np.stack([_equal(l_of, start, stop) != _equal(images, start, stop),
                        _equal(r_of, start, stop) != _equal(kernels, start, stop),
                        _equal(d_label, start, stop) != _equal(ranks, start, stop),
                        _class_relations(j_below, r_of, l_of, start, stop)
                        != (ranks[start:stop, None] <= ranks)], axis=2)
        # each pair fails on the first of the four tests that it fails
        first = bad & (np.cumsum(bad, axis=2, dtype=np.uint8) == 1)
        _fail_rows(tally, data.members, start, first,
                   "L disagrees with image equality", "R disagrees with kernel equality",
                   "D disagrees with rank equality", "≤_J disagrees with the rank order")
    tally.checks = len(images) ** 2


@_suite("greens-witness-replay", _has_identity)
def _greens_witness_replay(entry, tally, sweep):
    codes = sweep.codes
    tally.checks += int((codes >= _REPLAYS).sum())
    tally.capped += int((codes == _CAPPED).sum())
    sweep.fail_at(tally, codes > _REPLAYS,
                  lambda k, r, m: f"{sweep.relations[r]} witness ({_MODES[m]}) fails to replay")
    _public_front_end(entry, tally, sweep)


def _public_front_end(entry, tally, sweep) -> None:
    """The public checkers and ``verify_witness`` on one replaying pair of
    each relation and mode, the first with f != g if there is one: the
    checker must give a witness that replays.  The sweep never calls them,
    so this keeps a run covering the public front end; the pair's check is
    already counted, and a failure here adds one."""
    codes, pairs = sweep.codes, sweep.pairs
    off_diagonal = pairs[:, 0] != pairs[:, 1]
    checkers = greens.checkers()
    for r, rel in enumerate(sweep.relations):
        for m, mode in enumerate(_MODES):
            # replaying off-diagonal pairs rank 2, replaying diagonal ones 1
            rank = (codes[:, r, m] == _REPLAYS) * (1 + off_diagonal)
            k = int(rank.argmax())
            if not rank[k]:
                continue
            f, g = (sweep.members[i] for i in pairs[k].tolist())
            try:
                w = checkers[rel](f, g, entry.instance, mode=mode, cap=greens.DEFAULT_PHI_CAP)
                ok = w is not None and greens.verify_witness(w, f, g)
            except (ResourceLimitError, InternalError):
                ok = False
            if not ok:
                tally.fail(f"{rel} public checker ({mode}) gives no replaying witness", f=f, g=g)


@_suite("greens-necessary-conditions", _has_identity)
def _greens_necessary_conditions(entry, tally, sweep):
    data = greens._greens_data(entry.instance)
    r_of, l_of, images, kernels = _tx_keys(data)
    # a row's temporaries, a byte a pair each: a relation's two equalities
    # and a negation beside the first mask, the two masks and their stack,
    # and the block before's stack
    for start, stop in _row_blocks(len(images), 6 * len(images)):
        hits = np.stack([_equal(l_of, start, stop) & ~_equal(images, start, stop),
                         _equal(r_of, start, stop) & ~_equal(kernels, start, stop)], axis=2)
        _fail_rows(tally, data.members, start, hits, "L-related pair with different images",
                   "R-related pair with different kernels")
    tally.checks = len(images) ** 2


def _txp_verdicts(data, sweep: _GreensSweep) -> np.ndarray:
    """``greens._txp_related`` at each pair of the sweep and each relation, as
    a pairs × relations array: decided once per group of pairs with equal
    theorem keys (``data.theorem_keys``, grouped by ``greens._key_groups``
    as the sweep's theorem searches are), on the group's key members, with
    one memo of J covers and one-sided J verdicts for the entry (a
    ``greens._Kept``)."""
    facts = greens._Kept()
    verdicts = np.empty(sweep.codes.shape[:2], dtype=bool)
    for r, rel in enumerate(sweep.relations):
        keys = data.theorem_keys[rel]
        first, group_of = greens._key_groups(keys, sweep.pairs)
        decided = [greens._txp_related(rel, data.geometry, keys[a], keys[b], facts)
                   for a, b in sweep.pairs[first].tolist()]
        verdicts[:, r] = np.array(decided, dtype=bool)[group_of]
    return verdicts


@_suite("txp-specialization", _full_characters)
def _txp_specialization(entry, tally, sweep):
    specialized = _txp_verdicts(greens._greens_data(entry.instance), sweep)
    oracle, theorem = sweep.codes[..., 0], sweep.codes[..., 1]
    faulted = sweep.codes.max(axis=2) == _FAULT
    # each (pair, relation) stops at the oracle route when it is wrong (a
    # fault of either route counts as wrong there), and reads the theorem
    # route only after it; only the theorem route is ever capped
    oracle_wrong = faulted | (specialized != (oracle != _UNRELATED))
    theorem_capped = ~oracle_wrong & (theorem == _CAPPED)
    theorem_wrong = ~(oracle_wrong | theorem_capped) & (specialized != (theorem != _UNRELATED))
    tally.checks += oracle.size
    tally.capped += int(theorem_capped.sum())

    def detail(k, r):
        route = "oracle" if oracle_wrong[k, r] else "theorem"
        return f"{sweep.relations[r]}: specialized={specialized[k, r]} {route}={not specialized[k, r]}"

    sweep.fail_at(tally, oracle_wrong | theorem_wrong, detail)


def run_suite(name: str, catalog: Catalog) -> Report:
    """Run one registered suite over the catalog."""
    return run_all(catalog, [name])


def run_all(catalog: Catalog, names: list[str] | None = None) -> Report:
    """Run every registered suite (or the named subset) over the catalog, one
    entry at a time; the records come suite by suite, in the order of ``names``."""
    names = list(SUITES) if names is None else names
    for name in names:
        if name not in SUITES:
            raise InvalidArgumentError(
                f"unknown suite {name!r}; known suites: {', '.join(sorted(SUITES))}"
            )
    records = {name: [] for name in names}
    for entry in (None, *catalog.entries):
        sweep = _GreensSweep(entry, catalog)
        for name, out in records.items():
            record = SUITES[name](entry, sweep)
            if record is not None:
                out.append(record)
        if entry is not None:
            entry.instance.drop_derived()
    return Report(catalog.max_n, catalog.seed, [r for name in names for r in records[name]])
