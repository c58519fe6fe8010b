"""Faults are findings: a criterion or builder fault gives a failing record in
the suite that meets it, and ``run_all`` returns.

``TestMutantMatrix`` applies each killed mutant of ROADMAP item 1's table
(mutation analysis: DeMillo, Lipton & Sayward, "Hints on test data
selection", 1978) and runs the suites that name it on the max_n 3 catalog,
which kills every row; the rows of ``TEST_KILLED`` survive the suites and
are killed by the test each names.  ``TestBuilderValidation`` breaks, one
at a time, each fact the inverse-construction suites once rechecked on
every built map, and shows that the builder's own validation reports it.  ``TestSpoiledGreensData``
spoils one fact of the Green's data of a 3-point instance and reads the
checkers and the Green's pair records on it.
"""

import numpy as np
import pytest

from partsem import (
    FiniteMap,
    IndexSemigroup,
    Instance,
    Partition,
    build_catalog,
    d_related,
    greens,
    harness,
    regularity,
    run_all,
    unit_regularity,
    verify_witness,
    witness_maps,
)
from partsem.partition_action import _Geometry
from test_greens import bulk_oracle_mismatches


@pytest.fixture(scope="module")
def catalog3():
    return build_catalog(3, seed=7)


# the unmutated functions the mutants below delegate to
_REAL = {"phi_covers": greens._phi_covers, "match_classes": greens._match_classes,
         "oracle_rows": greens._oracle_rows}


def _first_failure(report, name):
    """The first failing record of suite ``name``; asserts that there is one."""
    failing = [r for r in report.records if r.suite == name and r.failures]
    assert failing, f"{name} has no failing record"
    return failing[0]


def _chi_idempotent(f, inst):
    """The idempotency criterion reduced to "chi(f) is idempotent"."""
    c = inst.derived.char_ids[inst.derived.index[f.images]]
    return inst.si.table[c, c] == c


def _phi_covers_but_the_last_block(f_blockimg, sources, values):
    return _REAL["phi_covers"](f_blockimg[:-1], sources[:-1], values)


class _HoldsEveryBlock(int):
    """A meet mask with its own bits but an empty complement, so that every
    mask tested against it fits inside it."""

    def __invert__(self):
        return 0


class _FirstHoldsEveryBlock:
    """Per-map meet masks whose first read, f's in ``_match_classes``, holds
    every class of pi(g) that is tested against it."""

    def __init__(self, masks):
        self.masks, self.first = masks, True

    def __getitem__(self, k):
        if self.first:
            self.first = False
            return tuple(map(_HoldsEveryBlock, self.masks[k]))
        return self.masks[k]


class _Data:
    def __init__(self, **attrs):
        self.__dict__.update(attrs)


def _match_classes_ignoring_g(geometry, fk, gk, at, bt, budget):
    """Class matching without the test on g's side: each class of pi(g)
    may be paired with any class of pi(f) its blocks allow."""
    spoiled = _Data(meet_masks=_FirstHoldsEveryBlock(geometry.meet_masks))
    return _REAL["match_classes"](spoiled, fk, gk, at, bt, budget)


@property
def _every_block_fits(geometry):
    degree = geometry.p.degree
    return np.ones((len(geometry.images), degree, degree), dtype=bool)


def _l_rows_with_last_factors(data, rel, pairs):
    """The bulk oracle with each L factor the last h reaching its target,
    not the first: every row still replays."""
    rows, capped, faults = _REAL["oracle_rows"](data, rel, pairs)
    if rel == "L":
        for row in rows:
            for col, (x, y) in ((3, row[1:3]), (4, row[2:0:-1])):
                row[col] = (data.table[:, y] == x).nonzero()[0][-1]
    return rows, capped, faults


def _j_rows_tampered(data, rel, pairs):
    """The bulk oracle with the first factor of each J row moved to the next member."""
    rows, capped, faults = _REAL["oracle_rows"](data, rel, pairs)
    if rel == "J":
        rows[:, 3] = (rows[:, 3] + 1) % len(data.members)
    return rows, capped, faults


# row of ROADMAP item 1's table: (object, attribute, mutant, suites that kill it)
MUTANTS = {
    "regularity theorem without the merge condition": (
        regularity, "_merges_onto_a_large_block", lambda inst: False,
        ["regular-semigroup-equivalence"]),
    "unit-regularity theorem without the merge condition": (
        unit_regularity, "_merges_onto_a_large_block", lambda inst: False,
        ["unit-regular-semigroup-equivalence"]),
    "idempotency criterion reduced to chi(f) idempotent": (
        harness, "is_idempotent_characterized", _chi_idempotent, ["idempotent-equivalence"]),
    "_txp_l_one_sided always true": (
        greens, "_txp_l_one_sided", lambda bf, bg: True, ["txp-specialization"]),
    "_txp_d_check true whenever the class counts match": (
        greens, "_txp_d_check",
        lambda geometry, a, b: len(geometry.meet_masks[a]) == len(geometry.meet_masks[b]),
        ["txp-specialization"]),
    "unit witness candidates ignore block sizes": (
        regularity, "_unit_candidates", lambda inst: inst.si.unit_ids,
        ["unit-regular-element-equivalence", "unit-inverse-construction"]),
    "L criterion: _blocks_fit always true": (
        greens, "_blocks_fit", lambda bf, bg, alpha: True,
        ["greens-mode-agreement", "greens-witness-replay", "txp-specialization"]),
    "J criterion: _phi_covers ignores the last block": (
        greens, "_phi_covers", _phi_covers_but_the_last_block,
        ["greens-mode-agreement", "greens-witness-replay", "txp-specialization"]),
    "witness block test: every block fits": (
        _Geometry, "block_fits", _every_block_fits,
        ["inner-inverse-construction"]),
    "D criterion: class matching ignores g's side": (
        greens, "_match_classes", _match_classes_ignoring_g,
        ["greens-mode-agreement", "greens-witness-replay", "txp-specialization"]),
    "bulk J row with a factor tampered": (
        greens, "_oracle_rows", _j_rows_tampered, ["greens-witness-replay"]),
}


def _assert_bulk_oracle_matches_the_checkers(catalog):
    """tests/test_greens.py's equality test of the bulk oracle on ``catalog``."""
    related, mismatches = bulk_oracle_mismatches(catalog)
    assert related > 0 and mismatches == []


# rows that every suite survives, each killed by a test instead: (object,
# attribute, mutant, a check of the max_n 3 catalog that raises on it)
TEST_KILLED = {
    "bulk L first factor is the last h": (
        greens, "_oracle_rows", _l_rows_with_last_factors,
        _assert_bulk_oracle_matches_the_checkers),
}

# the rows that aborted the run before a builder's InternalError was a
# failing record, with the start of the fault each one reports
ABORTED = {
    "L criterion: _blocks_fit always true": "L (theorem): the left factor",
    "J criterion: _phi_covers ignores the last block": "J (theorem): the J factor",
    "witness block test: every block fits": "the inner inverse",
    "D criterion: class matching ignores g's side": "D (theorem): the left factor",
}


class TestMutantMatrix:
    @pytest.mark.parametrize("row", MUTANTS)
    def test_each_killed_row_fails_its_suites_without_aborting(self, row, catalog3, monkeypatch):
        owner, name, mutant, suites = MUTANTS[row]
        monkeypatch.setattr(owner, name, mutant)
        report = run_all(catalog3, suites)
        for suite in suites:
            _first_failure(report, suite)
        if row in ABORTED:
            details = [r.counterexample["detail"] for r in report.records if r.failures]
            assert any(d.startswith(ABORTED[row]) for d in details), details

    @pytest.mark.parametrize("row", TEST_KILLED)
    def test_each_row_the_suites_survive_fails_its_test(self, row, catalog3, monkeypatch):
        owner, name, mutant, check = TEST_KILLED[row]
        check(catalog3)
        monkeypatch.setattr(owner, name, mutant)
        assert run_all(catalog3, ["greens-mode-agreement", "greens-witness-replay"]).failures == 0
        with pytest.raises(AssertionError):
            check(catalog3)


def _not_a_member(inst, f, built):
    """The built map left out of the member index, unless it is f."""
    index = inst.derived.index
    k = index.pop(built.images) if built is not f else None
    return lambda: k is None or index.__setitem__(built.images, k)


def _wrong_character(inst, f, built):
    """The built map's enumerated character spoiled, unless it is f."""
    char_ids, k = inst.derived.char_ids, inst.derived.index[built.images]
    c = char_ids[k]
    if built is not f:
        char_ids[k] = -1
    return lambda: char_ids.__setitem__(k, c)


def _inverse_not_a_member(inst, f, built):
    """The built unit's inverse left out of the member index, unless it is
    f or the unit itself: the unit is then no unit of the member set."""
    inverse = tuple(built.images.index(x) for x in range(len(built.images)))
    index = inst.derived.index
    k = index.pop(inverse) if inverse not in (f.images, built.images) else None
    return lambda: k is None or index.__setitem__(inverse, k)


def _image_point_moved(module):
    """The builder's validation in ``module`` handed the built map with its
    value at the first image point of f, in a block of two or more points,
    moved to the next point of that block: still a member with character
    alpha, so only f*g*f = f can fail."""
    def spoil(inst, f, built):
        real, p = module._member_inner_inverse, inst.partition

        def validate(f, images, *args):
            images = list(images)
            for x in sorted(set(f.images)):
                block = p.blocks[p.block_of(images[x])]
                if len(block) > 1:
                    images[x] = block[(block.index(images[x]) + 1) % len(block)]
                    break
            return real(f, tuple(images), *args)

        module._member_inner_inverse = validate
        return lambda: setattr(module, "_member_inner_inverse", real)

    return spoil


# fact the deleted recheck tested: (suite, builder, spoil that breaks that fact alone)
FACTS = {
    "inner: a member": ("inner-inverse-construction", "build_inner_inverse", _not_a_member),
    "inner: character alpha": (
        "inner-inverse-construction", "build_inner_inverse", _wrong_character),
    "inner: f*g*f = f": (
        "inner-inverse-construction", "build_inner_inverse", _image_point_moved(regularity)),
    "unit: a member": ("unit-inverse-construction", "build_unit_inverse", _not_a_member),
    "unit: character alpha": (
        "unit-inverse-construction", "build_unit_inverse", _wrong_character),
    "unit: f*u*f = f": (
        "unit-inverse-construction", "build_unit_inverse", _image_point_moved(unit_regularity)),
    "unit: a unit": ("unit-inverse-construction", "build_unit_inverse", _inverse_not_a_member),
}


class TestBuilderValidation:
    """Each build runs twice: unspoiled, then with one fact of the built map
    broken (the derived data or the map its validation is handed), undone
    after.  A spoil of the member index or the characters leaves f's own
    entries alone: they must hold for the build to start."""

    @pytest.mark.parametrize("fact", FACTS)
    def test_each_fact_the_recheck_tested_fails_the_suite(self, fact, catalog3, monkeypatch):
        suite, name, spoil = FACTS[fact]
        real = getattr(harness, name)

        def build(f, alpha, inst):
            undo = spoil(inst, f, real(f, alpha, inst))
            try:
                return real(f, alpha, inst)
            finally:
                undo()

        monkeypatch.setattr(harness, name, build)
        report = run_all(catalog3, [suite])
        first = _first_failure(report, suite).counterexample
        assert first["detail"].endswith("fails validation")
        assert set(first) == {"instance", "detail", "f", "alpha"}


# the instance [[0,1],[2]] with S(I) = T_2, a D-related pair and its middle element
P3 = Partition.of([[0, 1], [2]])
F, G, MIDDLE = FiniteMap.of([0, 1, 0]), FiniteMap.of([1, 0, 0]), (0, 1, 1)


def _middle_kernel(data):
    """The middle's kernel classes in the members' geometry spoiled to one class."""
    data.geometry.kernels[data.index[MIDDLE]] = ((0, 1, 2),)


def _no_r_divisor(data):
    """chi(g) left with no right divisor reaching the middle's character."""
    cg, cm = (data.char_ids[data.index[t]] for t in (G.images, MIDDLE))
    data.si_facts.right[cg * data.si_facts.size + cm] = ()


class TestSpoiledGreensData:
    @staticmethod
    def _run(spoil, names, monkeypatch):
        """The records of ``names`` on a one-entry catalog whose Green's data
        is spoiled as it is built, and the entry's sweep on spoiled data."""
        real = greens._GreensData.__init__

        def spoiled(data, inst):
            real(data, inst)
            spoil(data)

        monkeypatch.setattr(greens._GreensData, "__init__", spoiled)
        entry = harness.CatalogEntry(Instance(P3, IndexSemigroup.full(2)), "n3:[0,1][2]", "full")
        catalog = harness.Catalog(3, 7, (entry,))
        report = run_all(catalog, names)
        return {r.suite: r for r in report.records}, harness._GreensSweep(entry, catalog)

    def test_the_d_oracle_witness_reads_no_kernel_classes(self, monkeypatch):
        """The D oracle's witness is its factors, and its class pairing is
        read off them, so a spoiled kernel entry of the middle element in
        the geometry leaves it whole: it replays, the pairing names g's
        classes, and a run gives records, not a ``KeyError``."""
        inst = Instance(P3, IndexSemigroup.full(2))
        _middle_kernel(greens._greens_data(inst))
        w = d_related(F, G, inst, mode="oracle")
        assert w.factor("middle").images == MIDDLE and verify_witness(w, F, G)
        assert witness_maps(w, F, G, P3)[1] == (((0, 2), (0,)), ((1,), (1, 2)))
        records, sweep = self._run(_middle_kernel, ["greens-mode-agreement"], monkeypatch)
        record = records["greens-mode-agreement"]
        assert record.failures > 0 and record.counterexample is not None
        k = sweep.pairs.tolist().index([sweep.members.index(F), sweep.members.index(G)])
        assert sweep.codes[k, sweep.relations.index("D")].tolist() == [
            harness._REPLAYS, harness._FAULT]

    def test_each_pair_record_counts_its_faults(self, monkeypatch):
        """With the R divisor the D theorem route needs spoiled, the first
        failure is an R disagreement, and each record says how many of its
        failing checks were faults."""
        names = ["greens-mode-agreement", "greens-witness-replay", "txp-specialization"]
        records, sweep = self._run(_no_r_divisor, names, monkeypatch)
        agreement = records["greens-mode-agreement"]
        assert agreement.counterexample["detail"] == "R: oracle=True but theorem=False"
        faults = {
            "greens-mode-agreement": np.count_nonzero(sweep.codes.max(axis=2) == harness._FAULT),
            "greens-witness-replay": np.count_nonzero(sweep.codes == harness._FAULT),
        }
        faults["txp-specialization"] = faults["greens-mode-agreement"]
        for name in names:
            assert faults[name] > 0
            assert records[name].observations == (f"{faults[name]} failing checks were faults",)
