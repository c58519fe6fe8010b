"""The regularity and unit-regularity witness lists: one build per units
flag for the whole instance, a block of member rows at a time, on first use
(freed with their instance: see ``test_product_table`` and
``test_element_verdicts``), and the same witnesses as a per-candidate
reference composed on image tuples."""

import tracemalloc
from functools import cached_property

import pytest

from partsem import (
    FiniteMap,
    IndexSemigroup,
    Instance,
    Partition,
    build_catalog,
    build_inner_inverse,
    build_unit_inverse,
    enumerate_elements,
    is_idempotent_characterized,
    regular_character_witnesses,
    run_all,
    unit_regular_witnesses,
)
from partsem import ensemble, harness, regularity
from partsem.partition_action import _Geometry
from conftest import comp, raw_character

CATALOG = build_catalog(3, seed=7)
SUITES = ("regular-element-equivalence", "inner-inverse-construction",
          "unit-regular-element-equivalence", "unit-inverse-construction")


def _reference_witnesses(f, inst, units):
    """Every alpha of S(I), in element order, with chi*alpha*chi = chi and
    X_i meeting the image of f inside X_{alpha(i)} f for each i in im chi;
    for units also a permutation whose inverse lies in S(I), with equal
    block sizes along it.  Every product is composed on image tuples."""
    blocks = inst.partition.blocks
    t = f.images
    chi = raw_character(t, blocks)
    image = set(t)
    elements = {a.images for a in inst.si.elements}
    found = []
    for alpha in inst.si.elements:
        at = alpha.images
        if comp(comp(chi, at), chi) != chi:
            continue
        if not all(set(blocks[i]) & image <= {t[x] for x in blocks[at[i]]} for i in set(chi)):
            continue
        if units:
            inverse = {y: x for x, y in enumerate(at)}
            if len(inverse) != len(at) or tuple(map(inverse.get, range(len(at)))) not in elements:
                continue
            if any(len(blocks[i]) != len(blocks[j]) for i, j in enumerate(at)):
                continue
        found.append(alpha)
    return tuple(found)


@pytest.mark.parametrize("entry", CATALOG.entries, ids=[e.label for e in CATALOG.entries])
def test_witnesses_match_a_per_candidate_reference(entry):
    inst = entry.instance
    for f in enumerate_elements(inst):
        assert regular_character_witnesses(f, inst) == _reference_witnesses(f, inst, False), f
        if inst.si.has_identity:
            assert unit_regular_witnesses(f, inst) == _reference_witnesses(f, inst, True), f


def test_the_lists_are_built_once_per_units_flag(monkeypatch):
    """The four regularity suites over a fresh catalog, each run twice on
    every entry it admits: each entry keeps one build per units flag asked
    for, and the second run of a suite builds nothing.  A build is counted
    by its row blocks' tests of a*b*a = a."""
    builds, kept = [], {}
    real = regularity._inner_hits

    def spy(table, ab, a):
        builds.append(len(a))
        return real(table, ab, a)

    def twice(suite):
        def run(entry, sweep):
            record = suite(entry, sweep)
            if record is not None:
                before = len(builds)
                assert suite(entry, sweep).failures == 0
                assert len(builds) == before, (record.suite, entry.label)
                kept[entry.label] = set(entry.instance.derived.witness_lists)
            return record

        return run

    monkeypatch.setattr(regularity, "_inner_hits", spy)
    for name in SUITES:
        monkeypatch.setitem(harness.SUITES, name, twice(harness.SUITES[name]))
    catalog = build_catalog(3, seed=7)
    assert run_all(catalog, list(SUITES)).failures == 0
    assert list(kept) == [e.label for e in catalog.entries]
    # one row block per build at max_n 3: one build per entry and flag
    assert len(builds) == sum(map(len, kept.values()))
    for e in catalog.entries:
        assert kept[e.label] == ({False, True} if e.instance.si.has_identity else {False})


def test_the_lists_are_one_flat_int32_array_with_row_offsets(monkeypatch):
    """Member k's witnesses are the ascending slice offsets[k]:offsets[k+1]
    of one flat int32 array; one-row blocks build the same lists."""
    p = Partition.of([[0, 1], [2], [3], [4]])
    inst = Instance(p, IndexSemigroup.full(p.degree))
    members = enumerate_elements(inst)
    for units in (False, True):
        flat, offsets = regularity._witness_lists(inst, units)
        assert flat.typecode == "i" and flat.itemsize == 4
        assert len(offsets) == len(members) + 1 and offsets[0] == 0 and offsets[-1] == len(flat)
        for k in range(len(members)):
            row = flat[offsets[k]:offsets[k + 1]]
            assert list(row) == sorted(set(row))
    lists = dict(inst.derived.witness_lists)
    inst.drop_derived()
    monkeypatch.setattr(ensemble, "ROW_BLOCK_BYTES", 1)
    for units in (False, True):
        assert regularity._witness_lists(inst, units) == lists[units]


def test_the_block_fits_are_built_once_per_instance(monkeypatch):
    """Both units flags read one block-fit table, the members' geometry's,
    built on the first build and kept with the instance."""
    built = []
    real = _Geometry.__dict__["block_fits"].func

    def spy(geometry):
        built.append(geometry)
        return real(geometry)

    prop = cached_property(spy)
    prop.__set_name__(_Geometry, "block_fits")
    monkeypatch.setattr(_Geometry, "block_fits", prop)
    p = Partition.of([[0, 1], [2]])
    inst = Instance(p, IndexSemigroup.full(p.degree))
    for units in (False, True, False):
        regularity._witness_lists(inst, units)
    assert built == [inst.derived.geometry] and len(inst.derived.witness_lists) == 2


def test_the_element_criteria_build_no_block_masks():
    """Both witness lists and the idempotency verdicts read the block fits,
    built off the members' image array: the block masks, which only the
    Green's theorem route reads, stay unbuilt."""
    p = Partition.of([[0, 1], [2], [3]])
    inst = Instance(p, IndexSemigroup.full(p.degree))
    for f in enumerate_elements(inst):
        regular_character_witnesses(f, inst), unit_regular_witnesses(f, inst)
        is_idempotent_characterized(f, inst)
    assert "block_fits" in vars(inst.derived.geometry)
    assert "block_masks" not in vars(inst.derived.geometry)


def test_the_build_peaks_within_its_row_budget():
    """Under tracemalloc, each build on n4:[0][1][2][3]/full and
    n5:[0][1][2][3][4]/full (256 and 3125 members, S(I) = T_4 and T_5)
    peaks within ROW_BLOCK_BYTES plus the arrays it keeps, the block-fit
    table among them; the members' image array, their characters and the
    index units are built beforehand."""
    for blocks in ([[0], [1], [2], [3]], [[0], [1], [2], [3], [4]]):
        p = Partition.of(blocks)
        inst = Instance(p, IndexSemigroup.full(p.degree))
        inst.derived.geometry.image_array, inst.si.unit_ids
        for units in (False, True):
            tracemalloc.start()
            try:
                flat, offsets = regularity._witness_lists(inst, units)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            kept = (len(flat) * flat.itemsize + len(offsets) * offsets.itemsize
                    + inst.derived.geometry.block_fits.nbytes)
            assert peak <= ensemble.ROW_BLOCK_BYTES + kept, (blocks, units)


def test_the_block_fit_build_peaks_within_its_row_budget():
    """Under tracemalloc, the block-fit build on n5:[0][1][2][3][4]/full
    (3125 members) peaks within ROW_BLOCK_BYTES plus the table it keeps;
    the members' image array is built beforehand."""
    p = Partition.of([[0], [1], [2], [3], [4]])
    geometry = Instance(p, IndexSemigroup.full(p.degree)).derived.geometry
    geometry.image_array
    tracemalloc.start()
    try:
        fits = geometry.block_fits
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ensemble.ROW_BLOCK_BYTES + fits.nbytes, peak


@pytest.mark.parametrize("build", [build_inner_inverse, build_unit_inverse])
def test_a_first_inverse_call_builds_no_member_table(build):
    """On the one-block T_5 (3125 members) either inverse builder, called
    first, validates on image tuples and leaves the member table unbuilt."""
    inst = Instance(Partition.of([[0, 1, 2, 3, 4]]), IndexSemigroup.full(1))
    f = FiniteMap.of([1, 1, 4, 0, 4])
    g = build(f, FiniteMap.identity(1), inst)
    assert comp(comp(f.images, g.images), f.images) == f.images
    assert "table" not in inst.derived.__dict__
