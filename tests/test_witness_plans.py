"""The regularity and unit-regularity witness plans: one per character and
units flag, built on first use (freed with their instance: see
``test_product_table``), and the same witnesses as a per-candidate
reference composed on image tuples."""

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
    regular_character_witnesses,
    run_all,
    unit_regular_witnesses,
)
from partsem import harness, regularity
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


def test_each_plan_is_built_once_per_character_and_units_flag(monkeypatch):
    """The four regularity suites over a fresh catalog, each run twice on
    every entry it admits: the plans built are the plans the entry keeps, one
    per (character, units) key, and the second run of a suite builds none."""
    built, kept = [], {}
    real = regularity._WitnessPlan

    def spy(*args):
        plan = real(*args)
        built.append(plan)
        return plan

    def twice(suite):
        def run(entry, sweep):
            record = suite(entry, sweep)
            if record is not None:
                before = len(built)
                assert suite(entry, sweep).failures == 0
                assert len(built) == before, (record.suite, entry.label)
                d = entry.instance.derived
                kept[entry.label] = (dict(d.witness_plans), set(d.char_ids))
            return record

        return run

    monkeypatch.setattr(regularity, "_WitnessPlan", spy)
    for name in SUITES:
        monkeypatch.setitem(harness.SUITES, name, twice(harness.SUITES[name]))
    catalog = build_catalog(3, seed=7)
    assert run_all(catalog, list(SUITES)).failures == 0
    assert len(built) > 0
    assert sorted(map(id, built)) == sorted(
        id(plan) for plans, _ in kept.values() for plan in plans.values())
    assert list(kept) == [e.label for e in catalog.entries]
    for e in catalog.entries:
        plans, chars = kept[e.label]
        asked = {(c, False) for c in chars}
        if e.instance.si.has_identity:
            asked |= {(c, True) for c in chars}
        assert set(plans) == asked, e.label


def test_plans_are_kept_compactly():
    """A plan holds index arrays and one key per group, not an object per
    candidate; its groups are the candidates' restrictions to im chi."""
    p = Partition.of([[0, 1], [2], [3], [4]])
    inst = Instance(p, IndexSemigroup.full(p.degree))
    for f in enumerate_elements(inst)[::37]:
        regular_character_witnesses(f, inst)
    for (chi, _), plan in inst.derived.witness_plans.items():
        assert plan.points == tuple(sorted(set(inst.si.elements[chi].images)))
        assert list(plan.positions) == sorted(plan.positions)
        assert len(plan.groups) == len(plan.positions)
        assert len(plan.keys) <= len(plan.positions)
        for a, group in zip(plan.positions, plan.groups):
            alpha = inst.si.elements[a].images
            assert plan.keys[group] == tuple(alpha[i] for i in plan.points)


@pytest.mark.parametrize("build", [build_inner_inverse, build_unit_inverse])
def test_a_first_inverse_call_builds_no_member_table(build):
    """On the one-block T_5 (3125 members) either inverse builder, called
    first, validates on image tuples and leaves the member table unbuilt."""
    inst = Instance(Partition.of([[0, 1, 2, 3, 4]]), IndexSemigroup.full(1))
    f = FiniteMap.of([1, 1, 4, 0, 4])
    g = build(f, FiniteMap.identity(1), inst)
    assert comp(comp(f.images, g.images), f.images) == f.images
    assert "table" not in inst.derived.__dict__
