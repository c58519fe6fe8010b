import itertools
import random

import pytest

from partsem import (
    FiniteMap,
    IndexSemigroup,
    Instance,
    InvalidArgumentError,
    Partition,
    PreconditionError,
    ResourceLimitError,
    build_catalog,
    character,
    closure_from_generators,
    compose,
    enumerate_elements,
    index_units,
    is_member,
    predicted_size,
    units,
)
from partsem import ensemble, harness
from partsem.ensemble import require_member
from partsem.greens import eggbox, l_related
from partsem.regularity import is_regular_oracle, regular_character_witnesses
from conftest import brute_members, comp, full_ti, sym_ti


def fm(images):
    return FiniteMap.of(images)


class TestIndexSemigroup:
    def test_rejects_non_closed_sets_naming_the_pair(self):
        with pytest.raises(InvalidArgumentError, match=r"\[0,0\] \* \[1,0\] = \[1,1\]"):
            IndexSemigroup(2, (fm([0, 0]), fm([1, 0])))

    def test_identity_flag_is_computed(self):
        si = IndexSemigroup(2, (fm([0, 1]), fm([0, 0]), fm([1, 1])))
        assert si.has_identity
        assert not IndexSemigroup(2, (fm([0, 0]),)).has_identity

    def test_identity_flag_is_not_an_argument(self):
        with pytest.raises(TypeError, match="has_identity"):
            IndexSemigroup(1, (FiniteMap.identity(1),), has_identity=False)

    def test_elements_are_sorted_and_deduplicated(self):
        si = IndexSemigroup(2, (fm([1, 1]), fm([0, 0]), fm([0, 0])))
        assert [a.images for a in si.elements] == [(0, 0), (1, 1)]

    def test_factories(self):
        assert len(IndexSemigroup.full(2)) == 4
        assert len(IndexSemigroup.symmetric(3)) == 6
        assert len(IndexSemigroup.trivial(5)) == 1
        assert len(IndexSemigroup.identity_with_constants(3)) == 4

    def test_rejects_wrong_degree(self):
        with pytest.raises(InvalidArgumentError):
            IndexSemigroup(3, (fm([0, 1]),))


class TestClosure:
    def test_identity_alone(self):
        si = closure_from_generators([FiniteMap.identity(2)])
        assert [a.images for a in si.elements] == [(0, 1)]

    def test_swap_squares_to_identity(self):
        si = closure_from_generators([fm([1, 0])])
        assert [a.images for a in si.elements] == [(0, 1), (1, 0)]

    def test_constants_absorb(self):
        si = closure_from_generators([fm([0, 0]), fm([1, 1])])
        assert [a.images for a in si.elements] == [(0, 0), (1, 1)]

    def test_empty_generators_rejected(self):
        with pytest.raises(InvalidArgumentError):
            closure_from_generators([])

    def test_matches_independent_fixpoint(self):
        gens = [(1, 2, 0), (0, 0, 2)]
        expected = set(gens)
        changed = True
        while changed:
            changed = False
            for a in list(expected):
                for b in list(expected):
                    c = comp(a, b)
                    if c not in expected:
                        expected.add(c)
                        changed = True
        si = closure_from_generators([fm(g) for g in gens])
        assert {a.images for a in si.elements} == expected

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_matches_the_two_sided_frontier_closure(self, degree):
        """Right multiplication by the generators against the closure it
        replaced, on seeded random generator sets."""
        rng = random.Random(degree)
        for count in (1, 1, 2, 2, 3):
            gens = [
                FiniteMap(degree, degree, tuple(rng.randrange(degree) for _ in range(degree)))
                for _ in range(count)
            ]
            assert closure_from_generators(gens) == _two_sided_closure(gens)
            with_identity = gens + [FiniteMap.identity(degree)]
            assert closure_from_generators(with_identity) == _two_sided_closure(with_identity)


def _two_sided_closure(gens):
    """``closure_from_generators`` as it was: every element times every
    frontier element, both ways, with ``compose``."""
    degree = gens[0].domain_size
    elements = {g.images: g for g in gens}
    frontier = list(elements.values())
    while frontier:
        fresh = []
        for a in list(elements.values()):
            for b in frontier:
                for c in (compose(a, b), compose(b, a)):
                    if c.images not in elements:
                        elements[c.images] = c
                        fresh.append(c)
        frontier = fresh
    return IndexSemigroup(degree, tuple(elements.values()))


def _subgroups_by_two_sided_closure(degree):
    """``harness._subgroups_of_sym`` as it was, on ``_two_sided_closure``."""
    perms = IndexSemigroup.symmetric(degree).elements
    seen = {}
    for gens in [[g] for g in perms] + [list(pair) for pair in itertools.combinations(perms, 2)]:
        sub = _two_sided_closure(gens)
        seen.setdefault(frozenset(m.images for m in sub.elements), sub)
    return sorted(seen.values(), key=lambda s: (len(s.elements), [m.images for m in s.elements]))


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_subgroups_of_sym_are_unchanged(degree):
    assert harness._subgroups_of_sym(degree) == _subgroups_by_two_sided_closure(degree)


def test_sym5_has_156_subgroups_on_at_most_two_generators():
    subgroups = harness._subgroups_of_sym(5)
    assert len(subgroups) == 156
    assert [len(s) for s in subgroups[:2]] == [1, 2] and len(subgroups[-1]) == 120
    assert all(s.has_identity and all(a.is_bijective() for a in s.elements) for s in subgroups)


class TestInstance:
    def test_degree_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            Instance(Partition.of([[0, 1], [2, 3]]), IndexSemigroup.full(3))


class TestPredictedSize:
    def test_examples(self, p22, inst_full, inst_trivial_si):
        assert predicted_size(inst_trivial_si) == 16
        assert predicted_size(inst_full) == 64
        singletons = Partition.of([[0], [1]])
        assert predicted_size(Instance(singletons, IndexSemigroup.symmetric(2))) == 2


class TestEnumerate:
    def test_counts(self, inst_full, inst_trivial_si, p22):
        assert len(enumerate_elements(inst_trivial_si)) == 16
        assert len(enumerate_elements(inst_full)) == 64
        const_si = IndexSemigroup(2, (fm([0, 0]),))
        assert len(enumerate_elements(Instance(p22, const_si))) == 16

    def test_matches_brute_force_filter(self, inst_full, p22):
        expected = brute_members(p22.blocks, full_ti(2))
        assert [m.images for m in enumerate_elements(inst_full)] == expected
        sym_expected = brute_members(p22.blocks, sym_ti(2))
        inst = Instance(p22, IndexSemigroup.symmetric(2))
        assert [m.images for m in enumerate_elements(inst)] == sym_expected

    def test_order_is_lexicographic(self, inst_full):
        members = [m.images for m in enumerate_elements(inst_full)]
        assert members == sorted(members)

    def test_count_matches_prediction_on_uneven_blocks(self):
        p = Partition.of([[0, 1, 2], [3]])
        for si in (IndexSemigroup.full(2), IndexSemigroup.symmetric(2),
                   IndexSemigroup.identity_with_constants(2)):
            inst = Instance(p, si)
            assert len(enumerate_elements(inst)) == predicted_size(inst)

    def test_cap_is_enforced(self, inst_full):
        with pytest.raises(ResourceLimitError, match="64"):
            enumerate_elements(inst_full, cap=63)
        assert len(enumerate_elements(inst_full, cap=64)) == 64

    def test_negative_cap_is_refused(self, inst_full):
        with pytest.raises(InvalidArgumentError, match="cap must be non-negative, got -1"):
            enumerate_elements(inst_full, cap=-1)


# the routes besides ``enumerate_elements`` that reach an instance's members
CAPPED_ROUTES = {
    "enumerate_elements": lambda f, inst: enumerate_elements(inst),
    "is_member": is_member,
    "require_member": require_member,
    "units": lambda f, inst: units(inst),
    "is_regular_oracle": is_regular_oracle,
    "regular_character_witnesses": regular_character_witnesses,
    "l_related": lambda f, inst: l_related(f, f, inst),
    "eggbox": lambda f, inst: eggbox(inst),
}


class TestEnumerationCapOnEveryRoute:
    """The derived data refuses an instance above DEFAULT_ENUMERATION_CAP
    members before any member is built, so every route gives
    ``enumerate_elements``' error.  The constant is lowered below the 27
    members of T_3 with S(I) trivial, so nothing large is enumerated."""

    @staticmethod
    def _instance():
        return Instance(Partition.of([[0, 1, 2]]), IndexSemigroup.trivial(1))

    @pytest.mark.parametrize("route", CAPPED_ROUTES)
    def test_each_route_refuses_before_enumerating(self, route, monkeypatch):
        def unbuilt(self, inst):
            raise AssertionError("the members were enumerated")

        monkeypatch.setattr(ensemble, "DEFAULT_ENUMERATION_CAP", 26)
        monkeypatch.setattr(ensemble.DerivedData, "__init__", unbuilt)
        with pytest.raises(ResourceLimitError, match="has 27 members, above the cap of 26"):
            CAPPED_ROUTES[route](FiniteMap.identity(3), self._instance())

    def test_an_explicit_larger_cap_still_enumerates(self, monkeypatch):
        monkeypatch.setattr(ensemble, "DEFAULT_ENUMERATION_CAP", 26)
        inst = self._instance()
        with pytest.raises(ResourceLimitError, match="above the cap of 26"):
            is_member(FiniteMap.identity(3), inst)
        assert len(enumerate_elements(inst, cap=27)) == 27
        assert is_member(FiniteMap.identity(3), inst)
        with pytest.raises(ResourceLimitError, match="above the cap of 26"):
            enumerate_elements(inst, cap=26)

    def test_an_enumerated_instance_checks_its_member_count(self, monkeypatch):
        """Once the derived data exists, the cap is checked against its
        member count: the counting formula runs once, for the build."""
        calls = []
        real = ensemble.predicted_size
        monkeypatch.setattr(ensemble, "predicted_size", lambda inst: calls.append(inst) or real(inst))
        inst = self._instance()
        assert len(enumerate_elements(inst, cap=27)) == 27
        for _ in range(3):
            assert len(enumerate_elements(inst)) == 27
        with pytest.raises(ResourceLimitError, match="has 27 members, above the cap of 26"):
            enumerate_elements(inst, cap=26)
        assert calls == [inst]

    def test_membership(self, inst_full, inst_trivial_si):
        assert is_member(fm([2, 3, 0, 0]), inst_full)
        assert not is_member(fm([2, 3, 0, 0]), inst_trivial_si)
        assert not is_member(fm([2, 3, 3, 0]), inst_full)

    def test_closed_under_composition(self, inst_full):
        members = enumerate_elements(inst_full)
        for f in members:
            for g in members:
                assert is_member(compose(f, g), inst_full)


N3_ENTRIES = [(e.label, e.instance) for e in build_catalog(3, seed=7).entries]


@pytest.mark.parametrize("label,inst", N3_ENTRIES, ids=[label for label, _ in N3_ENTRIES])
def test_char_ids_are_the_characters_of_the_members(label, inst):
    """Enumeration records each member's character position; ``character``
    recomputes it from the map."""
    p = inst.partition
    for k, m in enumerate(enumerate_elements(inst)):
        assert inst.derived.char_ids[k] == inst.si.index[character(m, p).images], k


class TestUnits:
    def test_trivial_character_units(self, inst_trivial_si):
        expected = [(0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3), (1, 0, 3, 2)]
        assert [u.images for u in units(inst_trivial_si)] == expected

    def test_full_instance_units(self, inst_full):
        got = [u.images for u in units(inst_full)]
        assert got == [
            (0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3), (1, 0, 3, 2),
            (2, 3, 0, 1), (2, 3, 1, 0), (3, 2, 0, 1), (3, 2, 1, 0),
        ]

    def test_singleton_blocks_give_all_permutations(self):
        p = Partition.of([[0], [1], [2]])
        inst = Instance(p, IndexSemigroup.symmetric(3))
        assert len(units(inst)) == 6

    def test_units_match_two_sided_inverse_scan(self, inst_sym):
        members = [m.images for m in enumerate_elements(inst_sym)]
        ident = (0, 1, 2, 3)
        expected = [
            f for f in members
            if any(comp(f, g) == ident and comp(g, f) == ident for g in members)
        ]
        assert [u.images for u in units(inst_sym)] == expected

    def test_requires_identity(self, p22):
        inst = Instance(p22, IndexSemigroup(2, (fm([0, 0]),)))
        with pytest.raises(PreconditionError):
            units(inst)

    def test_index_units_by_definition(self):
        si = IndexSemigroup.full(3)
        got = {a.images for a in index_units(si)}
        assert got == set(sym_ti(3))
        no_id = IndexSemigroup(2, (fm([0, 0]), fm([1, 1])))
        assert index_units(no_id) == ()
