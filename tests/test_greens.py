import copy
import dataclasses
import functools
import gc
import inspect
import itertools
import random
import re
import tracemalloc
import types
import weakref
from collections import Counter

import numpy as np
import pytest

from partsem import (
    FiniteMap,
    GreenWitness,
    IndexSemigroup,
    Instance,
    InternalError,
    InvalidArgumentError,
    Partition,
    PreconditionError,
    ResourceLimitError,
    build_catalog,
    build_d_middle,
    build_inner_inverse,
    build_j_factors,
    build_left_factor,
    build_right_factor,
    character,
    compose,
    d_related,
    eggbox,
    enumerate_elements,
    full_tx_green,
    j_related,
    kernel_partition,
    l_related,
    lift_character,
    preserves_partition,
    principal_leq_oracle,
    r_related,
    regular_character_witnesses,
    refines,
    run_all,
    txp_green,
    verify_witness,
    witness_maps,
)
from partsem.greens import (
    DEFAULT_PHI_CAP,
    _class_labels,
    _d_theorem_search,
    _greens_data,
    _j_one_sided_theorem,
    _txp_related,
    checkers as greens_checkers,
)
from partsem import ensemble, greens, harness, regularity
from partsem.partition_action import _Geometry
from conftest import boolean_products, comp, monoid_table, pack_below, preorders, unpack_below


def fm(images):
    return FiniteMap.of(images)


E1 = fm([0, 0, 2, 2])
E2 = fm([1, 1, 3, 3])
E3 = fm([2, 2, 0, 0])
F1 = fm([2, 3, 0, 0])
CONST = fm([0, 0, 0, 0])


class TestPrincipalLeqOracle:
    def test_l_factor_absent_when_images_disagree(self, inst_full):
        # e2 = h*e1 has no solution: the images {1,3} and {0,2} are disjoint
        assert principal_leq_oracle("L", E2, E1, inst_full) is None
        assert principal_leq_oracle("L", E1, E2, inst_full) is None

    def test_r_factor_for_equal_elements_is_first_in_order(self, inst_full):
        h = principal_leq_oracle("R", F1, F1, inst_full)
        members = [m.images for m in enumerate_elements(inst_full)]
        first = next(
            m for m in members if comp(F1.images, m) == F1.images
        )
        assert h.images == first
        assert compose(F1, h) == F1
        # the identity is also a valid (later) factor
        assert compose(F1, FiniteMap.identity(4)) == F1

    def test_j_factors_for_rank_collapse(self, inst_full):
        pair = principal_leq_oracle("J", CONST, FiniteMap.identity(4), inst_full)
        assert pair is not None
        h1, h2 = pair
        assert compose(compose(h1, FiniteMap.identity(4)), h2) == CONST
        assert principal_leq_oracle("J", FiniteMap.identity(4), CONST, inst_full) is None

    def test_requires_identity_character(self, p22):
        inst = Instance(p22, IndexSemigroup(2, (fm([0, 0]),)))
        with pytest.raises(PreconditionError):
            principal_leq_oracle("L", fm([0, 0, 0, 0]), fm([0, 0, 0, 0]), inst)

    def test_rejects_non_members(self, inst_full):
        with pytest.raises(InvalidArgumentError):
            principal_leq_oracle("L", fm([2, 3, 3, 0]), E1, inst_full)


class TestLRelated:
    def test_reflexive_with_identity_decorations(self, inst_full):
        w = l_related(F1, F1, inst_full, mode="theorem")
        assert w is not None
        assert verify_witness(w, F1, F1)
        index_maps, pairing, image_maps = witness_maps(w, F1, F1, inst_full.partition)
        assert index_maps == {"alpha": FiniteMap.identity(2), "beta": FiniteMap.identity(2)}
        assert pairing is None and image_maps == {}

    def test_not_related_when_images_differ(self, inst_full):
        assert l_related(F1, E1, inst_full, mode="oracle") is None
        assert l_related(F1, E1, inst_full, mode="theorem") is None
        assert l_related(E1, E2, inst_full, mode="oracle") is None
        assert l_related(E1, E2, inst_full, mode="theorem") is None

    def test_modes_agree_on_all_pairs(self, inst_sym):
        members = enumerate_elements(inst_sym)
        for f in members:
            for g in members:
                o = l_related(f, g, inst_sym, mode="oracle")
                t = l_related(f, g, inst_sym, mode="theorem")
                assert (o is None) == (t is None)
                if o is not None:
                    assert verify_witness(o, f, g) and verify_witness(t, f, g)


class TestGreensDataLifetime:
    def test_derived_data_dies_with_its_instance_without_the_cyclic_gc(self):
        """The Green's data keeps no reference back to its instance, so
        reference counting alone frees the derived data that keeps it."""
        inst = Instance(Partition.of([[0, 1], [2]]), IndexSemigroup.full(2))
        f = enumerate_elements(inst)[1]
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert l_related(f, f, inst) is not None
            derived = weakref.ref(inst.derived)
            assert derived().greens is not None
            del inst, f
            assert derived() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("outside", [fm([0, 2, 0]), FiniteMap(3, 4, (0, 1, 0))],
                             ids=["not preserving", "wider codomain"])
    def test_a_non_member_is_refused_as_require_member_refuses_it(self, outside):
        inst = Instance(Partition.of([[0, 1], [2]]), IndexSemigroup.full(2))
        f = enumerate_elements(inst)[1]
        message = f"{outside} is not a member of {inst!r}"
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            ensemble.require_member(outside, inst)
        for checker in greens_checkers().values():
            with pytest.raises(InvalidArgumentError, match=re.escape(message)):
                checker(outside, f, inst)


class TestOneSidedCaps:
    """In theorem mode, cap bounds the candidate characters tested, both sides together."""

    @pytest.mark.parametrize("checker", [l_related, r_related])
    def test_zero_cap_raises_in_theorem_mode_only(self, checker, inst_full):
        with pytest.raises(ResourceLimitError):
            checker(E1, E3, inst_full, mode="theorem", cap=0)
        w = checker(E1, E3, inst_full, mode="oracle", cap=0)
        assert w is not None and verify_witness(w, E1, E3)

    @pytest.mark.parametrize("checker", [l_related, r_related])
    def test_both_sides_draw_on_one_budget(self, checker, inst_full):
        with pytest.raises(ResourceLimitError):
            checker(E1, E3, inst_full, mode="theorem", cap=1)
        w = checker(E1, E3, inst_full, mode="theorem", cap=2)
        assert w is not None and verify_witness(w, E1, E3)


@pytest.mark.parametrize("mode", ["oracle", "theorem"])
@pytest.mark.parametrize("checker", [l_related, r_related, d_related, j_related])
def test_a_negative_cap_is_refused(checker, mode, inst_full):
    """A negative cap is an input error in both modes, even on a pair whose
    answer needs no candidate; a cap of 0 is still taken."""
    with pytest.raises(InvalidArgumentError, match="cap must be non-negative, got -5"):
        checker(E1, E3, inst_full, mode=mode, cap=-5)
    with pytest.raises(InvalidArgumentError, match="cap must be non-negative, got -1"):
        checker(CONST, E1, inst_full, mode=mode, cap=-1)
    if mode == "oracle":
        assert checker(E1, E1, inst_full, mode=mode, cap=0) is not None


class TestBuildLeftFactor:
    def test_reflexive_rule(self, inst_full):
        h = build_left_factor(F1, F1, FiniteMap.identity(2), inst_full)
        assert compose(h, F1) == F1

    def test_identity_right_leg_forces_f(self, inst_full):
        f = lift_character(fm([1, 0]), inst_full.partition)
        h = build_left_factor(f, FiniteMap.identity(4), fm([1, 0]), inst_full)
        assert h == f

    def test_rejects_bad_alpha(self, inst_full):
        with pytest.raises(PreconditionError):
            build_left_factor(F1, E1, FiniteMap.identity(2), inst_full)


class TestRRelated:
    def test_equal_kernels_same_character(self, inst_full):
        for mode in ("oracle", "theorem"):
            w = r_related(E1, E2, inst_full, mode=mode)
            assert w is not None and verify_witness(w, E1, E2)

    def test_reflexive(self, inst_full):
        w = r_related(F1, F1, inst_full, mode="theorem")
        assert w is not None and verify_witness(w, F1, F1)

    def test_kernel_mismatch(self, inst_full):
        assert r_related(F1, E1, inst_full, mode="oracle") is None
        assert r_related(F1, E1, inst_full, mode="theorem") is None

    def test_related_pairs_share_kernels(self, inst_full):
        members = enumerate_elements(inst_full)
        rng = random.Random(7)
        for _ in range(60):
            f = members[rng.randrange(len(members))]
            g = members[rng.randrange(len(members))]
            w = r_related(f, g, inst_full, mode="oracle")
            if w is not None:
                assert kernel_partition(f) == kernel_partition(g)


class TestBuildRightFactor:
    def test_worked_example(self, inst_full):
        h = build_right_factor(E1, E2, FiniteMap.identity(2), inst_full)
        assert h == fm([0, 0, 2, 2])
        assert compose(E2, h) == E1

    def test_reflexive_rule(self, inst_full):
        h = build_right_factor(F1, F1, FiniteMap.identity(2), inst_full)
        assert compose(F1, h) == F1

    def test_rejects_bad_beta(self, inst_full):
        with pytest.raises(PreconditionError):
            build_right_factor(F1, E1, FiniteMap.identity(2), inst_full)


class TestDRelated:
    def test_reflexive(self, inst_full):
        for mode in ("oracle", "theorem"):
            w = d_related(F1, F1, inst_full, mode=mode)
            assert w is not None and verify_witness(w, F1, F1)

    def test_class_count_mismatch(self, inst_full):
        assert d_related(E1, F1, inst_full, mode="oracle") is None
        assert d_related(E1, F1, inst_full, mode="theorem") is None

    def test_idempotent_pair_related(self, inst_full):
        for mode in ("oracle", "theorem"):
            w = d_related(E1, E3, inst_full, mode=mode)
            assert w is not None and verify_witness(w, E1, E3)
            m = w.factor("middle")
            assert kernel_partition(m) == kernel_partition(E3)

    def test_oracle_pairing_follows_shared_values(self, inst_full):
        w = d_related(E1, E3, inst_full, mode="oracle")
        m = w.factor("middle")
        _, pairing, _ = witness_maps(w, E1, E3, inst_full.partition)
        assert [c for c, _ in pairing] == list(kernel_partition(E1).classes)
        assert sorted(c for _, c in pairing) == sorted(kernel_partition(m).classes)
        for f_class, g_class in pairing:
            assert E1.images[f_class[0]] == m.images[g_class[0]]

    def test_modes_agree_on_all_pairs(self, inst_sym):
        members = enumerate_elements(inst_sym)
        for f in members:
            for g in members:
                o = d_related(f, g, inst_sym, mode="oracle")
                t = d_related(f, g, inst_sym, mode="theorem")
                assert (o is None) == (t is None)


class TestBuildDMiddle:
    def test_identity_pairing_returns_f(self, inst_full):
        pairing = tuple((c, c) for c in kernel_partition(F1).classes)
        h = build_d_middle(F1, F1, character(F1, inst_full.partition), pairing, inst_full)
        assert h == F1

    def test_rejects_malformed_pairing(self, inst_full):
        pairing = tuple((c, c) for c in kernel_partition(F1).classes)
        with pytest.raises(PreconditionError):
            build_d_middle(F1, E1, FiniteMap.identity(2), pairing, inst_full)

    def test_rejects_wrong_gamma(self, inst_full):
        pairing = tuple((c, c) for c in kernel_partition(F1).classes)
        with pytest.raises(PreconditionError, match="do not satisfy the D-criteria"):
            build_d_middle(F1, F1, fm([0, 0]), pairing, inst_full)

    def test_rejects_a_middle_outside_the_instance(self, inst_trivial_si):
        # Swapping the two kernel classes of E1 gives (2, 2, 0, 0), whose
        # character, the swap, is not in the trivial index semigroup.
        low, high = kernel_partition(E1).classes
        with pytest.raises(PreconditionError, match="not a member"):
            build_d_middle(E1, E1, fm([1, 0]), ((low, high), (high, low)), inst_trivial_si)


class TestBuildersValidateOnTheTable:
    """Each builder checks its factor against the member table, so a wrong
    table entry on the checked product is reported as an internal error."""

    @staticmethod
    def _fresh():
        return Instance(Partition.of([[0, 1], [2, 3]]), IndexSemigroup.full(2))

    @staticmethod
    def _spoil(inst, a, b):
        table = inst.derived.table
        table[a, b] = (table[a, b] + 1) % len(table)

    def test_left_factor(self):
        inst = self._fresh()
        swap = fm([1, 0])
        h = build_left_factor(E1, E3, swap, inst)
        index = inst.derived.index
        self._spoil(inst, index[h.images], index[E3.images])
        with pytest.raises(InternalError, match="left factor"):
            build_left_factor(E1, E3, swap, inst)

    def test_right_factor(self):
        inst = self._fresh()
        h = build_right_factor(E1, E2, FiniteMap.identity(2), inst)
        index = inst.derived.index
        self._spoil(inst, index[E2.images], index[h.images])
        with pytest.raises(InternalError, match="right factor"):
            build_right_factor(E1, E2, FiniteMap.identity(2), inst)

    def test_j_factors(self):
        inst = self._fresh()
        dom = sorted(set(F1.images))
        phi = FiniteMap(len(dom), 4, tuple(dom))
        ident2 = FiniteMap.identity(2)
        h1, h2 = build_j_factors(F1, F1, ident2, ident2, phi, inst)
        index, table = inst.derived.index, inst.derived.table
        self._spoil(inst, table[index[h1.images], index[F1.images]], index[h2.images])
        with pytest.raises(InternalError, match="J factor"):
            build_j_factors(F1, F1, ident2, ident2, phi, inst)

    def test_j_quotient_without_factors(self):
        """The J oracles take their verdicts from the class quotient; a
        quotient that puts the identity J-below a constant, where no factor
        scan can reach it, is reported as an internal error, not as
        "not below"."""
        inst = self._fresh()
        ident = FiniteMap.identity(4)
        assert principal_leq_oracle("J", ident, CONST, inst) is None
        data = _greens_data(inst)
        data.j_below = np.ones_like(data.j_below)
        with pytest.raises(InternalError, match="no factors"):
            principal_leq_oracle("J", ident, CONST, inst)
        with pytest.raises(InternalError, match="no factors"):
            j_related(ident, CONST, inst, mode="oracle")

    def test_d_middle_of_the_theorem_route(self):
        """The D theorem search promises that its middle element is a member;
        one missing from the member index is an internal fault, not a
        precondition the caller broke."""
        inst = self._fresh()
        f, g = fm([0, 0, 0, 1]), fm([0, 1, 1, 1])
        assert d_related(f, g, inst, mode="theorem") is not None
        del inst.derived.index[(1, 0, 0, 0)]
        with pytest.raises(InternalError, match="middle element .* fails validation"):
            d_related(f, g, inst, mode="theorem")

    @staticmethod
    def _no_r_divisor(data, g, middle):
        """chi(g) left with no right divisor reaching the middle's character."""
        cg, cm = (data.char_ids[data.index[t]] for t in (g.images, middle))
        data.si_facts.right[cg * data.si_facts.size + cm] = ()

    @staticmethod
    def _middle_kernel(data, g, middle):
        """The middle's kernel classes in the members' geometry spoiled to one
        class; the member index, through which the checkers look up the
        pair, is left alone."""
        data.geometry.kernels[data.index[middle]] = ((0, 1, 2),)

    @pytest.mark.parametrize("spoil,message", [
        ("_no_r_divisor", "R-divisibility promised by the search but not found"),
        ("_middle_kernel", r"the middle element \[0,1,1\] fails validation"),
    ])
    def test_d_theorem_route_checks_its_middle(self, spoil, message, monkeypatch):
        """Each raise site of the D theorem route, met by a spoil of the
        Green's data; the same spoil in a run is the fault of the pair's D
        theorem call in the entry's Green's sweep, and gives a failing
        greens-mode-agreement record, not an abort."""
        spoil = getattr(self, spoil)
        p = Partition.of([[0, 1], [2]])
        inst = Instance(p, IndexSemigroup.full(2))
        f, g, middle = fm([0, 1, 0]), fm([1, 0, 0]), (0, 1, 1)
        assert d_related(f, g, inst, mode="theorem").factor("middle").images == middle
        spoil(_greens_data(inst), g, middle)
        with pytest.raises(InternalError, match=message):
            d_related(f, g, inst, mode="theorem")

        real = greens._GreensData.__init__

        def spoiled(data, inst):
            real(data, inst)
            spoil(data, g, middle)

        monkeypatch.setattr(greens._GreensData, "__init__", spoiled)
        entry = harness.CatalogEntry(Instance(p, IndexSemigroup.full(2)), "n3:[0,1][2]", "full")
        catalog = harness.Catalog(3, 7, (entry,))
        [record] = run_all(catalog, ["greens-mode-agreement"]).records
        assert record.failures > 0
        sweep = harness._GreensSweep(entry, catalog)
        images = [m.images for m in sweep.members]
        k = sweep.pairs.tolist().index([images.index(f.images), images.index(g.images)])
        assert sweep.codes[k, sweep.relations.index("D"), 1] == harness._FAULT
        assert sweep.fault is not None


class TestJRelated:
    def test_reflexive(self, inst_full):
        for mode in ("oracle", "theorem"):
            w = j_related(F1, F1, inst_full, mode=mode)
            assert w is not None and verify_witness(w, F1, F1)

    def test_rank_obstruction(self, inst_full):
        ident = FiniteMap.identity(4)
        for mode in ("oracle", "theorem"):
            assert j_related(CONST, ident, inst_full, mode=mode) is None

    def test_idempotent_pair(self, inst_full):
        o = j_related(E1, E3, inst_full, mode="oracle")
        t = j_related(E1, E3, inst_full, mode="theorem")
        assert (o is None) == (t is None)
        if o is not None:
            assert verify_witness(o, E1, E3) and verify_witness(t, E1, E3)


class TestJOracleCap:
    """The J factor scans read one column and one row of the product table,
    so oracle mode takes no cap: ``cap`` bounds only the theorem searches."""

    def test_a_cap_of_one_leaves_the_oracle_witness(self):
        p = Partition.of([[0, 1], [2]])
        inst = Instance(p, IndexSemigroup.full(p.degree))
        f = fm([0, 0, 1])
        w = j_related(f, f, inst, mode="oracle")
        assert w is not None and verify_witness(w, f, f)
        assert j_related(f, f, inst, mode="oracle", cap=1) == w
        assert principal_leq_oracle("J", f, f, inst) == (w.factor("fg1"), w.factor("fg2"))
        assert "cap" not in inspect.signature(principal_leq_oracle).parameters
        with pytest.raises(ResourceLimitError):
            j_related(f, f, inst, mode="theorem", cap=1)
        const = fm([0, 0, 0])
        assert principal_leq_oracle("J", f, const, inst) is None
        assert j_related(f, const, inst, mode="oracle", cap=1) is None
        assert j_related(const, f, inst, mode="oracle", cap=1) is None

    @pytest.mark.parametrize("f,g", [
        ((1, 4, 2, 2, 1), (0, 0, 3, 2, 3)),
        ((0, 3, 4, 4, 0), (4, 4, 1, 3, 3)),
        ((4, 1, 4, 4, 0), (1, 1, 1, 0, 2)),
        ((1, 1, 2, 3, 3), (3, 1, 2, 3, 2)),
    ])
    def test_a_cap_of_one_leaves_the_t5_witness(self, f, g):
        """J-related rank-3 pairs of the one-block T_5 (3125 members), whose
        first h1 lies past 320: the search reads 2*N = 6250 table entries per
        direction, and a cap of 1 gives the default-cap witness."""
        inst = Instance(Partition.of([[0, 1, 2, 3, 4]]), IndexSemigroup.full(1))
        f, g = fm(list(f)), fm(list(g))
        assert len(enumerate_elements(inst)) == 3125
        w = j_related(f, g, inst, mode="oracle")
        assert w is not None and verify_witness(w, f, g)
        assert principal_leq_oracle("J", f, g, inst) == (w.factor("fg1"), w.factor("fg2"))
        assert j_related(f, g, inst, mode="oracle", cap=1) == w


class TestBuildJFactors:
    def test_inclusion_image_map(self, inst_full):
        dom = sorted(set(F1.images))
        phi = FiniteMap(len(dom), 4, tuple(dom))
        ident2 = FiniteMap.identity(2)
        h1, h2 = build_j_factors(F1, F1, ident2, ident2, phi, inst_full)
        assert compose(compose(h1, F1), h2) == F1

    def test_rejects_non_covering_phi(self, inst_full):
        dom = sorted(set(E1.images))
        phi = FiniteMap(len(dom), 4, (0, 0))
        ident2 = FiniteMap.identity(2)
        with pytest.raises(PreconditionError):
            build_j_factors(F1, E1, ident2, ident2, phi, inst_full)


FULL_N3 = [e.instance for e in build_catalog(3, seed=7).entries if e.si_label == "full"]


class TestWitnessMaps:
    """The maps ``witness_maps`` reads off a witness's factors are inputs
    the paper's constructions take back."""

    @pytest.mark.parametrize("inst", FULL_N3, ids=[repr(i.partition) for i in FULL_N3])
    def test_every_related_pair_of_the_n3_full_entries(self, inst):
        members, p = enumerate_elements(inst), inst.partition
        seen = Counter()
        for f, g in itertools.product(members, repeat=2):
            for rel, checker in greens_checkers().items():
                for mode in ("oracle", "theorem"):
                    w = checker(f, g, inst, mode=mode)
                    if w is None:
                        continue
                    seen[rel] += 1
                    maps, pairing, image_maps = witness_maps(w, f, g, p)
                    assert (pairing is None) == (rel != "D")
                    assert image_maps.keys() == ({"phi", "psi"} if rel == "J" else set())
                    if rel == "L":
                        factors = (("fg", build_left_factor(f, g, maps["alpha"], inst)),
                                   ("gf", build_left_factor(g, f, maps["beta"], inst)))
                    elif rel == "R":
                        factors = (("fg", build_right_factor(f, g, maps["beta_fg"], inst)),
                                   ("gf", build_right_factor(g, f, maps["beta_gf"], inst)))
                    elif rel == "D":
                        middle = build_d_middle(f, g, maps["gamma"], pairing, inst)
                        assert middle == w.factor("middle"), (rel, mode, f, g)
                        factors = (("middle", middle),
                                   ("l_fm", build_left_factor(f, middle, maps["alpha"], inst)),
                                   ("l_mf", build_left_factor(middle, f, maps["beta"], inst)),
                                   *((n, h) for n, h in w.factors if n.startswith("r_")))
                    else:
                        fg = build_j_factors(f, g, maps["alpha"], maps["beta"],
                                             image_maps["phi"], inst)
                        gf = build_j_factors(g, f, maps["gamma"], maps["delta"],
                                             image_maps["psi"], inst)
                        factors = tuple(zip(("fg1", "fg2", "gf1", "gf2"), (*fg, *gf)))
                    assert verify_witness(GreenWitness(rel, factors), f, g), (rel, mode, f, g)
        assert all(seen[rel] for rel in "LRDJ")

    def test_a_witness_that_does_not_replay_is_refused(self, inst_full):
        w = d_related(E1, E3, inst_full)
        p = inst_full.partition
        assert witness_maps(w, E1, E3, p)[1] is not None
        with pytest.raises(InvalidArgumentError, match="does not replay"):
            witness_maps(w, E1, E1, p)
        with pytest.raises(InvalidArgumentError, match="does not replay"):
            witness_maps(GreenWitness("J"), E1, E1, p)


@pytest.mark.parametrize(
    "blocks,size",
    [([[0, 1], [2, 3]], 64), ([[0, 1, 2], [3]], 112), ([[0, 1], [2], [3]], 96)],
    ids=["n4:[0,1][2,3]/full", "n4:[0,1,2][3]/full", "n4:[0,1][2][3]/full"],
)
def test_theorem_searches_agree_with_the_oracle_on_every_pair(blocks, size):
    """One-sided J and D by the structural search against the exact ≤_J
    matrix and the D relation of the product table, on every ordered pair."""
    p = Partition.of(blocks)
    data = _greens_data(Instance(p, IndexSemigroup.full(p.degree)))
    assert len(data.members) == size
    j_below, d_rel, _ = boolean_products(*preorders(data))
    cap = DEFAULT_PHI_CAP
    for a in range(size):
        for b in range(size):
            j_found = _j_one_sided_theorem(data, a, b, cap, [cap]) is not None
            assert j_found == bool(j_below[a, b]), (a, b)
            d_found = _d_theorem_search(data, a, b, cap, [cap]) is not None
            assert d_found == bool(d_rel[a, b]), (a, b)


class TestTxpSpecializations:
    def test_examples(self, inst_full, p22):
        assert txp_green("L", F1, F1, p22)
        assert txp_green("R", E1, E2, p22)
        assert not txp_green("J", CONST, FiniteMap.identity(4), p22)

    def test_agrees_with_generic_modes_exhaustively(self):
        p = Partition.of([[0, 1], [2]])
        inst = Instance(p, IndexSemigroup.full(2))
        members = enumerate_elements(inst)
        assert len(members) == 15
        for f in members:
            for g in members:
                for rel in ("L", "R", "D", "J"):
                    specialized = txp_green(rel, f, g, p)
                    oracle = {
                        "L": l_related, "R": r_related, "D": d_related, "J": j_related,
                    }[rel](f, g, inst, mode="oracle") is not None
                    assert specialized == oracle, (rel, f, g)

    def test_agrees_on_sampled_pairs_of_the_big_instance(self, inst_full):
        members = enumerate_elements(inst_full)
        rng = random.Random(11)
        checkers = {"L": l_related, "R": r_related, "D": d_related, "J": j_related}
        for _ in range(25):
            f = members[rng.randrange(len(members))]
            g = members[rng.randrange(len(members))]
            for rel, checker in checkers.items():
                specialized = txp_green(rel, f, g, inst_full.partition)
                assert specialized == (checker(f, g, inst_full, mode="oracle") is not None)
                assert specialized == (checker(f, g, inst_full, mode="theorem") is not None)

    def test_rejects_non_preserving(self, p22):
        with pytest.raises(InvalidArgumentError):
            txp_green("L", fm([2, 3, 3, 0]), E1, p22)


def _reference_txp_l_one_sided(f, g, p):
    fb = [{f.images[x] for x in b} for b in p.blocks]
    gb = [{g.images[x] for x in b} for b in p.blocks]
    return all(any(fb[i] <= gb[j] for j in range(p.degree)) for i in range(p.degree))


def _reference_txp_d_check(f, g, p):
    fc = kernel_partition(f).classes
    gc = kernel_partition(g).classes
    if len(fc) != len(gc):
        return False
    chi_f = character(f, p).images
    chi_g = character(g, p).images
    deg = p.degree
    target_image = sorted(set(chi_f))
    g_fibers = kernel_partition(FiniteMap(deg, deg, chi_g)).classes
    if len(g_fibers) != len(target_image):
        return False
    blocksets = [set(b) for b in p.blocks]
    f_meets = [{i for i in range(deg) if blocksets[i] & set(c)} for c in fc]
    g_meets = [{i for i in range(deg) if blocksets[i] & set(c)} for c in gc]
    f_here = [[k for k in range(len(fc)) if i in f_meets[k]] for i in range(deg)]
    g_here = [[k for k in range(len(gc)) if i in g_meets[k]] for i in range(deg)]
    for assigned in itertools.permutations(target_image):
        gamma = [0] * deg
        for fiber, value in zip(g_fibers, assigned):
            for i in fiber:
                gamma[i] = value
        for matching in itertools.permutations(range(len(gc))):
            inverse = {matching[k]: k for k in range(len(fc))}
            ok = True
            for i in range(deg):
                if not any(
                    gamma[j] == chi_f[i]
                    and all(j in g_meets[matching[k]] for k in f_here[i])
                    for j in range(deg)
                ):
                    ok = False
                    break
                if not any(
                    chi_f[k2] == gamma[i]
                    and all(k2 in f_meets[inverse[k]] for k in g_here[i])
                    for k2 in range(deg)
                ):
                    ok = False
                    break
            if ok:
                return True
    return False


def _reference_txp_j_one_sided(f, g, p):
    dom = sorted(set(g.images))
    hit_blocks = sorted({p.block_of(x) for x in dom})
    positions = {v: k for k, v in enumerate(dom)}
    fb = [{f.images[x] for x in b} for b in p.blocks]
    gb = [{g.images[x] for x in b} for b in p.blocks]
    for targets in itertools.product(range(p.degree), repeat=len(hit_blocks)):
        target_of = dict(zip(hit_blocks, targets))
        candidates = [p.blocks[target_of[p.block_of(z)]] for z in dom]
        for values in itertools.product(*candidates):
            covered = [{values[positions[v]] for v in gb[j]} for j in range(p.degree)]
            if all(any(fb[i] <= covered[j] for j in range(p.degree)) for i in range(p.degree)):
                return True
    return False


def _reference_txp_green(rel, f, g, p):
    """The T(X, P) criteria recomputed from the maps on every call."""
    assert preserves_partition(f, p) and preserves_partition(g, p)
    if rel == "L":
        return _reference_txp_l_one_sided(f, g, p) and _reference_txp_l_one_sided(g, f, p)
    if rel == "R":
        return (
            kernel_partition(character(f, p)) == kernel_partition(character(g, p))
            and kernel_partition(f) == kernel_partition(g)
        )
    if rel == "D":
        return _reference_txp_d_check(f, g, p)
    return _reference_txp_j_one_sided(f, g, p) and _reference_txp_j_one_sided(g, f, p)


def _assert_signature_route_matches_the_reference(p, members, pairs):
    geometry = _Geometry(
        [m.images for m in members], [character(m, p).images for m in members], p
    )
    facts = greens._Kept()  # one memo for every pair, as the harness keeps it
    for a, b in pairs:
        for rel in "LRDJ":
            expected = _reference_txp_green(rel, members[a], members[b], p)
            assert _txp_related(rel, geometry, a, b, facts) == expected, (
                rel, members[a], members[b])


class TestTxpSignatureRoute:
    """The geometry route against the map-based T(X, P) criteria it replaced."""

    def test_every_pair_of_the_full_n3_entries(self):
        entries = [e for e in build_catalog(3, seed=7).entries if e.si_label == "full"]
        assert len(entries) == 8
        for entry in entries:
            members = enumerate_elements(entry.instance)
            pairs = itertools.product(range(len(members)), repeat=2)
            _assert_signature_route_matches_the_reference(entry.instance.partition, members, pairs)

    @pytest.mark.parametrize("blocks", [[[0, 1], [2, 3]], [[0], [1], [2], [3]]],
                             ids=["n4:[0,1][2,3]/full", "n4:[0][1][2][3]/full"])
    def test_seeded_pairs_of_n4_entries(self, blocks):
        p = Partition.of(blocks)
        members = enumerate_elements(Instance(p, IndexSemigroup.full(p.degree)))
        rng = random.Random(f"txp:{blocks}")
        pairs = [(rng.randrange(len(members)), rng.randrange(len(members))) for _ in range(300)]
        _assert_signature_route_matches_the_reference(p, members, pairs)

    def test_a_signature_is_built_from_a_preserving_map_only(self, p22):
        for f, g in ((fm([2, 3, 3, 0]), E1), (E1, fm([2, 3, 3, 0]))):
            with pytest.raises(InvalidArgumentError, match="both maps must preserve the partition"):
                txp_green("L", f, g, p22)
        for f, g in ((fm([0, 1]), E1), (E1, fm([0, 1]))):
            with pytest.raises(InvalidArgumentError, match="does not act on"):
                txp_green("L", f, g, p22)

    def test_unknown_relation(self, p22):
        with pytest.raises(InvalidArgumentError, match="unknown relation"):
            txp_green("H", E1, E1, p22)


def _parent_txp_d_check(geometry, a, b):
    """The D test before the matchings were taken on class masks: kernel
    class indices, per-block class lists and an inverse matching."""
    f_chi, f_meets, g_meets = geometry.chars[a], geometry.meet_masks[a], geometry.meet_masks[b]
    g_fibers = geometry.char_kernels[b]
    count, deg = len(f_meets), geometry.p.degree
    target_image = sorted(set(f_chi))
    if count != len(g_meets) or len(g_fibers) != len(target_image):
        return False
    f_here = [[k for k in range(count) if f_meets[k] >> i & 1] for i in range(deg)]
    g_here = [[k for k in range(count) if g_meets[k] >> i & 1] for i in range(deg)]
    for assigned in itertools.permutations(target_image):
        gamma = [0] * deg
        for fiber, value in zip(g_fibers, assigned):
            for i in fiber:
                gamma[i] = value
        for matching in itertools.permutations(range(count)):
            inverse = {m: k for k, m in enumerate(matching)}
            if all(
                any(
                    gamma[j] == f_chi[i]
                    and all(g_meets[matching[k]] >> j & 1 for k in f_here[i])
                    for j in range(deg)
                )
                and any(
                    f_chi[j] == gamma[i]
                    and all(f_meets[inverse[k]] >> j & 1 for k in g_here[i])
                    for j in range(deg)
                )
                for i in range(deg)
            ):
                return True
    return False


def _parent_txp_j_one_sided(geometry, a, b):
    """The J test before g's covers were kept: every target assignment that
    reaches the blocks of im chi(f), and every point valuation, again for
    each pair and direction."""
    p = geometry.p
    dom_blocks, sources = geometry.j_geometry[b]
    if len(geometry.sorted_images[a]) > len(geometry.sorted_images[b]):
        return False
    hit_blocks = sorted(set(dom_blocks))
    needed = set(geometry.chars[a])
    f_blockimg = geometry.block_masks[a]
    for targets in itertools.product(range(p.degree), repeat=len(hit_blocks)):
        if not needed <= set(targets):
            continue
        target_of = dict(zip(hit_blocks, targets))
        candidates = [p.blocks[target_of[c]] for c in dom_blocks]
        for values in itertools.product(*candidates):
            covered = [sum(1 << values[k] for k in source) for source in sources]
            if all(any(fb & ~gb == 0 for gb in covered) for fb in f_blockimg):
                return True
    return False


def _parent_txp_related(rel, geometry, a, b):
    if rel == "L":
        bf, bg = geometry.block_masks[a], geometry.block_masks[b]
        return all(any(x & ~y == 0 for y in bg) for x in bf) and all(
            any(y & ~x == 0 for x in bf) for y in bg)
    if rel == "R":
        return (geometry.char_kernels[a] == geometry.char_kernels[b]
                and geometry.kernels[a] == geometry.kernels[b])
    if rel == "D":
        return _parent_txp_d_check(geometry, a, b)
    return _parent_txp_j_one_sided(geometry, a, b) and _parent_txp_j_one_sided(geometry, b, a)


class TestTxpCovers:
    """``_txp_related`` against the per-pair enumeration it replaced, with
    each map's J covers built at most once per geometry."""

    @staticmethod
    def _spy_on_covers(monkeypatch):
        built = Counter()
        real = greens._txp_j_covers

        def spy(geometry, b):
            built[(id(geometry), b)] += 1
            return real(geometry, b)

        monkeypatch.setattr(greens, "_txp_j_covers", spy)
        return built

    @staticmethod
    def _assert_matches_the_parent(geometry, pairs):
        facts = greens._Kept()
        for a, b in pairs:
            for rel in "LRDJ":
                assert _txp_related(rel, geometry, a, b, facts) == _parent_txp_related(
                    rel, geometry, a, b), (rel, geometry.images[a], geometry.images[b])

    def test_every_pair_of_the_full_n3_entries(self, monkeypatch):
        built = self._spy_on_covers(monkeypatch)
        entries = [e for e in build_catalog(3, seed=7).entries if e.si_label == "full"]
        assert len(entries) == 8
        for entry in entries:
            geometry = entry.instance.derived.geometry
            size = len(geometry.images)
            self._assert_matches_the_parent(geometry, itertools.product(range(size), repeat=2))
            # every member's covers are asked for, by the pair of it with itself
            assert {b for key, b in built if key == id(geometry)} == set(range(size))
        assert set(built.values()) == {1}

    @pytest.mark.parametrize("blocks", [[[0, 1], [2, 3]], [[0], [1], [2], [3]]],
                             ids=["n4:[0,1][2,3]/full", "n4:[0][1][2][3]/full"])
    def test_seeded_pairs_of_n4_entries(self, blocks, monkeypatch):
        built = self._spy_on_covers(monkeypatch)
        p = Partition.of(blocks)
        geometry = Instance(p, IndexSemigroup.full(p.degree)).derived.geometry
        size = len(geometry.images)
        rng = random.Random(f"txp-covers:{blocks}")
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(200)]
        self._assert_matches_the_parent(geometry, pairs)
        assert built and set(built.values()) == {1}


# The geometry lists each T(X, P) test reads of one map, the signatures the
# harness once grouped its T(X, P) pairs by.
TXP_READS = {
    "L": ("block_masks",),
    "R": ("char_kernels", "kernels"),
    "D": ("chars", "meet_masks"),
    "J": ("block_masks", "j_geometry"),
}


def test_theorem_keys_refine_the_txp_reads_on_the_full_n4_entries():
    """On every ``full`` entry up to n = 4, members with equal theorem keys
    have equal T(X, P) reads for each relation, so grouping the T(X, P) pairs
    by theorem keys gives each group one verdict; for L, D and J the two
    groupings are the same, R's keys split its signatures further."""
    entries = [e for e in build_catalog(4, seed=7).entries if e.si_label == "full"]
    assert len(entries) == 23
    split = 0
    for entry in entries:
        inst = entry.instance
        try:
            data = _greens_data(inst)
            for rel, names in TXP_READS.items():
                keys = data.theorem_keys[rel]
                reads = list(zip(*(getattr(data.geometry, name) for name in names)))
                assert all(reads[k] == reads[key] for k, key in enumerate(keys)), (entry.label, rel)
                first: dict = {}
                signatures = [first.setdefault(r, k) for k, r in enumerate(reads)]
                if rel == "R":
                    split += keys != signatures
                else:
                    assert keys == signatures, (entry.label, rel)
        finally:
            inst.drop_derived()
    assert split > 0


def _reference_least_lift(alpha, p, through, onto):
    """The least-preimage lift as a point loop: a scan of X_{alpha(i)} per
    point x of X_i, for the least y with through[y] == onto[x]."""
    images = [0] * p.n
    for i, block in enumerate(p.blocks):
        target = p.blocks[alpha[i]]
        for x in block:
            images[x] = next((y for y in target if through[y] == onto[x]), target[0])
    return tuple(images)


def _reference_right_factor(data, fk, gk, b):
    """``greens._right_factor`` with ``Partition.block_of`` per point."""
    p = data.partition
    f_imgs, g_imgs, beta = data.imgs[fk], data.imgs[gk], data.si_imgs[b]
    on_image = {g_imgs[y]: f_imgs[y] for y in reversed(range(p.n))}
    images = tuple(on_image.get(x, p.blocks[beta[p.block_of(x)]][0]) for x in range(p.n))
    return ensemble._built_member(data, "right factor", images, b,
                                  lambda hk: data.table[gk, hk] == fk)


def _reference_j_factors(data, fk, gk, a, b, phi):
    """``greens._j_factors`` with ``Partition.block_of`` per point and the
    point-loop lift."""
    p, table = data.partition, data.table
    beta = data.si_imgs[b]
    phi_at = dict(zip(data.geometry.sorted_images[gk], phi))
    h2_images = tuple(phi_at.get(x, p.blocks[beta[p.block_of(x)]][0]) for x in range(p.n))
    k2 = ensemble._built_member(data, "J factor", h2_images, b, lambda k: True)
    gphi = [phi_at[v] for v in data.imgs[gk]]
    h1_images = _reference_least_lift(data.si_imgs[a], p, gphi, data.imgs[fk])
    k1 = ensemble._built_member(data, "J factor", h1_images, a,
                                lambda k: table[table[k, gk], k2] == fk)
    return k1, k2


def _greatest_lift(alpha, p, through, onto):
    """A wrong lift for the tests to catch: the greatest preimage, not the least."""
    images = [0] * p.n
    for i, block in enumerate(p.blocks):
        target = p.blocks[alpha[i]]
        for x in block:
            images[x] = next((y for y in reversed(target) if through[y] == onto[x]), target[0])
    return tuple(images)


def _built_or_message(call):
    try:
        return call()
    except InternalError as exc:
        return str(exc)


def _build_outcomes(inst, pairs):
    """What the builders give on ``inst``: per relation and pair of member
    positions in ``pairs`` ({rel: pairs the relation holds on}), the theorem
    build of what the search found, then the left, right and J factor
    builders on seeded index positions and phi values, which mostly fail
    their validation (an ``InternalError`` message, which names the images
    built); and ``build_inner_inverse`` on every member and each of its
    regular witnesses."""
    data, rng = _greens_data(inst), random.Random(5)
    n, si_size = inst.partition.n, len(data.si_imgs)
    outcomes = []
    for rel, rel_pairs in pairs.items():
        for fk, gk in rel_pairs:
            found = greens._search(data, rel, fk, gk, DEFAULT_PHI_CAP, greens._UNKEPT)
            assert found is not None, (rel, fk, gk)
            a, b = rng.randrange(si_size), rng.randrange(si_size)
            phi = tuple(rng.randrange(n) for _ in data.geometry.sorted_images[gk])
            outcomes += [_built_or_message(call) for call in (
                lambda: greens._build(data, rel, fk, gk, found, greens._UNKEPT),
                lambda: greens._left_factor(data, fk, gk, a),
                lambda: greens._right_factor(data, fk, gk, b),
                lambda: greens._j_factors(data, fk, gk, a, b, phi),
            )]
    for f in data.members:
        outcomes += [build_inner_inverse(f, alpha, inst).images
                     for alpha in regular_character_witnesses(f, inst)]
    return outcomes


def _build_mismatches(inst, pairs, monkeypatch):
    """The places of ``_build_outcomes``' calls where the builders differ
    from the point loops they replaced, in positions or in the failure
    message, and the number of calls that failed."""
    built = _build_outcomes(inst, pairs)
    with monkeypatch.context() as loops:
        loops.setattr(greens, "_least_lift", _reference_least_lift)
        loops.setattr(regularity, "_least_lift", _reference_least_lift)
        loops.setattr(greens, "_right_factor", _reference_right_factor)
        loops.setattr(greens, "_j_factors", _reference_j_factors)
        expected = _build_outcomes(inst, pairs)
    assert len(built) == len(expected)
    return ([k for k, (x, y) in enumerate(zip(built, expected)) if x != y],
            sum(isinstance(x, str) for x in built))


def _related_pairs(inst, rel):
    """Every pair of member positions that ``rel`` relates."""
    size = len(enumerate_elements(inst))
    return [(fk, gk) for fk in range(size) for gk in range(size)
            if greens._quotient_related(_greens_data(inst), rel, fk, gk)]


def _sampled_related_pairs(inst, rel, count, seed):
    """``count`` seeded pairs that ``rel`` relates: f drawn from every
    member, g from f's class (its D-class for D and J)."""
    data, rng = _greens_data(inst), random.Random(seed)
    r_of, l_of = data.classes[:2]
    label = {"L": l_of, "R": r_of, "D": data.d_label, "J": data.d_label}[rel].tolist()
    classes = {}
    for k, c in enumerate(label):
        classes.setdefault(c, []).append(k)
    pairs = []
    for _ in range(count):
        fk = rng.randrange(len(label))
        pairs.append((fk, rng.choice(classes[label[fk]])))
    return pairs


BUILDER_N3 = [
    (e.label, e.instance) for e in build_catalog(3, seed=7).entries if e.instance.si.has_identity
]
QUERY_MIX = {"n4:[0][1][2][3]/full": [[0], [1], [2], [3]], "n4:[0,1,2,3]/full": [[0, 1, 2, 3]],
             "n5:[0,1][2,3][4]/full": [[0, 1], [2, 3], [4]]}


class TestBuildersAgainstThePointLoops:
    """The least-preimage lift, the right factor and the J factors against
    the point loops they replaced (``_reference_*``), as built positions and
    as the message of each build that fails."""

    @pytest.mark.parametrize("label,inst", BUILDER_N3, ids=[label for label, _ in BUILDER_N3])
    def test_every_related_pair_of_the_n3_identity_entries(self, label, inst, monkeypatch):
        pairs = {rel: _related_pairs(inst, rel) for rel in "LRDJ"}
        assert _build_mismatches(inst, pairs, monkeypatch)[0] == []

    @pytest.mark.parametrize("label", QUERY_MIX)
    def test_sampled_related_pairs_of_the_query_mix_instances(self, label, monkeypatch):
        inst = _full_instance(QUERY_MIX[label])
        pairs = {rel: _sampled_related_pairs(inst, rel, 300, 9) for rel in "LRDJ"}
        mismatches, failed = _build_mismatches(inst, pairs, monkeypatch)
        # the seeded index positions fail most builds, whose messages are compared
        assert mismatches == [] and failed > 0

    def test_a_greatest_preimage_lift_fails(self, monkeypatch):
        """Blocks of two points give each lift a choice, so the greatest
        preimage builds other members than the least."""
        inst = _full_instance(QUERY_MIX["n5:[0,1][2,3][4]/full"])
        pairs = {rel: _sampled_related_pairs(inst, rel, 30, 9) for rel in "LJ"}
        monkeypatch.setattr(greens, "_least_lift", _greatest_lift)
        monkeypatch.setattr(regularity, "_least_lift", _greatest_lift)
        assert _build_mismatches(inst, pairs, monkeypatch)[0] != []


GEOMETRY_LISTS = ("block_masks", "kernels", "meet_masks", "sorted_images", "j_geometry",
                  "block_fits")


class _Unread:
    """A geometry list that the search under test must not read: every read
    raises."""

    def _read(self, *args):
        raise AssertionError("a theorem search read outside its key")

    __getitem__ = __iter__ = __len__ = __eq__ = __hash__ = _read


# what the searches may read of the Green's data besides the geometry: the
# partition, the characters and the index semigroup
_SEARCH_READS = {"partition", "char_ids", "si_imgs", "si_table",
                 "si_l_ideals", "si_r_ideals", "si_facts"}


def _spoiled(data, rel):
    """A copy of the Green's data with every per-member list outside the
    theorem key of ``rel`` (``greens._THEOREM_READS`` and the characters)
    replaced by ``_Unread``."""
    spoiled = copy.copy(data)
    for name in vars(data):
        if name not in _SEARCH_READS:
            setattr(spoiled, name, _Unread())
    geometry = data.geometry
    lists = {name: getattr(geometry, name) if name in greens._THEOREM_READS[rel] else _Unread()
             for name in ("images", "chars", "char_kernels", *GEOMETRY_LISTS)}
    spoiled.geometry = types.SimpleNamespace(p=geometry.p, **lists)
    return spoiled


def _theorem_search(data, rel, fk, gk):
    """What the theorem route of ``rel`` decides its verdict on: the search
    in both directions (one for D) and the budget left, or "capped"."""
    cap = DEFAULT_PHI_CAP
    budget = [cap]
    try:
        if rel == "D":
            return _d_theorem_search(data, fk, gk, cap, budget)
        if rel == "R" and data.geometry.kernels[fk] != data.geometry.kernels[gk]:
            return None
        search = {"L": greens._l_one_sided_theorem, "R": greens._r_one_sided_theorem,
                  "J": _j_one_sided_theorem}[rel]
        return search(data, fk, gk, cap, budget), search(data, gk, fk, cap, budget), budget
    except ResourceLimitError:
        return "capped"


class TestTheoremReads:
    """Each theorem search reads of the members only its key: the character
    and the geometry lists ``greens._THEOREM_READS`` names."""

    @staticmethod
    def _assert_unspoiled_results(inst, pairs):
        data = _greens_data(inst)
        for rel in "LRDJ":
            spoiled = _spoiled(data, rel)
            for fk, gk in pairs:
                expected = _theorem_search(data, rel, fk, gk)
                assert _theorem_search(spoiled, rel, fk, gk) == expected, (rel, fk, gk)

    def test_every_pair_of_the_n3_identity_entries(self):
        for entry in build_catalog(3, seed=7).entries:
            if entry.instance.si.has_identity:
                size = len(enumerate_elements(entry.instance))
                pairs = itertools.product(range(size), repeat=2)
                self._assert_unspoiled_results(entry.instance, list(pairs))

    @pytest.mark.parametrize("blocks", [[[0, 1], [2, 3]], [[0], [1], [2], [3]]],
                             ids=["n4:[0,1][2,3]/full", "n4:[0][1][2][3]/full"])
    def test_seeded_pairs_of_n4_entries(self, blocks):
        inst = _full_instance(blocks)
        size = len(enumerate_elements(inst))
        rng = random.Random(f"theorem-reads:{blocks}")
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(300)]
        self._assert_unspoiled_results(inst, pairs)

    @pytest.mark.parametrize("max_n,seed", [(3, 7), (3, 11), (4, 7)])
    def test_the_keys_equal_a_direct_recomputation(self, max_n, seed):
        """Each relation's theorem keys equal per member the first member
        with its character and the geometry lists ``greens._THEOREM_READS``
        names, on every identity entry."""
        for entry in build_catalog(max_n, seed=seed).entries:
            inst = entry.instance
            if not inst.si.has_identity:
                continue
            try:
                data = _greens_data(inst)
                expected = {}
                for rel, names in greens._THEOREM_READS.items():
                    reads, first = [getattr(data.geometry, name) for name in names], {}
                    expected[rel] = [first.setdefault((c, *(r[k] for r in reads)), k)
                                     for k, c in enumerate(data.char_ids)]
                assert data.theorem_keys == expected, entry.label
            finally:
                inst.drop_derived()

    def test_the_spoil_is_seen(self):
        """A search that reads outside its key raises on the spoiled data."""
        data = _greens_data(_full_instance([[0, 1], [2, 3]]))
        with pytest.raises(AssertionError, match="outside its key"):
            _theorem_search(_spoiled(data, "L"), "R", 0, 0)

    def test_kernel_refinement_matches_the_image_test(self, inst_full):
        """pi(g) refines pi(f) on kernel classes, ``build_right_factor``'s
        precondition by ``refines``, exactly when the pairs (xg, xf) number
        |im g|; the builder refuses every pair it does not refine."""
        data = _greens_data(inst_full)
        identity = FiniteMap.identity(inst_full.partition.degree)
        size = len(data.members)
        refined = 0
        for gk, fk in itertools.product(range(size), repeat=2):
            g, f = data.members[gk], data.members[fk]
            by_images = len(set(zip(g.images, f.images))) == len(set(g.images))
            assert refines(kernel_partition(g), kernel_partition(f)) == by_images
            refined += by_images
            if not by_images and data.char_ids[gk] == data.char_ids[fk]:
                with pytest.raises(PreconditionError, match="does not witness the R-inequality"):
                    build_right_factor(f, g, identity, inst_full)
        assert 0 < refined < size * size


class TestFullTxGreen:
    def test_examples(self):
        assert full_tx_green("L", fm([0, 0, 2, 2]), fm([2, 2, 0, 0]))
        assert full_tx_green("R", F1, F1)
        assert full_tx_green("J", fm([0, 0, 0, 0]), fm([1, 1, 1, 1]))

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            full_tx_green("L", fm([0, 1]), fm([0, 1, 2]))

    def test_matches_oracles_on_the_full_transformation_semigroup(self):
        p = Partition.of([[0, 1, 2]])
        inst = Instance(p, IndexSemigroup.trivial(1))
        members = enumerate_elements(inst)
        assert len(members) == 27
        checkers = {"L": l_related, "R": r_related, "D": d_related, "J": j_related}
        for f in members:
            for g in members:
                for rel, checker in checkers.items():
                    expected = full_tx_green(rel, f, g)
                    assert (checker(f, g, inst, mode="oracle") is not None) == expected
        # D and J coincide on the one-block case
        for f in members:
            for g in members:
                assert (d_related(f, g, inst, mode="oracle") is not None) == (
                    j_related(f, g, inst, mode="oracle") is not None
                )


def test_no_default_cap_fires_on_the_one_block_t5_in_theorem_mode():
    """T_5 (3125 members), 100 seeded pairs, half of them of equal rank:
    every theorem-mode verdict at the default cap, none capped, agrees with
    the one-block specialization."""
    inst = Instance(Partition.of([[0, 1, 2, 3, 4]]), IndexSemigroup.full(1))
    members = enumerate_elements(inst)
    assert len(members) == 3125
    by_rank = {}
    for k, f in enumerate(members):
        by_rank.setdefault(len(set(f.images)), []).append(k)
    rng = random.Random(5)
    related = Counter()
    for draw in range(100):
        f = members[rng.randrange(len(members))]
        g = members[rng.choice(by_rank[len(set(f.images))])] if draw % 2 else members[
            rng.randrange(len(members))]
        for rel, checker in greens_checkers().items():
            verdict = checker(f, g, inst, mode="theorem") is not None  # raises if capped
            assert verdict == full_tx_green(rel, f, g), (rel, f, g)
            related[rel] += verdict
    assert related["J"] == related["D"] >= 50 and related["L"] > 0 and related["R"] > 0


def _row_by_row_labels(below):
    """``_class_labels`` as it was on N×N preorders: one row and one strided
    column per element."""
    return [int(np.argmax(below[k] & below[:, k])) for k in range(len(below))]


# generators of T_3: a transposition, a 3-cycle and a map of rank 2
T3_GENERATORS = ((1, 0, 2), (1, 2, 0), (0, 0, 2))


@pytest.mark.parametrize("size", [1, 2, 37, 101, 250])
def test_blocked_class_labels_match_the_row_by_row_labels(size, monkeypatch):
    """Random preorders (reflexive-transitive closures of sparse random
    relations), packed as principal ideals; equal down-sets are equivalence
    in any preorder.  The labels must not depend on the row budget, here
    ones that do not divide the size.  The blocked build is ``_ideals``: a
    monoid's table (T_3, then left zeros) packed a block of 1, 3, 16 and
    size + 5 rows at a time gives the bytes and the labels of the default
    budget's build."""
    rng = np.random.default_rng(size)
    below = rng.random((size, size)) < 2.0 / size
    below |= np.eye(size, dtype=bool)
    while True:
        closed = (below.astype(np.float32) @ below.astype(np.float32)) > 0
        if np.array_equal(closed, below):
            break
        below = closed
    expected = _row_by_row_labels(below)
    assert len(set(expected)) > 1 or size < 3
    assert _class_labels(pack_below(below)) == expected
    table = monoid_table(size, T3_GENERATORS, rng.permutation(size))
    packed = [greens._ideals(table), greens._ideals(table.T)]
    labels = [_row_by_row_labels(unpack_below(ideals)) for ideals in packed]
    assert [_class_labels(ideals) for ideals in packed] == labels
    assert len(set(labels[0])) > 1 or size < 3
    for rows in (1, 3, 16, size + 5):
        # a row of the build takes 10 bytes a member of temporaries
        monkeypatch.setattr(ensemble, "ROW_BLOCK_BYTES", rows * 10 * size)
        assert _class_labels(pack_below(below)) == expected
        blocked = [greens._ideals(table), greens._ideals(table.T)]
        assert [ideals.tobytes() for ideals in blocked] == [ideals.tobytes() for ideals in packed]
        assert [_class_labels(ideals) for ideals in blocked] == labels


class TestWitnessPlumbing:
    def test_verify_witness_rejects_wrong_factors(self):
        bogus = GreenWitness(relation="L", factors=(("fg", fm([0, 1, 2, 3])),
                                                    ("gf", fm([0, 1, 2, 3]))))
        assert not verify_witness(bogus, E1, E2)
        missing = GreenWitness(relation="L")
        assert not verify_witness(missing, E1, E1)

    def test_unknown_relation(self):
        with pytest.raises(InvalidArgumentError):
            verify_witness(GreenWitness(relation="X"), E1, E1)

    def test_a_size_mismatch_raises(self):
        short = GreenWitness(relation="L", factors=(("fg", FiniteMap.identity(3)),
                                                    ("gf", FiniteMap.identity(4))))
        with pytest.raises(InvalidArgumentError, match="cannot compose"):
            verify_witness(short, E1, E1)

    def test_a_missing_factor_fails(self, inst_full):
        for rel, checker in greens_checkers().items():
            w = checker(F1, F1, inst_full, mode="oracle")
            assert verify_witness(w, F1, F1)
            for name, _ in w.factors:
                kept = tuple((n, h) for n, h in w.factors if n != name)
                assert not verify_witness(dataclasses.replace(w, factors=kept), F1, F1)

    def test_agrees_with_composing_maps_on_tampered_witnesses(self, inst_full):
        """Every witness of both modes on seeded pairs, and its tamperings:
        each factor moved to the next member, given one more domain or
        codomain point, or swapped with the next factor.  ``verify_witness`` gives
        what composing the maps gives, an error included."""
        members = enumerate_elements(inst_full)
        rng = random.Random(8)
        seen = Counter()
        for _ in range(60):
            f, g = rng.choice(members), rng.choice(members)
            for rel, checker in greens_checkers().items():
                for mode in ("oracle", "theorem"):
                    w = checker(f, g, inst_full, mode=mode)
                    if w is None:
                        continue
                    for tampered in _tamperings(w, members):
                        expected = _outcome_of(lambda: _compose_replay(tampered, f, g))
                        assert _outcome_of(lambda: verify_witness(tampered, f, g)) == expected
                        seen[rel, expected] += 1
        for rel in "LRDJ":
            assert seen[rel, True] and seen[rel, False] and seen[rel, "InvalidArgumentError"]


def _sweep_replays(monkeypatch, catalog):
    """Every bulk replay of a witness-replay run over ``catalog``: per call,
    its relation, image array, rows of positions and verdicts."""
    calls, real = [], greens._replay_rows

    def spy(rel, images, rows):
        replays = real(rel, images, rows)
        calls.append((rel, images, rows.copy(), replays))
        return replays

    monkeypatch.setattr(greens, "_replay_rows", spy)
    assert run_all(catalog, ["greens-witness-replay"]).failures == 0
    monkeypatch.undo()
    return calls


def _verify_row(rel, images, row):
    """``verify_witness`` on the witness that a row (f, g, *factors) of
    member positions names; a factor at a position outside the members is
    left out, as no member is there."""
    size, n = images.shape
    maps = [FiniteMap(n, n, tuple(images[k].tolist())) if 0 <= k < size else None for k in row]
    factors = tuple((name, h) for name, h in zip(greens._FACTORS[rel], maps[2:]) if h is not None)
    return verify_witness(GreenWitness(rel, factors), maps[0], maps[1])


def _tampered_rows(rows, size):
    """Per row (f, g, *factors): each factor moved to the next member, each
    factor swapped with the next one, and (apart) the first factor at -1 and
    the last at ``size``, positions outside the members."""
    moved, swapped = [], []
    for k in range(2, rows.shape[1]):
        moved.append(rows.copy())
        moved[-1][:, k] = (rows[:, k] + 1) % size
        if k + 1 < rows.shape[1]:
            swapped.append(rows.copy())
            swapped[-1][:, [k, k + 1]] = rows[:, [k + 1, k]]
    outside = [rows.copy(), rows.copy()]
    outside[0][:, 2], outside[1][:, -1] = -1, size
    return np.concatenate(moved + swapped), np.concatenate(outside)


class TestBulkReplay:
    """The sweep's bulk replay (``greens._replay_rows``) against the public
    replay, ``verify_witness``, row by row."""

    def test_agrees_with_verify_witness_on_every_sweep_witness(self, monkeypatch):
        """Every witness row of the max_n 3 sweeps replays both ways, and so
        does every tampered row the same way: a factor moved to the next
        member or swapped with the next factor fails or replays alike, and
        a position outside the members fails both ways (NumPy would read -1
        as the last member)."""
        calls = _sweep_replays(monkeypatch, build_catalog(3, seed=7))
        assert {rel for rel, *_ in calls} == set("LRDJ")
        seen = Counter()
        for rel, images, rows, replays in calls:
            assert replays.all() and all(_verify_row(rel, images, row) for row in rows.tolist())
            tampered, outside = _tampered_rows(rows, len(images))
            bulk = greens._replay_rows(rel, images, tampered)
            assert bulk.tolist() == [_verify_row(rel, images, row) for row in tampered.tolist()]
            seen[rel, "fails"] += int(np.count_nonzero(~bulk))
            seen[rel, "replays"] += int(np.count_nonzero(bulk))
            assert not greens._replay_rows(rel, images, outside).any()
            assert not any(_verify_row(rel, images, row) for row in outside.tolist())
        for rel in "LRDJ":
            assert seen[rel, "fails"] > seen[rel, "replays"], rel

    def test_one_replay_per_relation_and_mode_with_found_witnesses(self, monkeypatch):
        """Each sweep replays once per (relation, mode) that found a witness,
        all of that column's witnesses in one call."""
        calls = Counter()
        real = greens._replay_rows
        codes = []
        real_codes = harness._GreensSweep.codes.func

        def spy(rel, images, rows):
            calls[len(codes), rel] += 1
            return real(rel, images, rows)

        def counted(sweep):
            codes.append(real_codes(sweep))
            return codes[-1]

        prop = functools.cached_property(counted)
        prop.__set_name__(harness._GreensSweep, "codes")
        monkeypatch.setattr(harness._GreensSweep, "codes", prop)
        monkeypatch.setattr(greens, "_replay_rows", spy)
        assert run_all(build_catalog(3, seed=7), ["greens-witness-replay"]).failures == 0
        expected = Counter()
        for k, sweep_codes in enumerate(codes):
            # the (relation, mode) columns with a witness found, replaying or not
            found = np.isin(sweep_codes, (harness._REPLAYS, harness._FAILS_REPLAY)).any(axis=0)
            for r, rel in enumerate(harness._GreensSweep.relations):
                expected[k, rel] += int(found[r].sum())
        assert calls == +expected and len(codes) == 33


def bulk_oracle_mismatches(catalog):
    """The bulk oracle (``greens._oracle_rows``) on the pairs of every sweep
    of ``catalog`` and each relation, against the public oracle checker on
    each pair: the related pairs, and each pair where the row's positions
    (f, g, *factors) differ from those of the checker's witness (None where
    either is unrelated), as (entry label, relation, f, g)."""
    related, mismatches = 0, []
    for entry in catalog.entries:
        inst = entry.instance
        if not inst.si.has_identity:
            continue
        data, pairs = _greens_data(inst), harness._GreensSweep(entry, catalog).pairs
        for rel, checker in greens_checkers().items():
            rows, capped, faults = greens._oracle_rows(data, rel, pairs)
            assert len(capped) == 0 and faults == []
            found = {k: row for k, *row in rows.tolist()}
            for k, (a, b) in enumerate(pairs.tolist()):
                w = checker(data.members[a], data.members[b], inst, mode="oracle")
                related += w is not None
                expected = w and [a, b, *(data.index[h.images] for _, h in w.factors)]
                if found.get(k) != expected:
                    mismatches.append((entry.label, rel, a, b))
        inst.drop_derived()
    return related, mismatches


class TestBulkOracle:
    """The sweep's bulk oracle (``greens._oracle_rows``) against the public
    per-pair oracle checkers, the reference."""

    @pytest.mark.parametrize("max_n,seed", [(3, 7), (3, 11), (4, 7)])
    def test_rows_equal_the_public_checkers_witnesses(self, max_n, seed):
        """On every pair of the sweeps of the catalog, sampled entries
        included (max_n 4 has some), the bulk oracle finds a row exactly
        where the checker finds a witness, with the same factors."""
        catalog = build_catalog(max_n, seed=seed)
        sampled = sum(len(enumerate_elements(e.instance)) > harness.EXHAUSTIVE_PAIR_LIMIT
                      for e in catalog.entries if e.instance.si.has_identity)
        related, mismatches = bulk_oracle_mismatches(catalog)
        assert related > 0 and mismatches == []
        assert (sampled > 0) == (max_n == 4)

    def test_a_j_quotient_without_factors_is_a_fault_at_its_pair(self):
        """The quotient spoiled to put every class J-below every other: each
        pair with no factors is a fault, with the message of the per-pair
        scan, and no row; the other pairs keep the checker's rows."""
        inst = Instance(Partition.of([[0, 1], [2, 3]]), IndexSemigroup.full(2))
        data = _greens_data(inst)
        size = len(data.members)
        pairs = np.indices((size, size)).reshape(2, -1).T
        data.j_below = np.ones_like(data.j_below)
        rows, _, faults = greens._oracle_rows(data, "J", pairs)
        assert faults and not set(rows[:, 0].tolist()) & {k for k, _ in faults}
        assert len(rows) + len(faults) == len(pairs)
        for k, message in faults[:20]:
            f, g = (data.members[x] for x in pairs[k].tolist())
            with pytest.raises(InternalError) as raised:
                j_related(f, g, inst, mode="oracle")
            assert str(raised.value) == message
        for k, *row in rows[:20].tolist():
            f, g = (data.members[x] for x in pairs[k].tolist())
            w = j_related(f, g, inst, mode="oracle")
            assert row == [*pairs[k].tolist(), *(data.index[h.images] for _, h in w.factors)]

    def test_the_public_j_oracle_scans_only_pairs_the_quotient_relates(self, monkeypatch):
        """On every ordered pair of the 64-member instance over two blocks of
        two, the public J oracle checker makes no ``_first_factor`` scan
        unless the class quotient puts the pair J-below both ways, and then
        one scan each way; pairs J-below one way only occur."""
        inst = Instance(Partition.of([[0, 1], [2, 3]]), IndexSemigroup.full(2))
        data = _greens_data(inst)
        r_of, l_of = data.classes[:2]
        scans, real = [], greens._first_factor

        def scan(data, rel, fk, gk):
            scans.append((rel, fk, gk))
            return real(data, rel, fk, gk)

        monkeypatch.setattr(greens, "_first_factor", scan)
        one_way = 0
        for fk, gk in itertools.product(range(len(data.members)), repeat=2):
            below = data.j_below[r_of[fk]][l_of[gk]], data.j_below[r_of[gk]][l_of[fk]]
            one_way += below[0] != below[1]
            scans.clear()
            w = j_related(data.members[fk], data.members[gk], inst, mode="oracle")
            assert (w is not None) == all(below)
            assert scans == ([("J", fk, gk), ("J", gk, fk)] if all(below) else [])
        assert one_way > 0

    def test_temporaries_stay_within_one_row_block(self):
        """On the 256-member T_4 entry, every ordered pair (the exhaustive
        max_n 4 step's largest entry), each relation's bulk oracle allocates
        at its peak no more than ``ROW_BLOCK_BYTES`` besides its output
        rows, the quotient built beforehand."""
        inst = Instance(Partition.of([[0, 1, 2, 3]]), IndexSemigroup.full(1))
        data = _greens_data(inst)
        size = len(data.members)
        assert size == 256
        assert data.classes and data.j_below.any()  # built before the trace
        pairs = np.indices((size, size)).reshape(2, -1).T
        for rel in "LRDJ":
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                rows, _, _ = greens._oracle_rows(data, rel, pairs)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert len(rows) > size, rel
            assert peak <= ensemble.ROW_BLOCK_BYTES + rows.nbytes, (rel, peak, rows.nbytes)


# The factor equations, written out apart from the library's: (product, target).
_REPLAY_EQUATIONS = {
    "L": [(["fg", "g"], "f"), (["gf", "f"], "g")],
    "R": [(["g", "fg"], "f"), (["f", "gf"], "g")],
    "D": [(["l_fm", "middle"], "f"), (["l_mf", "f"], "middle"),
          (["g", "r_mg"], "middle"), (["middle", "r_gm"], "g")],
    "J": [(["fg1", "g", "fg2"], "f"), (["gf1", "f", "gf2"], "g")],
}


def _compose_replay(w, f, g):
    """``verify_witness`` as it composed ``FiniteMap``s."""
    maps = {**dict(w.factors), "f": f, "g": g}
    for names, target in _REPLAY_EQUATIONS[w.relation]:
        composite = maps[names[0]]
        for name in names[1:]:
            composite = compose(composite, maps[name])
        if composite != maps[target]:
            return False
    return True


def _tamperings(w, members):
    """The witness itself, then each factor moved to the next member, given
    one more domain or codomain point, or swapped with the next factor."""
    yield w
    factors = list(w.factors)
    for k, (name, h) in enumerate(factors):
        moved = members[(members.index(h) + 1) % len(members)]
        longer = FiniteMap(h.domain_size + 1, h.codomain_size, h.images + (0,))
        wider = FiniteMap(h.domain_size, h.codomain_size + 1, h.images)
        swapped = factors[(k + 1) % len(factors)][1]
        for other in (moved, longer, wider, swapped):
            yield dataclasses.replace(
                w, factors=tuple((n, other if n == name else m) for n, m in factors)
            )


def _outcome_of(call):
    try:
        return call()
    except InvalidArgumentError:
        return "InvalidArgumentError"


def _union_find_eggbox(data):
    """``eggbox`` as it grouped D-classes before ``d_label``: a union-find
    joining members that share an L- or an R-class, with the class labels
    read off the preorders."""
    size = len(data.members)
    l_below, r_below = preorders(data)
    l_eq, r_eq = l_below & l_below.T, r_below & r_below.T
    l_label = [int(np.argmax(l_eq[k])) for k in range(size)]
    r_label = [int(np.argmax(r_eq[k])) for k in range(size)]
    parent = list(range(size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    by_l, by_r = {}, {}
    for k in range(size):
        if l_label[k] in by_l:
            union(k, by_l[l_label[k]])
        else:
            by_l[l_label[k]] = k
        if r_label[k] in by_r:
            union(k, by_r[r_label[k]])
        else:
            by_r[r_label[k]] = k
    d_members = {}
    for k in range(size):
        d_members.setdefault(find(k), []).append(k)
    boxes = []
    for root in sorted(d_members):
        ks = d_members[root]
        rows = sorted({r_label[k] for k in ks})
        cols = sorted({l_label[k] for k in ks})
        grid = [
            [[k for k in ks if r_label[k] == row and l_label[k] == col] for col in cols]
            for row in rows
        ]
        boxes.append({"representative": root, "r_classes": rows, "l_classes": cols,
                      "grid": grid})
    return boxes


def _full_instance(blocks):
    p = Partition.of(blocks)
    return Instance(p, IndexSemigroup.full(p.degree))


EGGBOX_INSTANCES = [
    (e.label, e.instance) for e in build_catalog(3, seed=7).entries if e.instance.si.has_identity
] + [
    ("n4:[0][1][2][3]/full", _full_instance([[0], [1], [2], [3]])),
    ("n4:[0,1][2,3]/full", _full_instance([[0, 1], [2, 3]])),
]


class TestEggbox:
    @pytest.mark.parametrize(
        "label,inst", EGGBOX_INSTANCES, ids=[label for label, _ in EGGBOX_INSTANCES]
    )
    def test_d_labels_match_the_union_find_and_the_boolean_product(self, label, inst):
        """The D-classes read off the class quotient against the union-find
        that grouped them before, and D (equal D labels, as the harness reads
        them) against the boolean product L then R."""
        data = _greens_data(inst)
        assert eggbox(inst) == _union_find_eggbox(data)
        d_label = np.array(data.d_label)
        assert np.array_equal(d_label[:, None] == d_label,
                              boolean_products(*preorders(data))[1])

    def test_full_transformation_semigroup_on_three_points(self):
        p = Partition.of([[0, 1, 2]])
        inst = Instance(p, IndexSemigroup.trivial(1))
        boxes = eggbox(inst)
        members = enumerate_elements(inst)
        sizes = sorted(
            sum(len(cell) for row in box["grid"] for cell in row) for box in boxes
        )
        assert sizes == [3, 6, 18]  # constants, bijections, rank-two maps
        assert sum(sizes) == len(members)
        rank2 = next(b for b in boxes
                     if sum(len(c) for r in b["grid"] for c in r) == 18)
        assert len(rank2["r_classes"]) == 3 and len(rank2["l_classes"]) == 3
        for row in rank2["grid"]:
            for cell in row:
                assert len(cell) == 2  # H-classes of rank-two maps

    def test_character_descent_on_the_full_instance(self, inst_full):
        members = enumerate_elements(inst_full)
        si = [a.images for a in inst_full.si.elements]
        p = inst_full.partition
        rng = random.Random(3)
        for _ in range(40):
            f = members[rng.randrange(len(members))]
            g = members[rng.randrange(len(members))]
            if l_related(f, g, inst_full, mode="oracle") is not None:
                cf, cg = character(f, p).images, character(g, p).images
                assert any(comp(a, cg) == cf for a in si)
                assert any(comp(a, cf) == cg for a in si)
