import pytest

from partsem import (
    FiniteMap,
    IndexSemigroup,
    Instance,
    InternalError,
    InvalidArgumentError,
    Partition,
    PreconditionError,
    build_unit_inverse,
    character,
    collapse_defect,
    compose,
    enumerate_elements,
    fg_image_is_kernel_transversal,
    is_member,
    is_regular_oracle,
    is_unit_bijection,
    is_unit_regular_oracle,
    is_unit_regular_semigroup,
    make_c_neq_d_map,
    unit_regular_witnesses,
    units,
)


def fm(images):
    return FiniteMap.of(images)


class TestUnitRegularOracle:
    def test_worked_example(self, inst_full):
        u = is_unit_regular_oracle(fm([2, 3, 0, 0]), inst_full)
        assert u == fm([2, 3, 0, 1])

    def test_identity(self, inst_full):
        ident = FiniteMap.identity(4)
        assert is_unit_regular_oracle(ident, inst_full) == ident

    def test_constant_map_scans_all_units(self, inst_full):
        u = is_unit_regular_oracle(fm([0, 0, 0, 0]), inst_full)
        assert u == FiniteMap.identity(4)

    def test_requires_identity_character(self, p22):
        inst = Instance(p22, IndexSemigroup(2, (fm([0, 0]),)))
        with pytest.raises(PreconditionError):
            is_unit_regular_oracle(fm([0, 0, 0, 0]), inst)


class TestUnitRegularWitnesses:
    def test_worked_example(self, inst_full):
        got = unit_regular_witnesses(fm([2, 3, 0, 0]), inst_full)
        assert [a.images for a in got] == [(1, 0)]

    def test_identity_carries_identity_witness(self, inst_full):
        got = unit_regular_witnesses(FiniteMap.identity(4), inst_full)
        assert FiniteMap.identity(2) in got

    def test_block_size_mismatch_empties_the_witness_set(self):
        # the swap character cannot witness anything once block sizes differ
        p = Partition.of([[0, 1], [2]])
        inst = Instance(p, IndexSemigroup.symmetric(2))
        f = fm([2, 2, 0])  # swap character, collapses the fat block
        witnesses = unit_regular_witnesses(f, inst)
        assert witnesses == ()
        assert is_unit_regular_oracle(f, inst) is None

    def test_oracle_equivalence_exhaustive(self, inst_full):
        for f in enumerate_elements(inst_full):
            u = is_unit_regular_oracle(f, inst_full)
            witnesses = unit_regular_witnesses(f, inst_full)
            assert (u is not None) == bool(witnesses)
            if u is not None:
                assert character(u, inst_full.partition) in witnesses

    def test_balance_condition_is_implied_at_equal_finite_sizes(self, inst_full):
        # whenever the first three conditions hold, the restriction maps run
        # between equal-size finite blocks, so collapse equals defect
        p = inst_full.partition
        for f in enumerate_elements(inst_full):
            for alpha in unit_regular_witnesses(f, inst_full):
                chi = character(f, p)
                for i in set(chi.images):
                    j = alpha.images[i]
                    source, target = p.blocks[j], p.blocks[i]
                    pos = {x: k for k, x in enumerate(target)}
                    local = FiniteMap(len(source), len(target),
                                      tuple(pos[f.images[x]] for x in source))
                    c, d = collapse_defect(local)
                    assert c == d


class TestBuildUnitInverse:
    def test_worked_example(self, inst_full):
        u = build_unit_inverse(fm([2, 3, 0, 0]), fm([1, 0]), inst_full)
        assert u == fm([2, 3, 0, 1])

    def test_identity(self, inst_full):
        ident = FiniteMap.identity(4)
        assert build_unit_inverse(ident, FiniteMap.identity(2), inst_full) == ident

    def test_rejects_non_witness(self, inst_full):
        with pytest.raises(PreconditionError):
            build_unit_inverse(fm([2, 3, 0, 0]), fm([0, 1]), inst_full)

    def test_a_spoiled_block_fit_row_is_caught(self, p22):
        """The member's rows of the block-fit table spoiled before the first
        witness call, which builds the witness lists from them: f = [0,1,0,0]
        said to meet every X_j inside every X_j' f, so the unit alpha = [1,0]
        passes the criterion and the unit built from it fails validation."""
        inst = Instance(p22, IndexSemigroup.full(2))
        f, alpha = fm([0, 1, 0, 0]), fm([1, 0])
        with pytest.raises(PreconditionError):
            build_unit_inverse(f, alpha, inst)
        inst.drop_derived()
        k = inst.derived.index[f.images]
        inst.derived.geometry.block_fits[k] = True  # the instance is this test's own
        with pytest.raises(InternalError, match="fails validation"):
            build_unit_inverse(f, alpha, inst)

    def test_output_contract_on_all_members(self, inst_full):
        p = inst_full.partition
        for f in enumerate_elements(inst_full):
            for alpha in unit_regular_witnesses(f, inst_full):
                u = build_unit_inverse(f, alpha, inst_full)
                assert compose(compose(f, u), f) == f
                assert is_unit_bijection(u, p)
                assert character(u, p) == alpha
                assert is_member(u, inst_full)


class TestUnitRegularSemigroup:
    def test_singleton_blocks_full_characters(self):
        for n in (2, 3):
            p = Partition.of([[x] for x in range(n)])
            inst = Instance(p, IndexSemigroup.full(n))
            assert is_unit_regular_semigroup(inst, "oracle")
            assert is_unit_regular_semigroup(inst, "theorem")

    def test_coarse_partition_full_characters_fails(self, inst_full):
        assert not is_unit_regular_semigroup(inst_full, "oracle")
        assert not is_unit_regular_semigroup(inst_full, "theorem")

    def test_symmetric_characters_modes_agree(self, inst_sym):
        assert (
            is_unit_regular_semigroup(inst_sym, "oracle")
            == is_unit_regular_semigroup(inst_sym, "theorem")
            is True
        )

    def test_uneven_blocks_with_swap_character_fails(self):
        p = Partition.of([[0, 1], [2]])
        inst = Instance(p, IndexSemigroup.symmetric(2))
        assert not is_unit_regular_semigroup(inst, "oracle")
        assert not is_unit_regular_semigroup(inst, "theorem")


class TestUnitRegularContainment:
    def test_unit_regular_members_are_regular(self, inst_full):
        for f in enumerate_elements(inst_full):
            if is_unit_regular_oracle(f, inst_full) is not None:
                assert is_regular_oracle(f, inst_full) is not None


class TestMakeCNeqDMap:
    def test_injection(self):
        f = make_c_neq_d_map(2, 3)
        assert f.images == (0, 1)
        assert collapse_defect(f) == (0, 1)

    def test_collapsing_surjection(self):
        f = make_c_neq_d_map(3, 2)
        assert f.images == (0, 1, 1)
        assert collapse_defect(f) == (1, 0)

    def test_tiny_case(self):
        f = make_c_neq_d_map(1, 2)
        assert f.images == (0,)
        assert collapse_defect(f) == (0, 1)

    def test_always_unbalanced(self):
        for a in range(1, 6):
            for b in range(1, 6):
                if a == b:
                    continue
                c, d = collapse_defect(make_c_neq_d_map(a, b))
                assert c != d

    def test_equal_sizes_rejected(self):
        with pytest.raises(PreconditionError):
            make_c_neq_d_map(3, 3)

    @pytest.mark.parametrize("sizes", [(0, 1), (1, 0)], ids=["empty-domain", "empty-codomain"])
    def test_empty_sets_rejected(self, sizes):
        with pytest.raises(InvalidArgumentError, match="both sizes must be at least 1"):
            make_c_neq_d_map(*sizes)


class TestTransversalLemma:
    def test_on_all_oracle_pairs(self, inst_full):
        for f in enumerate_elements(inst_full):
            g = is_regular_oracle(f, inst_full)
            if g is not None:
                assert fg_image_is_kernel_transversal(f, g)
            u = is_unit_regular_oracle(f, inst_full)
            if u is not None:
                assert fg_image_is_kernel_transversal(f, u)

    def test_on_every_inner_inverse_of_one_element(self, inst_full):
        f = fm([2, 3, 0, 0])
        for g in enumerate_elements(inst_full):
            if compose(compose(f, g), f) == f:
                assert fg_image_is_kernel_transversal(f, g)

    def test_counterexample_without_the_hypothesis(self):
        f, g = fm([0, 0, 2, 2]), fm([1, 1, 1, 1])
        assert compose(compose(f, g), f) != f
        assert not fg_image_is_kernel_transversal(f, g)


def test_units_order_matches_enumeration(inst_full):
    members = [m.images for m in enumerate_elements(inst_full)]
    unit_list = [u.images for u in units(inst_full)]
    positions = [members.index(u) for u in unit_list]
    assert positions == sorted(positions)
