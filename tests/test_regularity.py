import pytest

from partsem import (
    FiniteMap,
    IndexSemigroup,
    Instance,
    InternalError,
    InvalidArgumentError,
    Partition,
    PreconditionError,
    ResourceLimitError,
    build_catalog,
    build_inner_inverse,
    character,
    compose,
    enumerate_elements,
    idempotents,
    is_idempotent_characterized,
    is_idempotent_def,
    is_inverse_semigroup,
    is_member,
    is_regular_oracle,
    is_regular_semigroup,
    is_unit_regular_semigroup,
    regular_character_witnesses,
    si_is_inverse,
    si_is_regular,
)
from partsem import ensemble
from conftest import comp


def fm(images):
    return FiniteMap.of(images)


class TestRegularOracle:
    def test_worked_example_first_inner_inverse(self, inst_full):
        g = is_regular_oracle(fm([2, 3, 0, 0]), inst_full)
        assert g == fm([2, 2, 0, 1])
        f = (2, 3, 0, 0)
        assert comp(comp(f, g.images), f) == f

    def test_identity_is_self_inverse(self, inst_full):
        ident = FiniteMap.identity(4)
        assert is_regular_oracle(ident, inst_full) == ident

    def test_idempotents_are_their_own_inner_inverses(self, inst_full):
        e = fm([0, 0, 2, 2])
        assert compose(compose(e, e), e) == e
        assert is_regular_oracle(e, inst_full) is not None

    def test_rejects_non_members(self, inst_trivial_si):
        with pytest.raises(InvalidArgumentError):
            is_regular_oracle(fm([2, 3, 0, 0]), inst_trivial_si)


class TestWitnesses:
    def test_worked_example(self, inst_full):
        assert [a.images for a in regular_character_witnesses(fm([2, 3, 0, 0]), inst_full)] == [(1, 0)]

    def test_identity_has_identity_witness(self, inst_full):
        witnesses = regular_character_witnesses(FiniteMap.identity(4), inst_full)
        assert FiniteMap.identity(2) in witnesses

    def test_direct_condition_evaluation(self, p22):
        # chi f alpha chi f = chi f and blockwise image containment, evaluated
        # from scratch for every member and every alpha
        si = IndexSemigroup(2, (fm([0, 1]), fm([1, 0])))
        inst = Instance(p22, si)
        blocks = p22.blocks
        for f in enumerate_elements(inst):
            ft = f.images
            chi = tuple(0 if ft[b[0]] in blocks[0] else 1 for b in blocks)
            img = set(ft)
            expected = []
            for alpha in si.elements:
                at = alpha.images
                if tuple(chi[at[chi[i]]] for i in range(2)) != chi:
                    continue
                if all(
                    (set(blocks[i]) & img) <= {ft[x] for x in blocks[at[i]]}
                    for i in set(chi)
                ):
                    expected.append(alpha)
            assert list(regular_character_witnesses(f, inst)) == expected

    def test_oracle_and_witnesses_agree_on_all_members(self, inst_full):
        for f in enumerate_elements(inst_full):
            g = is_regular_oracle(f, inst_full)
            witnesses = regular_character_witnesses(f, inst_full)
            assert (g is not None) == bool(witnesses)
            if g is not None:
                # any found inner inverse has a witnessing character
                assert character(g, inst_full.partition) in witnesses


class TestBuildInnerInverse:
    def test_worked_example(self, inst_full):
        g = build_inner_inverse(fm([2, 3, 0, 0]), fm([1, 0]), inst_full)
        assert g == fm([2, 2, 0, 1])

    def test_identity(self, inst_full):
        ident = FiniteMap.identity(4)
        assert build_inner_inverse(ident, FiniteMap.identity(2), inst_full) == ident

    def test_constant_map(self, inst_full):
        g = build_inner_inverse(fm([0, 0, 0, 0]), fm([0, 0]), inst_full)
        assert g == fm([0, 0, 0, 0])

    def test_rejects_non_witness(self, inst_full):
        with pytest.raises(PreconditionError):
            build_inner_inverse(fm([2, 3, 0, 0]), fm([0, 1]), inst_full)

    def test_a_spoiled_block_fit_row_is_caught(self, p22):
        """The member's rows of the block-fit table spoiled before the first
        witness call, which builds the witness lists from them: f = [0,1,0,0]
        said to meet every X_j inside every X_j' f, so alpha = [1,0] passes
        the criterion and the inverse built from it fails validation."""
        inst = Instance(p22, IndexSemigroup.full(2))
        f, alpha = fm([0, 1, 0, 0]), fm([1, 0])
        with pytest.raises(PreconditionError):
            build_inner_inverse(f, alpha, inst)
        inst.drop_derived()
        k = inst.derived.index[f.images]
        inst.derived.geometry.block_fits[k] = True  # the instance is this test's own
        with pytest.raises(InternalError, match="fails validation"):
            build_inner_inverse(f, alpha, inst)

    def test_output_contract_on_all_members(self, inst_full):
        for f in enumerate_elements(inst_full):
            for alpha in regular_character_witnesses(f, inst_full):
                g = build_inner_inverse(f, alpha, inst_full)
                assert compose(compose(f, g), f) == f
                assert character(g, inst_full.partition) == alpha
                assert is_member(g, inst_full)


def _branchy_inner_inverse(f, alpha, p):
    """``build_inner_inverse`` as it was built before the shared least-preimage
    lift: separate branches for blocks outside the character image and for
    points outside the image of f."""
    chi_image = set(character(f, p).images)
    img = set(f.images)
    images = [0] * p.n
    for i, b in enumerate(p.blocks):
        target = p.blocks[alpha.images[i]]
        if i in chi_image:
            for x in b:
                if x in img:
                    images[x] = next(x2 for x2 in target if f.images[x2] == x)
                else:
                    images[x] = target[0]
        else:
            for x in b:
                images[x] = target[0]
    return FiniteMap(p.n, p.n, tuple(images))


N3_ENTRIES = [(e.label, e.instance) for e in build_catalog(3, seed=7).entries]


@pytest.mark.parametrize("label,inst", N3_ENTRIES, ids=[label for label, _ in N3_ENTRIES])
def test_inner_inverse_matches_the_branchy_construction(label, inst):
    for f in enumerate_elements(inst):
        for alpha in regular_character_witnesses(f, inst):
            assert build_inner_inverse(f, alpha, inst) == _branchy_inner_inverse(
                f, alpha, inst.partition
            ), (f, alpha)


class TestRegularSemigroup:
    def test_symmetric_characters_regular(self, inst_sym):
        assert is_regular_semigroup(inst_sym, "oracle")
        assert is_regular_semigroup(inst_sym, "theorem")

    def test_trivial_partition_regular(self):
        inst = Instance(Partition.of([[0], [1], [2]]), IndexSemigroup.full(3))
        assert is_regular_semigroup(inst, "oracle")
        assert is_regular_semigroup(inst, "theorem")

    def test_full_characters_on_coarse_partition_not_regular(self, inst_full):
        assert not is_regular_semigroup(inst_full, "oracle")
        assert not is_regular_semigroup(inst_full, "theorem")

    def test_unknown_mode(self, inst_full):
        with pytest.raises(InvalidArgumentError):
            is_regular_semigroup(inst_full, "guess")

    @pytest.mark.parametrize(
        "check", [is_regular_semigroup, is_inverse_semigroup, is_unit_regular_semigroup])
    def test_oracle_refuses_an_instance_above_the_cap(self, check, monkeypatch):
        """T_7 has 823,543 members, above the enumeration cap: the oracle
        refuses it from the predicted size, before any member or product
        is built."""

        def unbuilt(self, inst):
            raise AssertionError("the members were enumerated")

        monkeypatch.setattr(ensemble.DerivedData, "__init__", unbuilt)
        inst = Instance(Partition.of([list(range(7))]), IndexSemigroup.trivial(1))
        with pytest.raises(ResourceLimitError, match="823543"):
            check(inst, "oracle")

    def test_si_regularity_brute_force(self):
        assert si_is_regular(IndexSemigroup.full(3))
        assert si_is_regular(IndexSemigroup.symmetric(4))


class TestIdempotentCharacterized:
    def test_examples(self, inst_full):
        assert is_idempotent_characterized(fm([0, 0, 2, 2]), inst_full)
        assert is_idempotent_characterized(FiniteMap.identity(4), inst_full)
        assert not is_idempotent_characterized(fm([2, 3, 0, 0]), inst_full)

    def test_agrees_with_definition_everywhere(self, inst_full):
        for f in enumerate_elements(inst_full):
            assert is_idempotent_characterized(f, inst_full) == is_idempotent_def(f)

    def test_condition_three_matters(self, p22):
        # constant characters put blocks outside the character image; the
        # containment of their images is then the deciding condition
        si = IndexSemigroup(2, (fm([0, 1]), fm([0, 0])))
        inst = Instance(p22, si)
        e = fm([0, 0, 0, 0])
        assert is_idempotent_characterized(e, inst)
        not_e = fm([1, 1, 0, 0])  # block 1 lands on 0, block 0 on 1: not idempotent
        assert is_idempotent_def(not_e) == is_idempotent_characterized(not_e, inst)


class TestInverseSemigroup:
    def test_group_case(self):
        inst = Instance(Partition.of([[0], [1]]), IndexSemigroup.symmetric(2))
        assert is_inverse_semigroup(inst, "oracle")
        assert is_inverse_semigroup(inst, "theorem")

    def test_symmetric_characters_fail_on_fat_blocks(self, inst_sym):
        e1, e2 = fm([0, 0, 2, 2]), fm([1, 1, 3, 3])
        assert compose(e1, e2) != compose(e2, e1)
        assert not is_inverse_semigroup(inst_sym, "oracle")
        assert not is_inverse_semigroup(inst_sym, "theorem")

    def test_identity_character_with_fat_block(self):
        inst = Instance(Partition.of([[0], [1], [2, 3]]), IndexSemigroup.trivial(3))
        assert not is_inverse_semigroup(inst, "oracle")
        assert not is_inverse_semigroup(inst, "theorem")
        # the commuting failure is exactly between the fat-block idempotents
        es = idempotents(inst)
        assert [e.images for e in es] == [(0, 1, 2, 2), (0, 1, 2, 3), (0, 1, 3, 3)]

    def test_si_inverse_brute_force(self):
        assert si_is_inverse(IndexSemigroup.symmetric(3))
        assert not si_is_inverse(IndexSemigroup.full(2))
