import itertools

import pytest

from partsem import (
    FiniteMap,
    InvalidArgumentError,
    Partition,
    block_maps,
    character,
    compose,
    is_E_preserving,
    is_unit_bijection,
    lift_character,
    pi_restricted,
    preserves_partition,
    reassemble,
)
from conftest import brute_members, full_ti, raw_character, raw_preserves

P = Partition.of([[0, 1], [2, 3]])


def fm(images, cod=None):
    return FiniteMap.of(images, cod)


class TestPartition:
    def test_block_lookup(self):
        assert P.block_of(0) == 0 and P.block_of(3) == 1
        with pytest.raises(InvalidArgumentError):
            P.block_of(4)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            Partition(4, ((0, 1), (1, 2, 3)))
        with pytest.raises(InvalidArgumentError):
            Partition(4, ((0, 1),))
        with pytest.raises(InvalidArgumentError):
            Partition(2, ())
        with pytest.raises(InvalidArgumentError, match="at least one block"):
            Partition(0, ())
        with pytest.raises(InvalidArgumentError, match=r"element 4 outside \[0, 4\)"):
            Partition(4, ((0, 1), (2, 4)))

    @pytest.mark.parametrize("n,blocks", [
        (2, ((0,), (True,))), (2, ((0,), (1.0,))), (2, ((0,), ("1",))),
        (2.0, ((0,), (1,))), (True, ((0,),)), (2, ((0, "a"),)), (2, ((1, 0.5),)),
    ])
    def test_rejects_points_and_sizes_that_are_not_integers(self, n, blocks):
        with pytest.raises(InvalidArgumentError, match="integer"):
            Partition(n, blocks)

    def test_block_order_is_preserved(self):
        q = Partition(4, ((2, 3), (0, 1)))
        assert q.blocks == ((2, 3), (0, 1))
        assert q.block_of(0) == 1

    def test_triviality(self):
        assert Partition.of([[0, 1, 2]]).is_trivial()
        assert Partition.of([[0], [1], [2]]).is_trivial()
        assert not P.is_trivial()


class TestPreservesPartition:
    def test_examples(self):
        assert preserves_partition(fm([2, 3, 0, 0]), P)
        assert preserves_partition(FiniteMap.identity(4), P)
        assert not preserves_partition(fm([2, 3, 3, 0]), P)

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            preserves_partition(fm([0, 1, 2]), P)

    def test_agrees_with_raw_check_on_all_endomaps(self):
        for images in itertools.product(range(4), repeat=4):
            expected = raw_preserves(images, P.blocks)
            assert preserves_partition(FiniteMap.of(images), P) == expected


class TestCharacter:
    def test_examples(self):
        assert character(fm([2, 3, 0, 0]), P).images == (1, 0)
        assert character(FiniteMap.identity(4), P) == FiniteMap.identity(2)
        assert character(fm([0, 0, 0, 0]), P).images == (0, 0)

    def test_rejects_non_preserving(self):
        with pytest.raises(InvalidArgumentError):
            character(fm([2, 3, 3, 0]), P)

    def test_homomorphism_law_exhaustive(self):
        members = brute_members(P.blocks, full_ti(2))
        for ft in members:
            f = FiniteMap.of(ft)
            cf = character(f, P)
            for gt in members:
                g = FiniteMap.of(gt)
                assert character(compose(f, g), P) == compose(cf, character(g, P))


class TestBlockMaps:
    def test_worked_example(self):
        bd = block_maps(fm([2, 3, 0, 0]), P)
        assert bd.entries[0].target_block == 1
        assert bd.entries[0].local_map.images == (0, 1)
        assert bd.entries[1].target_block == 0
        assert bd.entries[1].local_map.images == (0, 0)

    def test_identity_gives_local_identities(self):
        bd = block_maps(FiniteMap.identity(4), P)
        for entry in bd.entries:
            assert entry.source_block == entry.target_block
            assert entry.local_map == FiniteMap.identity(2)

    def test_squashed_blocks(self):
        bd = block_maps(fm([0, 0, 2, 2]), P)
        assert [e.local_map.images for e in bd.entries] == [(0, 0), (0, 0)]

    def test_roundtrip_on_every_member(self):
        for ft in brute_members(P.blocks, full_ti(2)):
            f = FiniteMap.of(ft)
            assert reassemble(block_maps(f, P), P) == f


class TestUnitBijection:
    def test_examples(self):
        assert is_unit_bijection(fm([2, 3, 0, 1]), P)
        assert is_unit_bijection(FiniteMap.identity(4), P)
        assert not is_unit_bijection(fm([2, 2, 0, 1]), P)

    def test_matches_inverse_preservation(self):
        for ft in brute_members(P.blocks, full_ti(2)):
            f = FiniteMap.of(ft)
            expected = f.is_bijective() and preserves_partition(f.inverse(), P)
            assert is_unit_bijection(f, P) == expected

    def test_unit_images_are_blocks(self):
        block_sets = set(P.block_sets)
        for ft in brute_members(P.blocks, full_ti(2)):
            f = FiniteMap.of(ft)
            if is_unit_bijection(f, P):
                for b in P.blocks:
                    assert frozenset(f.images[x] for x in b) in block_sets


class TestEPreserving:
    def test_examples(self):
        assert is_E_preserving(FiniteMap.of((1, 2, 3), 4), (0, 2, 3), P)
        assert not is_E_preserving(FiniteMap.of((0, 2), 4), (2, 3), P)

    def test_trivial_when_blocks_meet_dom_once(self):
        for values in itertools.product(range(4), repeat=2):
            assert is_E_preserving(FiniteMap.of(values, 4), (0, 2), P)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            is_E_preserving(FiniteMap.of((0,), 4), (0, 1), P)
        with pytest.raises(InvalidArgumentError):
            is_E_preserving(FiniteMap.of((0, 1), 3), (0, 1), P)

    def test_refuses_a_repeated_point(self):
        """Point 2 listed twice would be sent to both 0 and 1, and both
        values lie in one block, so the block test alone would pass it."""
        with pytest.raises(InvalidArgumentError, match="not a set of points"):
            is_E_preserving(FiniteMap(2, 3, (0, 1)), [2, 2], Partition.of([[0, 1], [2]]))


class TestLiftCharacter:
    def test_examples(self):
        assert lift_character(fm([0, 0]), P).images == (0, 0, 0, 0)
        assert lift_character(FiniteMap.identity(2), P).images == (0, 0, 2, 2)
        assert lift_character(fm([1, 0]), P).images == (2, 2, 0, 0)

    def test_explicit_basepoints(self):
        lifted = lift_character(fm([1, 0]), P, basepoints=(1, 3))
        assert lifted.images == (3, 3, 1, 1)
        with pytest.raises(InvalidArgumentError):
            lift_character(fm([1, 0]), P, basepoints=(2, 3))

    def test_sections_the_character_for_every_index_map(self):
        for at in full_ti(2):
            alpha = FiniteMap.of(at)
            assert character(lift_character(alpha, P), P) == alpha

    def test_rejects_wrong_degree(self):
        with pytest.raises(InvalidArgumentError):
            lift_character(FiniteMap.identity(3), P)

    @pytest.mark.parametrize("basepoints", [(0,), (0, 2, 3)], ids=["one", "three"])
    def test_rejects_a_basepoint_count_other_than_the_degree(self, basepoints):
        with pytest.raises(InvalidArgumentError, match="one basepoint per block required"):
            lift_character(fm([1, 0]), P, basepoints=basepoints)


class TestPiRestricted:
    def test_examples(self):
        f = fm([2, 3, 0, 0])
        assert pi_restricted(f, (2, 3)) == ((2, 3),)
        assert pi_restricted(f, (0, 1, 2, 3)) == ((0,), (1,), (2, 3))
        assert pi_restricted(f, (0, 2)) == ((0,), (2, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            pi_restricted(fm([0, 1]), (2,))

    def test_raw_character_helper_is_consistent(self):
        # guard for the test-side oracle itself
        assert raw_character((2, 3, 0, 0), P.blocks) == (1, 0)
