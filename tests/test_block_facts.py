"""The criteria that read the members' geometry against the block-map code
they replaced.

Each ``_reference_*`` function is the earlier implementation, kept verbatim
in substance: it rebuilds the block maps of f with ``block_maps`` (or block
image sets) on every call.  Every member of every instance below must get
the same verdicts and witness sets from both.
"""

from collections import Counter

import pytest

from partsem import (
    IndexSemigroup,
    Instance,
    InvalidArgumentError,
    Partition,
    all_endomaps,
    block_maps,
    build_catalog,
    character,
    collapse_defect,
    enumerate_elements,
    is_idempotent_characterized,
    is_idempotent_def,
    is_unit_bijection,
    regular_character_witnesses,
    unit_regular_witnesses,
)
from partsem import regularity
from partsem.ensemble import require_member


def _full(blocks):
    p = Partition.of(blocks)
    return Instance(p, IndexSemigroup.full(p.degree))


INSTANCES = [(e.label, e.instance) for e in build_catalog(3, seed=7).entries] + [
    ("n4:[0,1][2,3]/full", _full([[0, 1], [2, 3]])),
    ("n4:[0][1][2][3]/full", _full([[0], [1], [2], [3]])),
    ("n5:[0,1][2,3,4]/full", _full([[0, 1], [2, 3, 4]])),
]
IDS = [label for label, _ in INSTANCES]


def _block_images(f, inst):
    return [{f.images[x] for x in b} for b in inst.partition.blocks]


def _reference_regular_witness_test(f, inst):
    chi = inst.derived.char_ids[require_member(f, inst)]
    p = inst.partition
    si = inst.si
    table = si.table
    img = set(f.images)
    blk_img = _block_images(f, inst)
    meets = [(i, p.block_sets[i] & img) for i in set(si.elements[chi].images)]

    def test(a):
        alpha = si.elements[a].images
        return table[table[chi, a], chi] == chi and all(
            meet <= blk_img[alpha[i]] for i, meet in meets
        )

    return chi, test


def _reference_unit_witness_test(f, inst):
    chi, regular = _reference_regular_witness_test(f, inst)
    p = inst.partition
    si = inst.si
    chi_image = set(si.elements[chi].images)
    sizes = [len(b) for b in p.blocks]
    local_maps = [entry.local_map for entry in block_maps(f, p).entries]

    def test(a):
        alpha = si.elements[a].images
        if not regular(a) or any(sizes[i] != sizes[alpha[i]] for i in range(p.degree)):
            return False
        for i in chi_image:
            c, d = collapse_defect(local_maps[alpha[i]])
            if c != d:
                return False
        return True

    return chi, test


def _reference_is_idempotent_characterized(f, inst):
    c = inst.derived.char_ids[require_member(f, inst)]
    p = inst.partition
    chi = inst.si.elements[c]
    if inst.si.table[c, c] != c:
        return False
    chi_image = set(chi.images)
    bd = block_maps(f, p)
    for i in chi_image:
        entry = bd.entries[i]
        if entry.target_block != i or not is_idempotent_def(entry.local_map):
            return False
    blk_img = _block_images(f, inst)
    for i in range(p.degree):
        if i not in chi_image and not blk_img[i] <= blk_img[chi.images[i]]:
            return False
    return True


def _reference_is_unit_bijection(f, p):
    bd = block_maps(f, p)
    if not all(e.local_map.is_bijective() for e in bd.entries):
        return False
    return character(f, p).is_bijective()


def _witnesses(inst, test, positions):
    return tuple(inst.si.elements[a] for a in positions if test(a))


@pytest.mark.parametrize("label,inst", INSTANCES, ids=IDS)
def test_regularity_criteria_match_the_block_set_code(label, inst):
    """The witness set against the reference test on every index position,
    and the idempotency criterion, member by member."""
    every = range(len(inst.si))
    for f in enumerate_elements(inst):
        _, ref_test = _reference_regular_witness_test(f, inst)
        assert regular_character_witnesses(f, inst) == _witnesses(inst, ref_test, every), f
        expected = _reference_is_idempotent_characterized(f, inst)
        assert is_idempotent_characterized(f, inst) == expected == is_idempotent_def(f), f


def test_the_idempotency_verdicts_match_the_block_map_code_and_the_definition():
    """The verdict list the idempotency criterion reads, built for the whole
    instance at once, against the reference and the definition on every
    member of the max_n 4 catalog and of the two scale-n5 instances."""
    for inst in _max_n4_and_scale_n5():
        try:
            members = enumerate_elements(inst)
            expected = [_reference_is_idempotent_characterized(f, inst) for f in members]
            verdicts = regularity._idempotent_verdicts(inst)
            assert verdicts == expected == [is_idempotent_def(f) for f in members], inst
        finally:
            inst.drop_derived()


def test_the_block_test_implies_an_idempotent_character():
    """The idempotency criterion's block test, X_i f inside X_{chi(i)} f for
    every block X_i, implies its first conjunct, chi(f) idempotent, which
    the verdict list therefore does not read: on every member of the max_n
    4 catalog, of the two scale-n5 instances and of T_5, from the images
    alone.  Members whose character is not idempotent occur, and each fails
    the block test."""
    seen = Counter()
    for inst in (*_max_n4_and_scale_n5(), _full([[0], [1], [2], [3], [4]])):
        p = inst.partition
        try:
            for f in enumerate_elements(inst):
                chi = character(f, p).images
                image_of = [{f.images[x] for x in block} for block in p.blocks]
                fits = all(image_of[i] <= image_of[chi[i]] for i in range(p.degree))
                idempotent = all(chi[chi[i]] == chi[i] for i in range(p.degree))
                assert idempotent or not fits, (inst, f)
                seen[fits, idempotent] += 1
        finally:
            inst.drop_derived()
    assert sum(seen.values()) == 9553
    assert seen[True, True] and seen[False, False] and seen[False, True]


def _max_n4_and_scale_n5():
    """Every instance of the max_n 4 catalog, then the two scale-n5 instances."""
    yield from (e.instance for e in build_catalog(4, seed=7).entries)
    yield from (_full([[0, 1], [2], [3], [4]]), _full([[0, 1, 2, 3], [4]]))


@pytest.mark.parametrize(
    "label,inst", [(label, inst) for label, inst in INSTANCES if inst.si.has_identity],
    ids=[label for label, inst in INSTANCES if inst.si.has_identity],
)
def test_unit_regularity_criterion_matches_the_collapse_defect_code(label, inst):
    """The unit witness set against the reference test on every unit of the
    index set, member by member: dropping c = d changes nothing."""
    for f in enumerate_elements(inst):
        _, ref_test = _reference_unit_witness_test(f, inst)
        assert unit_regular_witnesses(f, inst) == _witnesses(inst, ref_test, inst.si.unit_ids), f


@pytest.mark.parametrize("label,inst", INSTANCES, ids=IDS)
def test_unit_bijection_matches_the_block_map_code_on_members(label, inst):
    p = inst.partition
    for f in enumerate_elements(inst):
        assert is_unit_bijection(f, p) == _reference_is_unit_bijection(f, p), f


@pytest.mark.parametrize("blocks", [[[0, 1, 2]], [[0, 1], [2]], [[0, 2], [1]], [[0], [1], [2]],
                                    [[0, 1], [2, 3]], [[0, 3], [1], [2]]])
def test_unit_bijection_matches_the_block_map_code_on_every_self_map(blocks):
    """Every self-map of X, preserving or not: equal verdicts, or the same
    refusal of a map that does not preserve the partition."""
    p = Partition.of(blocks)
    for f in all_endomaps(p.n):
        try:
            expected = _reference_is_unit_bijection(f, p)
        except InvalidArgumentError as err:
            with pytest.raises(InvalidArgumentError, match="does not preserve"):
                is_unit_bijection(f, p)
            assert "does not preserve" in str(err)
            continue
        assert is_unit_bijection(f, p) == expected, f
