"""The reference checker agrees with partsem's oracles on small instances."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
from reference import Reference, full_index_set, parse_label

import partsem
from partsem import greens

SMALL = ("n3:[0,1][2]/full", "n3:[0][1][2]/full")


def _pair(label):
    blocks, kind = parse_label(label)
    assert kind == "full"
    ref = Reference(blocks, full_index_set(len(blocks)))
    p = partsem.Partition.of(blocks)
    inst = partsem.Instance(p, partsem.IndexSemigroup.full(p.degree))
    return ref, inst


def test_parse_label():
    assert parse_label("n5:[0,1][2,3][4]/full") == ([[0, 1], [2, 3], [4]], "full")
    with pytest.raises(ValueError):
        parse_label("n4:[0,1][2]/full")


def test_reference_does_not_import_partsem():
    code = "import reference, sys; print(any(m.startswith('partsem') for m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=Path(reference.__file__).parent,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("label", SMALL)
def test_members_and_element_sets(label):
    ref, inst = _pair(label)
    members = partsem.enumerate_elements(inst)
    assert [m.images for m in members] == ref.members
    assert {u.images for u in partsem.units(inst)} == {
        ref.members[k] for k in ref.units.nonzero()[0]
    }
    for k, f in enumerate(members):
        assert ref.idempotent[k] == (partsem.compose(f, f) == f)
        assert ref.regular[k] == (partsem.is_regular_oracle(f, inst) is not None)
        assert ref.unit_regular[k] == (partsem.is_unit_regular_oracle(f, inst) is not None)
    assert ref.is_regular_semigroup() == partsem.is_regular_semigroup(inst, "oracle")
    assert ref.is_inverse_semigroup() == partsem.is_inverse_semigroup(inst, "oracle")
    assert ref.is_unit_regular_semigroup() == partsem.is_unit_regular_semigroup(inst, "oracle")


@pytest.mark.parametrize("label", SMALL)
def test_relations(label):
    ref, inst = _pair(label)
    members = partsem.enumerate_elements(inst)
    checkers = {"L": greens.l_related, "R": greens.r_related,
                "D": greens.d_related, "J": greens.j_related}
    for a, f in enumerate(members):
        for b, g in enumerate(members):
            for rel in "LRJ":
                found = greens.principal_leq_oracle(rel, f, g, inst)
                assert ref.below[rel][a, b] == (found is not None)
            for rel, checker in checkers.items():
                assert ref.rel[rel][a, b] == (checker(f, g, inst, mode="oracle") is not None)


@pytest.mark.parametrize("label", SMALL)
def test_eggbox_check(label):
    ref, inst = _pair(label)
    boxes = greens.eggbox(inst)
    assert ref.eggbox_errors(boxes) == []
    moved = [dict(box) for box in boxes]
    big = max(range(len(moved)), key=lambda i: len(moved[i]["grid"][0][0]))
    cell = moved[big]["grid"][0][0]
    moved[big] = {**moved[big], "grid": [[cell[1:]] + moved[big]["grid"][0][1:]]
                  + moved[big]["grid"][1:]}
    assert ref.eggbox_errors(moved)


def test_product_table_and_one_sided_j_on_t4():
    ref = Reference([[0, 1, 2, 3]], full_index_set(1))
    const, ident = ref.index((0, 0, 0, 0)), ref.index((0, 1, 2, 3))
    assert ref.size == 256
    assert ref.product(const, ident) == const
    assert ref.below["J"][const, ident] and not ref.below["J"][ident, const]
    assert ref.index((0, 0, 0, 5)) == -1


def test_j_wrap_is_where_a_uint8_path_count_wraps():
    ref = Reference([[0, 1, 2, 3]], full_index_set(1))
    wrapped = (ref.r_below.astype(np.uint8) @ ref.l_below.astype(np.uint8)) > 0
    assert (ref.j_wrap == (ref.j_below & ~wrapped)).all()
    const, ident = ref.index((0, 0, 0, 0)), ref.index((0, 1, 2, 3))
    assert ref.j_wrap[const, ident]
    assert int(ref.j_wrap.sum()) == 96
    assert not (ref.j_wrap & ref.j_wrap.T).any()  # two-sided J is unaffected
