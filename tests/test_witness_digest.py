"""The public witnesses, pinned by digest.

Every Green's checker in both modes at the default cap, as ``partsem greens
--format machine`` reports its witness, on seeded pairs of two 4-point
instances; and every inner inverse and unit inverse the builders make for
each member and each of its character witnesses on the n <= 3 catalog; and
every member's regularity and unit-regularity witness lists, as index-set
positions in order, on four full-character instances with 4 and 5 points.
A change to how a witness is searched, built or validated must leave these
outputs as they are.
"""

import hashlib
import json
import random

from partsem import (
    IndexSemigroup,
    Instance,
    Partition,
    build_catalog,
    build_inner_inverse,
    build_unit_inverse,
    enumerate_elements,
    regular_character_witnesses,
    unit_regular_witnesses,
)
from partsem import cli, greens


def _digest(rows):
    text = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _checker_rows(blocks, count, seed):
    """Half the pairs draw g from f's D-class, so most of them are related."""
    p = Partition.of(blocks)
    inst = Instance(p, IndexSemigroup.full(p.degree))
    members = enumerate_elements(inst)
    d_label = greens._greens_data(inst).d_label
    classes = {}
    for k, label in enumerate(d_label):
        classes.setdefault(label, []).append(k)
    rng = random.Random(seed)
    rows = []
    for draw in range(count):
        a = rng.randrange(len(members))
        b = rng.choice(classes[d_label[a]]) if draw % 2 else rng.randrange(len(members))
        f, g = members[a], members[b]
        for rel, checker in greens.checkers().items():
            for mode in ("oracle", "theorem"):
                w = checker(f, g, inst, mode=mode)
                rows.append([a, b, rel, mode, None if w is None else cli._witness_payload(w, f, g, p)])
    return rows


def test_checker_witnesses_are_pinned():
    rows = _checker_rows([[0], [1], [2], [3]], 40, seed=1)
    rows += _checker_rows([[0, 1], [2, 3]], 15, seed=2)
    assert sum(row[-1] is not None for row in rows) > len(rows) // 3
    assert _digest(rows) == "d2afdd2fb7ab675e"


def test_inverse_builders_are_pinned():
    rows = []
    for entry in build_catalog(3, seed=7).entries:
        inst = entry.instance
        if not inst.si.has_identity:
            continue
        for k, f in enumerate(enumerate_elements(inst)):
            for alpha in regular_character_witnesses(f, inst):
                g = build_inner_inverse(f, alpha, inst)
                rows.append([entry.label, k, "inner", alpha.images, g.images])
            for alpha in unit_regular_witnesses(f, inst):
                u = build_unit_inverse(f, alpha, inst)
                rows.append([entry.label, k, "unit", alpha.images, u.images])
    assert len(rows) == 757
    assert _digest(rows) == "385cb8cbb182d28f"


def test_witness_lists_are_pinned():
    rows = []
    for blocks in ([[0], [1], [2], [3]], [[0, 1], [2, 3]], [[0, 1], [2], [3], [4]],
                   [[0, 1, 2, 3], [4]]):
        p = Partition.of(blocks)
        inst = Instance(p, IndexSemigroup.full(p.degree))
        position = inst.si.index
        for k, f in enumerate(enumerate_elements(inst)):
            regular = [position[a.images] for a in regular_character_witnesses(f, inst)]
            unit = [position[a.images] for a in unit_regular_witnesses(f, inst)]
            rows.append([repr(p), k, regular, unit])
    assert len(rows) == 2480
    assert sum(len(row[2]) for row in rows) == 23052
    assert sum(len(row[3]) for row in rows) == 2973
    assert _digest(rows) == "7839bd8ee8314772"
