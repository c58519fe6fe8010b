"""The instance-owned product table against the loop definitions it replaced.

Every quantity the oracles now read from ``inst.derived.table`` is recomputed
here from raw image tuples, one composite at a time, as the library did
before the table existed.
"""

import gc
import weakref

import numpy as np
import pytest

from partsem import (
    IndexSemigroup,
    Instance,
    Partition,
    build_catalog,
    character,
    eggbox,
    enumerate_elements,
    idempotents,
    is_regular_oracle,
    is_unit_regular_oracle,
    principal_leq_oracle,
    units,
)
from partsem.greens import _greens_data

from conftest import comp


def _full(blocks):
    p = Partition.of(blocks)
    return Instance(p, IndexSemigroup.full(p.degree))


def _instances():
    out = [(e.label, e.instance) for e in build_catalog(3, seed=7).entries]
    out.append(("n4:[0][1][2][3]/full", _full([[0], [1], [2], [3]])))
    # 8**8 codes exceed DENSE_CODE_LIMIT, so this table is built through the dict.
    singletons = Partition.of([[x] for x in range(8)])
    out.append(("n8:singletons/id+const",
                 Instance(singletons, IndexSemigroup.identity_with_constants(8))))
    return out


INSTANCES = _instances()


class _Loops:
    """The loop definitions over raw image tuples."""

    def __init__(self, inst):
        self.members = [m.images for m in enumerate_elements(inst)]
        self.index = {t: k for k, t in enumerate(self.members)}
        self.product = [
            [self.index[comp(f, g)] for g in self.members] for f in self.members
        ]
        self.identity = self.index.get(tuple(range(inst.partition.n)))

    def l_below(self):
        size = len(self.members)
        below = np.zeros((size, size), dtype=bool)
        for h in range(size):
            for g in range(size):
                below[self.product[h][g], g] = True
        return below

    def r_below(self):
        size = len(self.members)
        below = np.zeros((size, size), dtype=bool)
        for g in range(size):
            for h in range(size):
                below[self.product[g][h], g] = True
        return below

    def units(self):
        e = self.identity
        return [
            f for f, row in enumerate(self.product)
            if any(row[g] == e and self.product[g][f] == e for g in range(len(row)))
        ]

    def idempotents(self):
        return [f for f, row in enumerate(self.product) if row[f] == f]

    def first_inner_inverse(self, f, candidates):
        row = self.product[f]
        return next((g for g in candidates if self.product[row[g]][f] == f), None)

    def j_ideal(self, g):
        """Positions of every h1*g*h2."""
        middles = {self.product[h][g] for h in range(len(self.members))}
        return set().union(*(self.product[m] for m in middles))

    def first_j_factors(self, f, g, first_column):
        """The first (h1, h2) in row-major order with h1*g*h2 = f."""
        for h1, row in enumerate(self.product):
            h2 = first_column[row[g]].get(f)
            if h2 is not None:
                return h1, h2
        return None


def _position(inst, m):
    return None if m is None else inst.derived.index[m.images]


@pytest.mark.parametrize("label,inst", INSTANCES, ids=[label for label, _ in INSTANCES])
def test_table_and_derived_data_match_the_loops(label, inst):
    loops = _Loops(inst)
    table = inst.derived.table
    assert table.dtype == np.int16
    assert table.tolist() == loops.product
    assert [_position(inst, f) for f in idempotents(inst)] == loops.idempotents()
    everyone = range(len(loops.members))
    members = enumerate_elements(inst)
    for f, m in enumerate(members):
        assert _position(inst, is_regular_oracle(m, inst)) == loops.first_inner_inverse(
            f, everyone
        )
    if not inst.si.has_identity:
        return
    unit_ids = loops.units()
    assert [_position(inst, u) for u in units(inst)] == unit_ids
    for f, m in enumerate(members):
        assert _position(inst, is_unit_regular_oracle(m, inst)) == loops.first_inner_inverse(
            f, unit_ids
        )
    data = _greens_data(inst)
    assert np.array_equal(data.l_below, loops.l_below())
    assert np.array_equal(data.r_below, loops.r_below())


def test_index_semigroup_table_matches_the_loops():
    for si in (
        IndexSemigroup.full(3),
        IndexSemigroup.identity_with_constants(4),
        IndexSemigroup.identity_with_constants(8),
    ):
        images = [a.images for a in si.elements]
        assert si.table.tolist() == [[images.index(comp(a, b)) for b in images] for a in images]


@pytest.mark.parametrize("blocks", [[[0, 1, 2, 3]], [[0], [1], [2], [3]]])
def test_one_sided_j_matches_a_direct_factor_scan(blocks):
    """On these instances a uint8 count of R-then-L paths once wrapped to 0
    on 96 ordered pairs each, so ≤_J missed pairs such as const ≤_J id."""
    inst = _full(blocks)
    loops = _Loops(inst)
    members = enumerate_elements(inst)
    data = _greens_data(inst)
    # first_column[m][f]: the first h2 with m*h2 = f.
    first_column = [{} for _ in members]
    for m, row in enumerate(loops.product):
        for h2, f in enumerate(row):
            first_column[m].setdefault(f, h2)
    for g in range(len(members)):
        ideal = loops.j_ideal(g)
        expected = np.zeros(len(members), dtype=bool)
        expected[list(ideal)] = True
        assert np.array_equal(data.j_below[:, g], expected)
        for f in range(len(members)):
            found = principal_leq_oracle("J", members[f], members[g], inst)
            if f not in ideal:
                assert found is None
                continue
            assert tuple(_position(inst, h) for h in found) == loops.first_j_factors(
                f, g, first_column
            )
    n = inst.partition.n
    const = members[loops.index[(0,) * n]]
    ident = members[loops.identity]
    h1, h2 = principal_leq_oracle("J", const, ident, inst)
    assert comp(comp(h1.images, ident.images), h2.images) == const.images


def test_dropping_an_instance_frees_its_derived_data():
    inst = _full([[0, 1], [2]])
    eggbox(inst)
    units(inst)
    for m in enumerate_elements(inst):
        is_regular_oracle(m, inst)
    assert character(units(inst)[0], inst.partition) in inst.si
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None
