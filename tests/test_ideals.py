"""The packed principal ideals of ``greens._ideals`` against their definition.

Row g of the left ideals (built from the transposed table) holds S*g and row
g of the right ideals g*S, a bit a member, so f ≤_L g (f ≤_R g) is bit f
of row g.  Every reader takes bits through ``greens._bits``, one gather and
one mask, for a member or a block of them; the class labels are the first
row with equal bytes.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from partsem import (
    IndexSemigroup, Instance, Partition, build_catalog, enumerate_elements, ensemble, greens,
    run_all,
)
from conftest import monoid_table, unpack_below

# member counts on both sides of byte boundaries
SIZES = (7, 8, 9, 15, 16, 17, 27)


@st.composite
def monoid_tables(draw):
    size = draw(st.sampled_from(SIZES))
    point = st.integers(0, 2)
    gens = draw(st.lists(st.tuples(point, point, point), max_size=4))
    return monoid_table(size, gens, draw(st.permutations(range(size))))


def _first_member_labels(below):
    """The class labels as they were read off an N×N preorder: per element,
    the first element of its class under below & below.T."""
    eq = below & below.T
    return [int(np.argmax(eq[k])) for k in range(len(below))]


@settings(max_examples=80, deadline=None)
@given(monoid_tables(), st.data())
def test_packed_ideals_match_the_definition(table, data):
    size = len(table)
    left, right = greens._ideals(table.T), greens._ideals(table)
    assert left.shape == right.shape == (size, -(-size // 8))
    assert left.dtype == right.dtype == np.uint8
    # the definition: f in S*g (g*S) when f = h*g (f = g*h) for some h
    l_ideal = [{int(table[h, g]) for h in range(size)} for g in range(size)]
    r_ideal = [{int(table[g, h]) for h in range(size)} for g in range(size)]
    l_below = np.array([[f in l_ideal[g] for g in range(size)] for f in range(size)])
    r_below = np.array([[f in r_ideal[g] for g in range(size)] for f in range(size)])
    for ideals, below in ((left, l_below), (right, r_below)):
        for f, g in itertools.product(range(size), repeat=2):
            assert bool(ideals[g, f >> 3] >> (f & 7) & 1) == below[f, g]
        # the padding bits of each last byte are zero
        assert not np.unpackbits(ideals, axis=1, bitorder="little")[:, size:].any()
        # the readers return members only
        rows = np.arange(size)
        assert np.array_equal(greens._bits(ideals, rows, rows).T != 0, below)
        for f in range(size):
            assert np.array_equal(greens._bits(ideals, f) != 0, below[f])
            assert np.array_equal(greens._bits(ideals, f, rows[::-1]) != 0, below[f, ::-1])
        start = data.draw(st.integers(0, size - 1))
        stop = data.draw(st.integers(start + 1, size))
        block = greens._bits(ideals, np.arange(start, stop))
        assert block.shape == (size, stop - start)
        assert np.array_equal(block.T != 0, below[start:stop])
        assert greens._class_labels(ideals) == _first_member_labels(below)
    # the index-semigroup facts read the right ideals: R-classes and J alphas
    facts = greens._IndexFacts(table, right)
    r_eq = r_below & r_below.T
    for c in range(size):
        assert facts.r_class(c) == tuple(np.flatnonzero(r_eq[c]).tolist())
        t = data.draw(st.integers(0, size - 1))
        assert facts.j_alphas(t, c) == tuple(
            a for a in range(size) if r_below[t, table[a, c]])


# the 1,285-member instance of scale-n5 and the one-block T_5
LARGE = [([[0, 1, 2, 3], [4]], 2, 1285), ([[0, 1, 2, 3, 4]], 1, 3125)]


@pytest.mark.parametrize("blocks,degree,size", LARGE, ids=["n5:[0,1,2,3][4]/full", "T_5"])
def test_the_ideals_keep_a_bit_a_pair(blocks, degree, size):
    """Each of the four preorders is kept in N·⌈N/8⌉ bytes, no array the
    Green's data keeps but the product table has N² items, and the build of
    both member preorders peaks within the ideals it keeps, ROW_BLOCK_BYTES,
    the iterator buffers NumPy takes for the broadcast add of intp offsets
    (``np.getbufsize()`` items) and 32 bytes a member (the boolean N×N
    preorders took 19.5 MB on T_5)."""
    inst = Instance(Partition.of(blocks), IndexSemigroup.full(degree))
    data = greens._greens_data(inst)
    si_size = len(inst.si.elements)
    assert len(data.members) == size
    for ideals, n in ((data.l_ideals, size), (data.r_ideals, size),
                      (data.si_l_ideals, si_size), (data.si_r_ideals, si_size)):
        assert ideals.nbytes <= n * -(-n // 8)
    big = [name for name, v in vars(data).items() if isinstance(v, np.ndarray) and v.size >= size**2]
    assert big == ["table"]
    tracemalloc.start()
    try:
        kept = greens._ideals(data.table.T), greens._ideals(data.table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(kept[0], data.l_ideals) and np.array_equal(kept[1], data.r_ideals)
    buffers = np.getbufsize() * np.dtype(np.intp).itemsize
    slack = ensemble.ROW_BLOCK_BYTES + buffers + 32 * size
    assert peak <= sum(ideals.nbytes for ideals in kept) + slack


def test_unpack_below_reads_the_packed_bits():
    """The test-only unpack helper on a small hand-packed pair."""
    ideals = np.array([[0b101], [0b010], [0b111]], dtype=np.uint8)
    assert unpack_below(ideals).tolist() == [[True, False, True], [False, True, True],
                                             [True, False, True]]


def test_only_character_descent_builds_the_left_ideals_of_s_i(monkeypatch):
    """The egg-box and every query path (the four checkers in both modes,
    ``principal_leq_oracle``, ``witness_maps``, the four builders) build
    three packed ideals per Green's data: the members' two and S(I)'s right
    ideals.  character-descent builds the fourth, S(I)'s left ideals, once
    per entry, and its records are those of a run that built all four with
    the Green's data."""
    built = []
    real = greens._ideals
    monkeypatch.setattr(greens, "_ideals", lambda table: built.append(len(table)) or real(table))
    inst = Instance(Partition.of([[0, 1], [2]]), IndexSemigroup.full(2))
    members = enumerate_elements(inst)
    greens.eggbox(inst)
    # each builder on the index maps of a theorem witness of its relation
    builds = {
        "L": lambda f, g, maps, pairing, images: greens.build_left_factor(
            f, g, maps["alpha"], inst),
        "R": lambda f, g, maps, pairing, images: greens.build_right_factor(
            f, g, maps["beta_fg"], inst),
        "D": lambda f, g, maps, pairing, images: greens.build_d_middle(
            f, g, maps["gamma"], pairing, inst),
        "J": lambda f, g, maps, pairing, images: greens.build_j_factors(
            f, g, maps["alpha"], maps["beta"], images["phi"], inst),
    }
    built_factors = set()
    for f, g in itertools.product(members[::3], members[::2]):
        for rel in "LRJ":
            greens.principal_leq_oracle(rel, f, g, inst)
        for rel, checker in greens.checkers().items():
            for mode in ("oracle", "theorem"):
                w = checker(f, g, inst, mode=mode)
                if w is not None:
                    maps = greens.witness_maps(w, f, g, inst.partition)
                    if mode == "theorem":
                        builds[rel](f, g, *maps)
                        built_factors.add(rel)
    assert built_factors == set("LRDJ")
    assert built == [len(members), len(members), len(inst.si.elements)]

    catalog = build_catalog(3, seed=7)
    built.clear()
    lazy = run_all(catalog, ["character-descent"])
    identity = sum(e.instance.si.has_identity for e in catalog.entries)
    assert len(built) == 4 * identity
    real_init = greens._GreensData.__init__

    def eager(data, inst):
        real_init(data, inst)
        data.si_l_ideals  # built with the data, as before

    monkeypatch.setattr(greens._GreensData, "__init__", eager)
    eager_run = run_all(build_catalog(3, seed=7), ["character-descent"])
    assert [r.to_payload() | {"millis": 0} for r in lazy.records] == [
        r.to_payload() | {"millis": 0} for r in eager_run.records]
