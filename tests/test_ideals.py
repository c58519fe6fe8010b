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

from partsem import IndexSemigroup, Instance, Partition, ensemble, greens
from conftest import comp, unpack_below

# member counts on both sides of byte boundaries
SIZES = (7, 8, 9, 15, 16, 17, 27)


def _closure(gens):
    """The transformation monoid on three points generated by ``gens``."""
    out, frontier = {(0, 1, 2)}, [(0, 1, 2)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = comp(x, g)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


def _monoid_table(size, gens, order):
    """The product table of a monoid of ``size`` elements: the monoid of the
    longest prefix of ``gens`` with at most ``size`` elements, then left
    zeros up to ``size`` (z*x = z, and x*z = z for x outside them), element
    k at position order[k]."""
    elements = _closure(())
    for stop in range(1, len(gens) + 1):
        grown = _closure(gens[:stop])
        if len(grown) > size:
            break
        elements = grown
    maps = sorted(elements)
    index = {m: k for k, m in enumerate(maps)}
    count = len(maps)

    def product(a, b):
        if a >= count:
            return a
        if b >= count:
            return b
        return index[comp(maps[a], maps[b])]

    table = np.empty((size, size), dtype=np.int16)
    for a, b in itertools.product(range(size), repeat=2):
        table[order[a], order[b]] = order[product(a, b)]
    return table


@st.composite
def monoid_tables(draw):
    size = draw(st.sampled_from(SIZES))
    point = st.integers(0, 2)
    gens = draw(st.lists(st.tuples(point, point, point), max_size=4))
    return _monoid_table(size, gens, draw(st.permutations(range(size))))


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
