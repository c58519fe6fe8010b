"""Shared brute-force helpers kept independent of the package internals.

Everything here works on raw image tuples so that tests can cross-check the
library against a second, self-contained computation path.
"""

import itertools

import numpy as np
import pytest

from partsem import IndexSemigroup, Instance, Partition


def comp(f, g):
    """Left-to-right composite of raw image tuples."""
    return tuple(g[f[x]] for x in range(len(f)))


def block_lookup(blocks):
    lookup = {}
    for i, b in enumerate(blocks):
        for x in b:
            lookup[x] = i
    return lookup


def raw_preserves(f, blocks):
    lookup = block_lookup(blocks)
    return all(len({lookup[f[x]] for x in b}) == 1 for b in blocks)


def raw_character(f, blocks):
    lookup = block_lookup(blocks)
    return tuple(lookup[f[b[0]]] for b in blocks)


def brute_members(blocks, si_tuples):
    """All preserving endomaps with admissible character, lexicographically."""
    n = sum(len(b) for b in blocks)
    si = set(si_tuples)
    return [
        f
        for f in itertools.product(range(n), repeat=n)
        if raw_preserves(f, blocks) and raw_character(f, blocks) in si
    ]


def boolean_products(l_below, r_below):
    """The reference Green's relations of a member set, by N×N×N boolean
    products of its ≤_L and ≤_R matrices (NumPy's boolean ``@`` is OR of
    ANDs, so no count wraps): ``r_below @ l_below`` (f ≤_J g, f = h1*g*h2),
    ``l_eq @ r_eq`` (D = L∘R) and ``r_eq @ l_eq`` (R∘L)."""
    l_eq, r_eq = l_below & l_below.T, r_below & r_below.T
    return r_below @ l_below, l_eq @ r_eq, r_eq @ l_eq


def unpack_below(ideals):
    """The N×N boolean ``below[f, g]``, f below g, of packed principal ideals
    (``greens._ideals``: bit f of row g), for small instances."""
    return np.unpackbits(ideals, axis=1, count=len(ideals), bitorder="little").T.astype(bool)


def pack_below(below):
    """The packed principal ideals of an N×N boolean ``below[f, g]``: the
    inverse of ``unpack_below``."""
    return np.packbits(below.T, axis=1, bitorder="little")


def preorders(data):
    """(l_below, r_below), N×N booleans, of a Green's data's member ideals."""
    return unpack_below(data.l_ideals), unpack_below(data.r_ideals)


def drop_edge(ideals, f, g):
    """Clear f below g in packed principal ideals, in place."""
    ideals[g, f >> 3] &= np.uint8(0xFF ^ 1 << (f & 7))


def full_ti(degree):
    return list(itertools.product(range(degree), repeat=degree))


def sym_ti(degree):
    return list(itertools.permutations(range(degree)))


@pytest.fixture(scope="session")
def p22():
    return Partition.of([[0, 1], [2, 3]])


@pytest.fixture(scope="session")
def inst_full(p22):
    """The 64-member instance over two blocks of two with all characters."""
    return Instance(p22, IndexSemigroup.full(2))


@pytest.fixture(scope="session")
def inst_trivial_si(p22):
    """The 16-member instance with only the identity character."""
    return Instance(p22, IndexSemigroup.trivial(2))


@pytest.fixture(scope="session")
def inst_sym(p22):
    return Instance(p22, IndexSemigroup.symmetric(2))
