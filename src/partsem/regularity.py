"""Regular elements, idempotents and the regular/inverse semigroup tests.

Every decision procedure exists twice: a brute-force oracle straight from the
definition, and the structural characterization in terms of the character and
the block geometry.  The two are kept strictly separate so the harness can
compare them: oracles read products from the instance's member product table,
criteria only from the index semigroup's table.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Literal

import numpy as np

from .errors import InternalError, InvalidArgumentError, PreconditionError
from .finite_maps import FiniteMap
from .ensemble import (
    Instance,
    IndexSemigroup,
    _idempotent_ids,
    enumerate_elements,
    require_member,
)
from .partition_action import _least_lift

Mode = Literal["oracle", "theorem"]


def _check_mode(mode: str) -> None:
    if mode not in ("oracle", "theorem"):
        raise InvalidArgumentError(f"unknown mode {mode!r}")


def is_regular_oracle(f: FiniteMap, inst: Instance) -> FiniteMap | None:
    """First g in enumeration order with f*g*f = f, if any."""
    k = require_member(f, inst)
    d = inst.derived
    hits = (d.table[d.table[k], k] == k).nonzero()[0]
    return d.members[hits[0]] if len(hits) else None


def _merges_onto_a_large_block(inst: Instance) -> bool:
    """True when some character sends two blocks onto one non-singleton block."""
    sizes = [len(b) for b in inst.partition.blocks]
    return any(
        count >= 2 and sizes[j] != 1
        for alpha in inst.si.elements
        for j, count in Counter(alpha.images).items()
    )


def _regular_witness_test(f: FiniteMap, inst: Instance) -> tuple[int, Callable[[int], bool]]:
    """The position of chi(f) in the index set and the regularity criterion
    as a test on one index-set position alpha.

    alpha qualifies when chi(f)*alpha*chi(f) = chi(f) and, for every block
    index i hit by chi(f), X_i intersected with the image of f sits inside
    the f-image of X_{alpha(i)}.  On block-image masks, X_i meets the image
    of f in the union of the X_j f with chi(f)(j) = i.
    """
    k = require_member(f, inst)
    geometry = inst.derived.geometry
    chi, blk_img = inst.derived.char_ids[k], geometry.block_masks[k]
    si = inst.si
    table = si.table
    meets: dict[int, int] = {}
    for j, i in enumerate(geometry.chars[k]):
        meets[i] = meets.get(i, 0) | blk_img[j]

    def test(a: int) -> bool:
        alpha = si.elements[a].images
        return table[table[chi, a], chi] == chi and all(
            meet & ~blk_img[alpha[i]] == 0 for i, meet in meets.items()
        )

    return chi, test


def regular_character_witnesses(f: FiniteMap, inst: Instance) -> tuple[FiniteMap, ...]:
    """All alpha in the index set making f regular, in element order."""
    chi, test = _regular_witness_test(f, inst)
    table = inst.si.table
    candidates = (table[table[chi], chi] == chi).nonzero()[0]
    return tuple(inst.si.elements[a] for a in candidates if test(a))


def build_inner_inverse(f: FiniteMap, alpha: FiniteMap, inst: Instance) -> FiniteMap:
    """The canonical inner inverse with character alpha.

    Image points go to their least preimage inside the designated block;
    everything else goes to block basepoints (block minima).  The built map
    is validated on the member table: it must be a member g with f*g*f = f
    whose enumerated character is alpha.
    """
    _, test = _regular_witness_test(f, inst)
    a = inst.si.position(alpha)
    if a is None or not test(a):
        raise PreconditionError(f"{alpha} is not a regular-character witness for {f}")
    p, d = inst.partition, inst.derived
    images = _least_lift(alpha.images, p, f.images, range(p.n))
    # f is a member: the witness test looked it up
    fk, gk = d.index[f.images], d.index.get(images)
    if gk is None or d.table[d.table[fk, gk], fk] != fk or d.char_ids[gk] != a:
        g = FiniteMap(p.n, p.n, images)
        raise InternalError(f"the inner inverse {g} built for {f} and {alpha} fails validation")
    return d.members[gk]


def si_is_regular(si: IndexSemigroup) -> bool:
    """Brute-force regularity of the index semigroup."""
    table = si.table
    return all((table[table[a], a] == a).any() for a in range(len(table)))


def si_is_inverse(si: IndexSemigroup) -> bool:
    """Brute force: every element has exactly one mutual inner inverse."""
    table = si.table
    ids = np.arange(len(table))
    for a in ids:
        partners = (table[table[a], a] == a) & (table[table[:, a], ids] == ids)
        if np.count_nonzero(partners) != 1:
            return False
    return True


def is_regular_semigroup(inst: Instance, mode: Mode = "theorem") -> bool:
    """Whole-semigroup regularity, by exhaustion or by the two structural conditions."""
    _check_mode(mode)
    if mode == "oracle":
        return all(is_regular_oracle(f, inst) is not None for f in enumerate_elements(inst))
    return si_is_regular(inst.si) and not _merges_onto_a_large_block(inst)


def idempotents(inst: Instance) -> tuple[FiniteMap, ...]:
    members = enumerate_elements(inst)
    return tuple(members[k] for k in _idempotent_ids(inst.derived.table))


def is_idempotent_characterized(f: FiniteMap, inst: Instance) -> bool:
    """Idempotency via the character and block images: chi(f) idempotent,
    each X_i f inside X_{chi(f)(i)} f, and f*f = f on the blocks chi(f) fixes."""
    k = require_member(f, inst)
    c = inst.derived.char_ids[k]
    if inst.si.table[c, c] != c:
        return False
    geometry = inst.derived.geometry
    chi, blk_img, t = geometry.chars[k], geometry.block_masks[k], f.images
    blocks = inst.partition.blocks
    return all(blk_img[i] & ~blk_img[j] == 0 for i, j in enumerate(chi)) and all(
        t[t[x]] == t[x] for i, j in enumerate(chi) if i == j for x in blocks[i]
    )


def is_inverse_semigroup(inst: Instance, mode: Mode = "theorem") -> bool:
    """Inverse-semigroup test: oracle uses commuting idempotents, theorem the index conditions."""
    _check_mode(mode)
    if mode == "oracle":
        if not is_regular_semigroup(inst, "oracle"):
            return False
        es = _idempotent_ids(inst.derived.table)
        products = inst.derived.table[np.ix_(es, es)]
        return bool((products == products.T).all())
    if not si_is_inverse(inst.si):
        return False
    sizes = [len(b) for b in inst.partition.blocks]
    for a in _idempotent_ids(inst.si.table):
        if any(sizes[i] != 1 for i in set(inst.si.elements[a].images)):
            return False
    return True
