"""Regular elements, idempotents and the regular/inverse semigroup tests.

Every decision procedure exists twice: a brute-force oracle straight from the
definition, and the structural characterization in terms of the character and
the block geometry.  The two are kept strictly separate so the harness can
compare them: oracles read products from the instance's member product table,
criteria only from the index semigroup's table.

The regularity and unit-regularity criteria share one home, a witness plan
per character (``_WitnessPlan``), kept on the instance's derived data and
built the first time a member with that character is asked about.  A call
tests each group of the plan once on f's block images; the inner and unit
inverse builders test their alpha's group alone, and validate the
map they build on image tuples, so neither needs the member table.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from itertools import compress
from typing import Iterator, Literal, Sequence

import numpy as np

from .errors import InternalError, InvalidArgumentError, PreconditionError
from .finite_maps import FiniteMap
from .ensemble import (
    Instance,
    IndexSemigroup,
    _idempotent_ids,
    _row_blocks,
    enumerate_elements,
    require_member,
)
from .partition_action import _Geometry, _least_lift

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


class _WitnessPlan:
    """The witness candidates of one character chi, in element order and
    grouped by their restriction to im chi.

    The candidates are the alpha in S(I) with chi*alpha*chi = chi; a unit
    plan keeps only the units of S(I) with equal block sizes along alpha.
    The regularity criterion asks, besides, that X_i meet the image of f
    inside X_{alpha(i)} f for each i in im chi, which reads alpha only on
    im chi: one test per group decides all of its candidates.  ``points``
    is im chi ascending, ``keys`` alpha on ``points`` per group, and
    ``positions`` and ``groups`` the candidates' positions and groups.
    """

    __slots__ = ("points", "keys", "positions", "groups", "__weakref__")

    def __init__(self, si: IndexSemigroup, chi: int, sizes: Sequence[int] | None) -> None:
        table = si.table
        ids = np.arange(len(si)) if sizes is None else si.unit_ids
        ids = ids[table[table[chi, ids], chi] == chi].tolist()
        imgs = [si.elements[a].images for a in ids]
        if sizes is not None:
            keep = [all(sizes[i] == sizes[j] for i, j in enumerate(t)) for t in imgs]
            ids, imgs = list(compress(ids, keep)), list(compress(imgs, keep))
        self.points = tuple(sorted(set(si.elements[chi].images)))
        index: dict[tuple[int, ...], int] = {}
        groups = [index.setdefault(tuple(t[i] for i in self.points), len(index)) for t in imgs]
        self.keys = tuple(index)
        self.positions = array("i", ids)
        self.groups = array("i", groups)

    def passing(self, geometry: _Geometry, k: int, keys: Sequence) -> list[bool]:
        """Per group key of ``keys``, whether it passes the criterion for
        member k.  On block-image masks, X_i meets the image of f in the union
        of the X_j f with chi(j) = i."""
        blk_img = geometry.block_masks[k]
        meets = [0] * len(blk_img)
        for j, i in enumerate(geometry.chars[k]):
            meets[i] |= blk_img[j]
        return [
            all(meets[i] & ~blk_img[t] == 0 for i, t in zip(self.points, key))
            for key in keys
        ]

    def witnesses(self, geometry: _Geometry, k: int) -> Iterator[int]:
        """The positions of the candidates that pass for member k, ascending."""
        passing = self.passing(geometry, k, self.keys)
        return compress(self.positions, map(passing.__getitem__, self.groups))

    def admits(self, geometry: _Geometry, k: int, a: int) -> bool:
        """Whether position a is a candidate whose group passes for member k."""
        s = bisect_left(self.positions, a)
        if s == len(self.positions) or self.positions[s] != a:
            return False
        return self.passing(geometry, k, [self.keys[self.groups[s]]])[0]


def _witness_plan(inst: Instance, k: int, units: bool) -> _WitnessPlan:
    """The plan of member k's character, built on first use and kept on the
    instance's derived data."""
    d = inst.derived
    key = (d.char_ids[k], units)
    plan = d.witness_plans.get(key)
    if plan is None:
        sizes = [len(b) for b in inst.partition.blocks] if units else None
        plan = d.witness_plans[key] = _WitnessPlan(inst.si, key[0], sizes)
    return plan


def _witnesses(f: FiniteMap, inst: Instance, units: bool) -> tuple[FiniteMap, ...]:
    """The criterion's witness characters for f, in element order."""
    k = require_member(f, inst)
    positions = _witness_plan(inst, k, units).witnesses(inst.derived.geometry, k)
    return tuple(map(inst.si.elements.__getitem__, positions))


def _witness_position(
    f: FiniteMap, alpha: FiniteMap, inst: Instance, units: bool
) -> tuple[int, int]:
    """The positions of f and of alpha once alpha is one of f's witnesses."""
    k = require_member(f, inst)
    a = inst.si.position(alpha)
    if a is None or not _witness_plan(inst, k, units).admits(inst.derived.geometry, k, a):
        kind = "unit-regularity" if units else "regular-character"
        raise PreconditionError(f"{alpha} is not a {kind} witness for {f}")
    return k, a


def regular_character_witnesses(f: FiniteMap, inst: Instance) -> tuple[FiniteMap, ...]:
    """All alpha in the index set making f regular, in element order."""
    return _witnesses(f, inst, units=False)


def _member_inner_inverse(
    f: FiniteMap, images: tuple[int, ...], a: int, inst: Instance
) -> int | None:
    """The position of the member g with these images when f*g*f = f and g
    has character position a, read on image tuples; else None."""
    d = inst.derived
    gk = d.index.get(images)
    t = f.images
    if gk is None or d.char_ids[gk] != a or any(t[images[y]] != y for y in t):
        return None
    return gk


def build_inner_inverse(f: FiniteMap, alpha: FiniteMap, inst: Instance) -> FiniteMap:
    """The canonical inner inverse with character alpha.

    Image points go to their least preimage inside the designated block;
    everything else goes to block basepoints (block minima).  The built map
    is validated on image tuples: it must be a member g with f*g*f = f
    whose enumerated character is alpha.
    """
    _, a = _witness_position(f, alpha, inst, units=False)
    p = inst.partition
    images = _least_lift(alpha.images, p, f.images, range(p.n))
    gk = _member_inner_inverse(f, images, a, inst)
    if gk is None:
        g = FiniteMap(p.n, p.n, images)
        raise InternalError(f"the inner inverse {g} built for {f} and {alpha} fails validation")
    return inst.derived.members[gk]


def _each_has_inner_inverse(table: np.ndarray, candidates: np.ndarray) -> bool:
    """Whether every element a has some b among ``candidates`` with a*b*a = a,
    scanned a block of rows at a time."""
    for start, stop in _row_blocks(len(table), 16 * len(candidates)):
        a = np.arange(start, stop)[:, None]
        if not (table[table[start:stop, candidates], a] == a).any(axis=1).all():
            return False
    return True


def si_is_regular(si: IndexSemigroup) -> bool:
    """Brute-force regularity of the index semigroup."""
    return _each_has_inner_inverse(si.table, np.arange(len(si)))


def si_is_inverse(si: IndexSemigroup) -> bool:
    """Brute force: every element has exactly one mutual inner inverse,
    scanned a block of rows at a time."""
    table = si.table
    ids = np.arange(len(table))
    for start, stop in _row_blocks(len(table), 24 * len(table)):
        a = ids[start:stop, None]
        partners = (table[table[start:stop], a] == a) & (table[table[:, start:stop].T, ids] == ids)
        if (np.count_nonzero(partners, axis=1) != 1).any():
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
