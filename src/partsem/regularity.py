"""Regular elements, idempotents and the regular/inverse semigroup tests.

Every decision procedure exists twice: a brute-force oracle straight from the
definition, and the structural characterization in terms of the character and
the block geometry.  The two are kept strictly separate so the harness can
compare them: oracles read products from the instance's member product table,
criteria only from the index semigroup's table.  The element oracles read
each member's first inner and first unit inverse, scanned from the member
table once per instance (``DerivedData.first_inverse`` and
``first_unit_inverse``).

The regularity and unit-regularity criteria share one home, a witness plan
per character (``_WitnessPlan``), kept on the instance's derived data and
built the first time a member with that character is asked about.  Besides
the character, the plan's test reads f only through its block-image masks:
the plan tests each of its groups once per masks tuple and keeps the
passing positions under it, which the witness lists and the inner and unit
inverse builders read; a character with one member passes every candidate
and keeps nothing.  The builders validate on image tuples
(``ensemble._built_member``), so neither needs the member table.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from itertools import compress
from typing import Literal, Sequence

import numpy as np

from .errors import InvalidArgumentError, PreconditionError
from .finite_maps import FiniteMap
from .ensemble import (
    Instance,
    IndexSemigroup,
    _built_member,
    _first_inner_inverses,
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
    d = inst.derived
    g = d.first_inverse[require_member(f, inst)]
    return d.members[g] if g >= 0 else None


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
    Besides chi, the test reads f only through its block-image masks, so
    ``memo`` keeps the passing positions once per masks tuple asked about.
    It is None when chi has one member, which alone would read it: each
    block of im chi is then one point, and every candidate passes, as
    X_{alpha(i)} f lies in X_{chi(alpha(i))} = X_i and is not empty.
    """

    __slots__ = ("points", "keys", "positions", "groups", "memo", "__weakref__")

    def __init__(self, si: IndexSemigroup, chi: int, sizes: Sequence[int], units: bool) -> None:
        table = si.table
        ids = si.unit_ids if units else np.arange(len(si))
        ids = ids[table[table[chi, ids], chi] == chi].tolist()
        imgs = [si.elements[a].images for a in ids]
        if units:
            keep = [all(sizes[i] == sizes[j] for i, j in enumerate(t)) for t in imgs]
            ids, imgs = list(compress(ids, keep)), list(compress(imgs, keep))
        self.points = tuple(sorted(set(si.elements[chi].images)))
        index: dict[tuple[int, ...], int] = {}
        groups = [index.setdefault(tuple(t[i] for i in self.points), len(index)) for t in imgs]
        self.keys = tuple(index)
        self.positions = array("i", ids)
        self.groups = array("i", groups)
        self.memo = {} if any(sizes[i] > 1 for i in self.points) else None

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

    def witnesses(self, geometry: _Geometry, k: int) -> array:
        """The positions of the candidates that pass for member k, ascending,
        tested once per block-mask tuple: all of them when chi has one member."""
        if self.memo is None:
            return self.positions
        masks = geometry.block_masks[k]
        found = self.memo.get(masks)
        if found is None:
            passing = self.passing(geometry, k, self.keys)
            found = array("i", compress(self.positions, map(passing.__getitem__, self.groups)))
            self.memo[masks] = found
        return found

    def admits(self, geometry: _Geometry, k: int, a: int) -> bool:
        """Whether position a is a candidate that passes for member k."""
        found = self.witnesses(geometry, k)
        s = bisect_left(found, a)
        return s < len(found) and found[s] == a


def _witness_plan(inst: Instance, k: int, units: bool) -> _WitnessPlan:
    """The plan of member k's character, built on first use and kept on the
    instance's derived data."""
    d = inst.derived
    key = (d.char_ids[k], units)
    plan = d.witness_plans.get(key)
    if plan is None:
        sizes = [len(b) for b in inst.partition.blocks]
        plan = d.witness_plans[key] = _WitnessPlan(inst.si, key[0], sizes, units)
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
    f: FiniteMap, images: tuple, a: int, inst: Instance, kind: str, unit: bool = True
) -> FiniteMap:
    """The member g with these images, the ``kind`` built for f, once it has
    character position a, ``unit`` holds and f*g*f = f, read on image
    tuples (``_built_member``).  Both inverse builders' validation."""
    d, t = inst.derived, f.images
    k = _built_member(d, kind, images, a, lambda _: unit and all(t[images[y]] == y for y in t))
    return d.members[k]


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
    return _member_inner_inverse(f, images, a, inst, "inner inverse")


def _each_has_inner_inverse(table: np.ndarray, candidates: np.ndarray | None = None) -> bool:
    """Whether every element a has some b among ``candidates`` (every
    element when None) with a*b*a = a."""
    return bool((_first_inner_inverses(table, candidates) >= 0).all())


def si_is_regular(si: IndexSemigroup) -> bool:
    """Brute-force regularity of the index semigroup."""
    return _each_has_inner_inverse(si.table)


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
