"""Regular elements, idempotents and the regular/inverse semigroup tests.

Every decision procedure exists twice: a brute-force oracle straight from the
definition, and the structural characterization in terms of the character and
the block geometry.  The two are kept strictly separate so the harness can
compare them: oracles read products from the instance's member product table,
criteria only from the index semigroup's table.  The element oracles read
each member's first inner and first unit inverse, scanned from the member
table once per instance and kept as lists of member positions
(``DerivedData.first_inverse`` and ``first_unit_inverse``), and the
semigroup oracles read the whole lists.  The idempotency criterion is
decided for every member at once, the first time a member is asked about
(``_idempotent_verdicts``), and its verdict list is kept on the derived
data: it reads the diagonal of the members' block-fit table and one gather
on their image array (``_Geometry.image_array``).

The regularity and unit-regularity criteria share one home, the witness
lists of every member (``_witness_lists``), built for the whole instance
the first time a member is asked about, one build per units flag, and kept
on its derived data.  The build reads no member table and no
``character``: chi*alpha*chi = chi comes from the index table, with chi
the position enumeration recorded, and the rest of the criterion from the
members' block-fit tables (``_Geometry.block_fits``, one per instance for
both flags, read off the members' image array, not off their block masks,
which only the Green's theorem route reads), a block of member rows at a
time.  The unit candidates are the one equal-block-size test
(``_unit_candidates``), which the unit-regular semigroup criterion reads
too.  A member's witness list is one slice of a flat int32 array, which
the inverse builders bisect.  The builders validate on image tuples
(``ensemble._built_member``), so neither needs the member table.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from typing import Literal

import numpy as np

from .errors import InvalidArgumentError, PreconditionError
from .finite_maps import FiniteMap
from .ensemble import (
    Instance,
    IndexSemigroup,
    _built_member,
    _first_inner_inverses,
    _idempotent_ids,
    _inner_hits,
    _row_blocks,
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


def _unit_candidates(inst: Instance) -> np.ndarray:
    """The units of S(I) with equal block sizes along them, ascending: the
    unit-regularity criterion's candidates and its one block-size test."""
    si, sizes = inst.si, np.array([len(b) for b in inst.partition.blocks])
    alphas = np.array([si.elements[u].images for u in si.unit_ids.tolist()], dtype=np.intp)
    return si.unit_ids[(sizes[alphas.reshape(-1, len(sizes))] == sizes).all(axis=1)]


def _witness_lists(inst: Instance, units: bool) -> tuple[array, array]:
    """Every member's witness positions, ascending: member k's are
    ``flat[offsets[k]:offsets[k + 1]]``.  Built for the whole instance on
    first use, a block of member rows at a time, and kept on its derived data.

    The candidates are every alpha in S(I), or for units the units with
    equal block sizes along alpha.  chi*alpha*chi = chi is read from the
    index table with chi the member's ``char_ids`` entry, and X_j meets the
    image of f inside X_{alpha(j)}f from the members' block fits
    (``_Geometry.block_fits``, built once for both flags): X_j meets no
    image point off im chi, so every block j is tested alike.
    """
    d = inst.derived
    lists = d.witness_lists.get(units)
    if lists is not None:
        return lists
    si, degree = inst.si, inst.partition.degree
    table, fits = si.table, d.geometry.block_fits
    positions = (_unit_candidates(inst) if units else np.arange(len(si))).astype(np.int32)
    # per block j, alpha(j) of every candidate, in the least dtype holding a
    # block: with the positions the build's only arrays besides its lists,
    # as the characters are read a block of rows at a time
    targets = np.array([si.elements[a].images for a in positions.tolist()],
                       dtype=np.min_scalar_type(degree)).reshape(-1, degree).T
    flat, offsets = array("i"), array("q", [0])
    # a row's largest temporaries: its hit mask, one block's test, and the
    # passing places (intp), their positions and the positions' bytes
    for start, stop in _row_blocks(len(d.char_ids), 18 * len(positions)):
        chi = np.array(d.char_ids[start:stop], dtype=np.intp)[:, None]
        hits = _inner_hits(table, table[chi, positions].astype(np.intp), chi)
        for j, target in enumerate(targets):
            hits &= fits[start:stop, j, target]
        at = hits.reshape(-1).nonzero()[0]
        at %= len(positions)
        flat.frombytes(positions[at].tobytes())
        offsets.extend((offsets[-1] + np.count_nonzero(hits, axis=1).cumsum()).tolist())
        del hits, at  # before the next block's are made
    lists = d.witness_lists[units] = flat, offsets
    return lists


def _witnesses(f: FiniteMap, inst: Instance, units: bool) -> tuple[FiniteMap, ...]:
    """The criterion's witness characters for f, in element order."""
    k = require_member(f, inst)
    flat, offsets = _witness_lists(inst, units)
    return tuple(map(inst.si.elements.__getitem__, flat[offsets[k]:offsets[k + 1]]))


def _witness_position(
    f: FiniteMap, alpha: FiniteMap, inst: Instance, units: bool
) -> tuple[int, int]:
    """The positions of f and of alpha once alpha is one of f's witnesses."""
    k = require_member(f, inst)
    a = inst.si.position(alpha)
    if a is not None:
        flat, offsets = _witness_lists(inst, units)
        s = bisect_left(flat, a, offsets[k], offsets[k + 1])
        if s < offsets[k + 1] and flat[s] == a:
            return k, a
    kind = "unit-regularity" if units else "regular-character"
    raise PreconditionError(f"{alpha} is not a {kind} witness for {f}")


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
        return min(inst.derived.first_inverse) >= 0
    return si_is_regular(inst.si) and not _merges_onto_a_large_block(inst)


def idempotents(inst: Instance) -> tuple[FiniteMap, ...]:
    members = enumerate_elements(inst)
    return tuple(members[k] for k in _idempotent_ids(inst.derived.table))


def _idempotent_verdicts(inst: Instance) -> list[bool]:
    """Per member, the idempotency criterion's verdict, decided for every
    member in one pass on first use and kept on the derived data.

    The paper's first conjunct, chi(f) idempotent, is implied by the block
    test and not read: X_i f inside X_{chi(i)} f puts X_{chi(i)} f, which
    lies in X_{chi(chi(i))}, in X_{chi(i)}.  As X_i f lies in X_{chi(i)},
    every X_i f is inside X_{chi(i)} f exactly when every block X_j meets
    the image of f inside X_j f: the diagonal of the members' block fits
    (``_Geometry.block_fits``).  x lies in a block chi(f) fixes exactly
    when f(x) lies in the block of x, and f*f = f is read there by one
    gather on the members' image array (``_Geometry.image_array``).
    """
    d = inst.derived
    if d.idempotent_verdicts is None:
        diagonal = np.arange(inst.partition.degree)
        images = d.geometry.image_array
        block_of = np.array(inst.partition._block_lookup)
        settled = (np.take_along_axis(images, images, axis=1) == images) | (
            block_of[images] != block_of)
        verdicts = (d.geometry.block_fits[:, diagonal, diagonal].all(axis=1)
                    & settled.all(axis=1))
        d.idempotent_verdicts = verdicts.tolist()
    return d.idempotent_verdicts


def is_idempotent_characterized(f: FiniteMap, inst: Instance) -> bool:
    """Idempotency via the character and block images: chi(f) idempotent,
    each X_i f inside X_{chi(f)(i)} f, and f*f = f on the blocks chi(f)
    fixes, read from the verdicts decided once per instance
    (``_idempotent_verdicts``)."""
    k = require_member(f, inst)
    return _idempotent_verdicts(inst)[k]


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
