"""Index semigroups over I and enumeration of the induced transformation semigroup.

An ``Instance`` pins down one semigroup of study: the preserving self-maps of
X whose character lies in the chosen composition-closed set of self-maps of I.
Enumeration goes character by character: the fiber over alpha is the product
of all block maps X_i -> X_{alpha(i)}.

Products are never formed map by map in the oracles.  An index semigroup and
an instance's member set each carry one integer product table in the style
of Froidure & Pin ("Algorithms for computing finite semigroups", 1997):
``table[a, b]`` is the position of the composite of elements a and b, and
every oracle reads products from it.  The derived data, where members
are enumerated, refuses an instance above the enumeration cap on every
route, and ``_built_member`` validates every map a witness builder builds.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InternalError, InvalidArgumentError, PreconditionError, ResourceLimitError
from .finite_maps import FiniteMap, compose
from .partition_action import Partition, _Geometry

DEFAULT_ENUMERATION_CAP = 100_000
DENSE_CODE_LIMIT = 1 << 20  # largest n**n served by a dense code -> position array
ROW_BLOCK_BYTES = 1 << 18  # temporaries of one block of a whole-table build or scan


def _row_blocks(rows: int, row_bytes: int):
    """(start, stop) of consecutive blocks of ``rows`` rows, each at least
    one row and, at ``row_bytes`` bytes of temporaries a row, of about
    ROW_BLOCK_BYTES bytes."""
    step = max(1, ROW_BLOCK_BYTES // max(row_bytes, 1))
    for start in range(0, rows, step):
        yield start, min(start + step, rows)


def product_table(imgs: np.ndarray) -> np.ndarray:
    """``table[a, b]`` = position of the map with images ``imgs[b, imgs[a]]``
    (a, then b: compose(a, b)) among the rows of ``imgs``, or -1.

    ``imgs`` holds distinct self-maps of [0, n) as the rows of one
    maps × n intp array, in lexicographic order.  The table is int16 below
    2**15 maps and int32 above, and is filled a block of rows at a time
    (``_row_blocks``), so no temporary grows with the square of the map
    count.  Positions are looked up through the mixed-radix code
    sum(image[x] * n**(n-1-x)) in a dense code -> position array while n**n
    is at most DENSE_CODE_LIMIT, and through a dict of image tuples beyond
    that.

    The dense codes of a block of rows are one float32 matrix product,
    ``W[rows] @ imgs.T``: ``W[a, y]`` sums n**(n-1-x) over the x with
    a(x) = y, so row a times the images of b is the code of a then b.  The
    product is exact: every term and every partial sum, in whatever order
    the product adds them, is a non-negative integer at most the code
    n**n - 1 < DENSE_CODE_LIMIT <= 2**24, and float32 holds every integer
    up to 2**24.
    """
    size, n = imgs.shape
    table = np.empty((size, size), dtype=np.int16 if size < 2**15 else np.int32)
    if n**n <= DENSE_CODE_LIMIT:
        radix = n ** np.arange(n - 1, -1, -1, dtype=np.intp)
        code_to_pos = np.full(n**n, -1, dtype=table.dtype)
        code_to_pos[imgs @ radix] = np.arange(size)
        weights = np.bincount((imgs + n * np.arange(size)[:, None]).reshape(-1),
                              np.tile(radix, size), size * n)
        weights = weights.astype(np.float32).reshape(size, n)
        targets = imgs.T.astype(np.float32)
        # a row's temporaries: its float32 codes and their int32 copy; every
        # code is in range, so "clip" changes none and spares take's buffer
        for start, stop in _row_blocks(size, 8 * size):
            codes = (weights[start:stop] @ targets).astype(np.int32)
            code_to_pos.take(codes, out=table[start:stop], mode="clip")
    else:
        index = {t: k for k, t in enumerate(map(tuple, imgs.tolist()))}
        for a in range(size):
            table[a] = [index.get(tuple(t), -1) for t in imgs[:, imgs[a]].tolist()]
    return table


def _two_sided_inverse_ids(table: np.ndarray, identity: int) -> np.ndarray:
    """Positions a with some b such that a*b and b*a are both the identity.

    Scanned a block of rows at a time: the pairs with a*b the identity are
    found in the block's rows, and b*a is read at those pairs alone.
    """
    size = len(table)
    found = np.zeros(size, dtype=bool)
    for start, stop in _row_blocks(size, size):
        a, b = np.divmod((table[start:stop] == identity).reshape(-1).nonzero()[0], size)
        a += start
        found[a[table[b, a] == identity]] = True
    return found.nonzero()[0]


def _first_inner_inverses(table: np.ndarray, candidates: np.ndarray | None = None) -> np.ndarray:
    """Per position a, the place in ``candidates`` (every position when None)
    of the first b with a*b*a = a, or -1.

    Scanned a block of rows at a time (``_first_hits``), each block sized by
    the sum of a row's temporaries: its products a*b widened to intp, the
    a*b*a read from them and the hit mask.
    """
    size = len(table)
    first = np.empty(size, dtype=np.intp)
    # every column as a slice, so a block's rows are read without a gather
    columns, width = (slice(None), size) if candidates is None else (candidates, len(candidates))
    for start, stop in _row_blocks(size, (9 + table.itemsize) * width):
        first[start:stop] = _first_hits(table, start, stop, columns)
    return first


def _first_hits(table: np.ndarray, start: int, stop: int, columns) -> np.ndarray:
    """``_first_inner_inverses`` on rows start to stop."""
    a = np.arange(start, stop)[:, None]
    # C order, so the take reads the positions in place
    hits = _inner_hits(table, table[start:stop, columns].astype(np.intp, order="C"), a)
    hit = hits.argmax(axis=1)
    return np.where(hits[np.arange(stop - start), hit], hit, -1)


def _inner_hits(table: np.ndarray, ab: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Whether a*b*a = a, per product a*b in ``ab`` and a the column of its
    rows' a.  a*b*a is read by one take on the flat table: ``ab``, widened to
    intp in C order and handed over unnamed, is made the flat positions in
    place and freed before the comparison's mask is made."""
    ab *= len(table)
    ab += a
    products = table.take(ab)
    del ab
    return products == a.astype(table.dtype)


def _idempotent_ids(table: np.ndarray) -> np.ndarray:
    """Positions a with a*a = a."""
    return (np.diagonal(table) == np.arange(len(table))).nonzero()[0]


@dataclass(frozen=True)
class IndexSemigroup:
    """An explicit composition-closed set of self-maps of [0, degree).

    ``table[a, b]`` is the position of ``compose(elements[a], elements[b])``
    and ``index`` maps an image tuple to its position; both are derived from
    the elements and take no part in equality or hashing.
    """

    degree: int
    elements: tuple[FiniteMap, ...]
    has_identity: bool = field(init=False)
    table: np.ndarray = field(init=False, repr=False, compare=False)
    index: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.elements), key=lambda m: m.images))
        object.__setattr__(self, "elements", canon)
        if not canon:
            raise InvalidArgumentError("an index semigroup needs at least one element")
        for m in canon:
            if m.domain_size != self.degree or m.codomain_size != self.degree:
                raise InvalidArgumentError(f"{m} is not a self-map of [0, {self.degree})")
        images = [m.images for m in canon]
        table = product_table(np.array(images, dtype=np.intp).reshape(len(canon), self.degree))
        missing = np.argwhere(table < 0)
        if len(missing):
            a, b = (canon[int(k)] for k in missing[0])
            raise InvalidArgumentError(
                f"not closed under composition: {a} * {b} = {compose(a, b)} is missing"
            )
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "index", {t: k for k, t in enumerate(images)})
        object.__setattr__(self, "has_identity", tuple(range(self.degree)) in self.index)

    @cached_property
    def unit_ids(self) -> np.ndarray:
        """Positions of the units, ascending; empty without an identity."""
        if not self.has_identity:
            return np.zeros(0, dtype=np.intp)
        return _two_sided_inverse_ids(self.table, self.index[tuple(range(self.degree))])

    def position(self, m: FiniteMap) -> int | None:
        """The position of m among the elements, or None when m is not one."""
        k = self.index.get(m.images)
        return k if k is not None and self.elements[k] == m else None

    @classmethod
    def full(cls, degree: int) -> "IndexSemigroup":
        """All degree^degree self-maps of I."""
        elements = tuple(
            FiniteMap(degree, degree, images)
            for images in itertools.product(range(degree), repeat=degree)
        )
        return cls(degree, elements)

    @classmethod
    def symmetric(cls, degree: int) -> "IndexSemigroup":
        """All permutations of I."""
        elements = tuple(
            FiniteMap(degree, degree, images)
            for images in itertools.permutations(range(degree))
        )
        return cls(degree, elements)

    @classmethod
    def trivial(cls, degree: int) -> "IndexSemigroup":
        return cls(degree, (FiniteMap.identity(degree),))

    @classmethod
    def identity_with_constants(cls, degree: int) -> "IndexSemigroup":
        elements = [FiniteMap.identity(degree)]
        elements += [FiniteMap.constant(degree, j) for j in range(degree)]
        return cls(degree, tuple(elements))

    def __contains__(self, m: FiniteMap) -> bool:
        return self.position(m) is not None

    def __len__(self) -> int:
        return len(self.elements)


def closure_from_generators(gens: Iterable[FiniteMap]) -> IndexSemigroup:
    """The smallest composition-closed superset of the generators, closed
    on image tuples by ``_right_closure``."""
    gens = tuple(gens)
    if not gens:
        raise InvalidArgumentError("at least one generator is required")
    degree = gens[0].domain_size
    for g in gens:
        if g.domain_size != degree or g.codomain_size != degree:
            raise InvalidArgumentError("generators must be self-maps of one set")
    closure = _right_closure([g.images for g in gens], lambda a, g: tuple(g[y] for y in a))
    return IndexSemigroup(degree, tuple(FiniteMap(degree, degree, t) for t in closure))


def _right_closure(gens: Sequence, multiply: Callable) -> list:
    """The generators and every product of them, in order of discovery:
    each new element is multiplied on the right by each generator, which
    reaches every product (Froidure & Pin, 1997)."""
    elements = dict.fromkeys(gens)
    frontier = list(elements)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                c = multiply(a, g)
                if c not in elements:
                    elements[c] = None
                    fresh.append(c)
        frontier = fresh
    return list(elements)


@dataclass(frozen=True)
class Instance:
    """One partitioned set together with its admissible character set."""

    partition: Partition
    si: IndexSemigroup

    def __post_init__(self) -> None:
        if self.si.degree != self.partition.degree:
            raise InvalidArgumentError(
                f"index semigroup degree {self.si.degree} != "
                f"number of blocks {self.partition.degree}"
            )

    def __repr__(self) -> str:
        return f"Instance({self.partition!r}, |si|={len(self.si)})"

    @cached_property
    def derived(self) -> "DerivedData":
        """The instance's derived data, built on first use and owned by it;
        an instance above DEFAULT_ENUMERATION_CAP members is refused before
        any member is built (``enumerate_elements`` builds it under its cap)."""
        _check_size(predicted_size(self), DEFAULT_ENUMERATION_CAP)
        return DerivedData(self)

    def drop_derived(self) -> None:
        """Free the derived data; the next use of ``derived`` builds it afresh."""
        self.__dict__.pop("derived", None)


class DerivedData:
    """Everything computed from one instance's member set.

    Kept on its ``Instance`` until ``Instance.drop_derived``: the members in
    enumeration order, their positions, per member the index-set position
    of the character it was enumerated under (``char_ids``) and the
    members' block facts (``geometry``), then, each on first use, the
    product table, the unit positions (``unit_ids``) and each member's first
    inner and first unit inverse as member positions, -1 for none, in
    lists (``first_inverse``, ``first_unit_inverse``), which the element
    oracles read.  ``witness_lists`` holds, per units flag asked for, every
    member's regularity or unit-regularity witness positions as one flat
    int32 array with row offsets, ``idempotent_verdicts`` every member's
    idempotency criterion verdict in a list, and ``greens`` the
    Green's-relations data, once ``partsem.regularity`` and
    ``partsem.greens`` have built them.
    """

    def __init__(self, inst: Instance) -> None:
        p = inst.partition
        # a member's images fix its character, so each is found under one alpha
        found: dict[tuple[int, ...], int] = {}
        for a, alpha in enumerate(inst.si.elements):
            choices = [p.blocks[alpha.images[p.block_of(x)]] for x in range(p.n)]
            found.update(dict.fromkeys(itertools.product(*choices), a))
        ordered = sorted(found)
        self.n = p.n
        self.members = tuple(FiniteMap(p.n, p.n, images) for images in ordered)
        self.index = {m.images: k for k, m in enumerate(self.members)}
        self.char_ids = [found[images] for images in ordered]
        chars = [inst.si.elements[a].images for a in self.char_ids]
        self.geometry = _Geometry(ordered, chars, p)
        self.witness_lists: dict[bool, tuple[array, array]] = {}
        self.idempotent_verdicts: list[bool] | None = None
        self.greens = None

    @cached_property
    def table(self) -> np.ndarray:
        """``table[f, g]`` = position of compose(members[f], members[g]),
        built from the members' image array (``geometry.image_array``)."""
        return product_table(self.geometry.image_array)

    @cached_property
    def unit_ids(self) -> np.ndarray:
        """Positions of the members with a two-sided inverse, ascending."""
        return _two_sided_inverse_ids(self.table, self.index[tuple(range(self.n))])

    @cached_property
    def first_inverse(self) -> list[int]:
        """Per member f, the position of the first g in enumeration order
        with f*g*f = f, or -1."""
        return _first_inner_inverses(self.table).tolist()

    @cached_property
    def first_unit_inverse(self) -> list[int]:
        """Per member f, the position of the first unit u in enumeration
        order with f*u*f = f, or -1."""
        first = _first_inner_inverses(self.table, self.unit_ids)
        return np.where(first >= 0, self.unit_ids[first], -1).tolist()


def predicted_size(inst: Instance) -> int:
    """Closed-form member count: sum over characters of the block-map products."""
    sizes = [len(b) for b in inst.partition.blocks]
    total = 0
    for alpha in inst.si.elements:
        total += math.prod(sizes[alpha.images[i]] ** sizes[i] for i in range(len(sizes)))
    return total


def _check_size(size: int, cap: int) -> None:
    if size > cap:
        raise ResourceLimitError(f"instance has {size} members, above the cap of {cap}")


def enumerate_elements(inst: Instance, cap: int | None = None) -> tuple[FiniteMap, ...]:
    """All members in lexicographic image order; refuses an instance above
    ``cap`` members (DEFAULT_ENUMERATION_CAP, read at the call, when None)
    and builds the derived data under that cap.  Once the derived data
    exists, its member count is what the cap is checked against."""
    cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if cap < 0:
        raise InvalidArgumentError(f"cap must be non-negative, got {cap}")
    d = inst.__dict__.get("derived")
    if d is None:
        _check_size(predicted_size(inst), cap)
        d = inst.__dict__["derived"] = DerivedData(inst)
    else:
        _check_size(len(d.members), cap)
    return d.members


def is_member(f: FiniteMap, inst: Instance) -> bool:
    if f.domain_size != inst.partition.n or f.codomain_size != inst.partition.n:
        return False
    return f.images in inst.derived.index


def require_member(f: FiniteMap, inst: Instance) -> int:
    """The position of f in enumeration order; raises when f is not a member."""
    k = inst.derived.index.get(f.images)  # a hit fixes the domain size
    if k is None or f.codomain_size != inst.partition.n:
        raise InvalidArgumentError(f"{f} is not a member of {inst!r}")
    return k


def _built_member(
    data, kind: str, images: tuple[int, ...], c: int, holds: Callable[[int], bool]
) -> int:
    """The position of the member a witness builder built with these images,
    once it was enumerated under character position c and ``holds``, the
    builder's own equation, passes at that position; else the builder's
    ``InternalError``.  The one validation of every built map: ``data`` (an
    instance's derived or Green's data) is read for ``index`` and ``char_ids``."""
    k = data.index.get(images)
    if k is None or data.char_ids[k] != c or not holds(k):
        raise InternalError(
            f"the {kind} {FiniteMap(len(images), len(images), images)} fails validation"
        )
    return k


def units(inst: Instance) -> tuple[FiniteMap, ...]:
    """Members with a two-sided inverse in the member set, in enumeration order."""
    if not inst.si.has_identity:
        raise PreconditionError("units require the identity character")
    d = inst.derived
    return tuple(d.members[k] for k in d.unit_ids)


def index_units(si: IndexSemigroup) -> tuple[FiniteMap, ...]:
    """Units of the index semigroup, by the two-sided-inverse definition."""
    return tuple(si.elements[k] for k in si.unit_ids)


def index_idempotents(si: IndexSemigroup) -> tuple[FiniteMap, ...]:
    return tuple(si.elements[k] for k in _idempotent_ids(si.table))
