"""The partitioned set (X, P), characters, block decompositions, units and
the block facts of preserving maps (``_Geometry``) that the criteria read.

A ``Partition`` carries the blocks X_i in a fixed order; the position of a
block is its index in I.  A map preserves the partition when every block
lands inside a single block, and its character is the induced self-map of I.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .finite_maps import FiniteMap, _fibers, _sorted_parts, kernel_partition


@dataclass(frozen=True)
class Partition:
    """Blocks of [0, n), indexed by their position in ``blocks``."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", _sorted_parts(self.n, self.blocks))
        if not self.blocks:
            raise InvalidArgumentError("a partition needs at least one block")

    @classmethod
    def of(cls, blocks: Sequence[Sequence[int]]) -> "Partition":
        n = sum(len(b) for b in blocks)
        return cls(n, tuple(tuple(b) for b in blocks))

    @cached_property
    def _block_lookup(self) -> tuple[int, ...]:
        lookup = [0] * self.n
        for i, b in enumerate(self.blocks):
            for x in b:
                lookup[x] = i
        return tuple(lookup)

    @cached_property
    def block_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(b) for b in self.blocks)

    def block_of(self, x: int) -> int:
        if not 0 <= x < self.n:
            raise InvalidArgumentError(f"element {x} outside [0, {self.n})")
        return self._block_lookup[x]

    @property
    def degree(self) -> int:
        return len(self.blocks)

    def is_trivial(self) -> bool:
        """Single block, or all blocks singleton."""
        return len(self.blocks) == 1 or all(len(b) == 1 for b in self.blocks)

    def __repr__(self) -> str:
        return "P" + str([list(b) for b in self.blocks])


@dataclass(frozen=True)
class BlockMapping:
    """One restriction f|X_i, re-coordinatized over the sorted blocks."""

    source_block: int
    target_block: int
    local_map: FiniteMap  # positions in X_source -> positions in X_target


@dataclass(frozen=True)
class BlockDecomposition:
    """The indexed family of all block restrictions of one preserving map."""

    entries: tuple[BlockMapping, ...]


def preserves_partition(f: FiniteMap, p: Partition) -> bool:
    """True iff every block of p maps into a single block."""
    if f.domain_size != p.n or f.codomain_size != p.n:
        raise InvalidArgumentError(
            f"map on {f.domain_size}->{f.codomain_size} points does not act on [0, {p.n})"
        )
    for b in p.blocks:
        targets = {p.block_of(f.images[x]) for x in b}
        if len(targets) > 1:
            return False
    return True


def character(f: FiniteMap, p: Partition) -> FiniteMap:
    """The induced self-map of I sending i to the block index of f(X_i)."""
    if not preserves_partition(f, p):
        raise InvalidArgumentError(f"{f} does not preserve {p}")
    chi = tuple(p.block_of(f.images[b[0]]) for b in p.blocks)
    return FiniteMap(p.degree, p.degree, chi)


def block_maps(f: FiniteMap, p: Partition) -> BlockDecomposition:
    """All restrictions f|X_i in local block coordinates."""
    chi = character(f, p)  # also validates preservation
    entries = []
    for i, b in enumerate(p.blocks):
        j = chi.images[i]
        target = p.blocks[j]
        pos = {x: k for k, x in enumerate(target)}
        local = FiniteMap(len(b), len(target), tuple(pos[f.images[x]] for x in b))
        entries.append(BlockMapping(i, j, local))
    return BlockDecomposition(tuple(entries))


def reassemble(bd: BlockDecomposition, p: Partition) -> FiniteMap:
    """Rebuild the global map from its block decomposition."""
    images = [0] * p.n
    for entry in bd.entries:
        source = p.blocks[entry.source_block]
        target = p.blocks[entry.target_block]
        for k, x in enumerate(source):
            images[x] = target[entry.local_map.images[k]]
    return FiniteMap(p.n, p.n, tuple(images))


def is_unit_bijection(f: FiniteMap, p: Partition) -> bool:
    """Membership in S(X, P): all block restrictions and the character
    bijective, which for a preserving map is f and its character bijective."""
    return character(f, p).is_bijective() and f.is_bijective()  # character checks f preserves p


def is_E_preserving(phi: FiniteMap, dom: Sequence[int], p: Partition) -> bool:
    """True iff phi (acting on the sorted subset dom) keeps blocks together."""
    dom = tuple(sorted(dom))
    if phi.domain_size != len(dom):
        raise InvalidArgumentError(
            f"phi acts on {phi.domain_size} points but dom has {len(dom)}"
        )
    if phi.codomain_size != p.n:
        raise InvalidArgumentError(f"phi values must range over [0, {p.n})")
    if len(set(dom)) != len(dom) or not all(0 <= x < p.n for x in dom):
        raise InvalidArgumentError(f"dom {list(dom)} is not a set of points of [0, {p.n})")
    targets: dict[int, int] = {}
    for k, x in enumerate(dom):
        i = p.block_of(x)
        j = p.block_of(phi.images[k])
        if targets.setdefault(i, j) != j:
            return False
    return True


def lift_character(
    alpha: FiniteMap, p: Partition, basepoints: Sequence[int] | None = None
) -> FiniteMap:
    """A preserving map with character alpha, constant on each block.

    Every x in X_i is sent to the basepoint of X_{alpha(i)}; basepoints
    default to block minima.
    """
    if alpha.domain_size != p.degree or alpha.codomain_size != p.degree:
        raise InvalidArgumentError(
            f"character must be a self-map of [0, {p.degree})"
        )
    if basepoints is None:
        basepoints = tuple(b[0] for b in p.blocks)
    else:
        basepoints = tuple(basepoints)
        if len(basepoints) != p.degree:
            raise InvalidArgumentError("one basepoint per block required")
        for i, x in enumerate(basepoints):
            if x not in p.block_sets[i]:
                raise InvalidArgumentError(f"basepoint {x} not in block {i}")
    images = [0] * p.n
    for i, b in enumerate(p.blocks):
        value = basepoints[alpha.images[i]]
        for x in b:
            images[x] = value
    return FiniteMap(p.n, p.n, tuple(images))


def _least_lift(
    alpha: Sequence[int], p: Partition, through: Sequence[int], onto: Sequence[int]
) -> tuple[int, ...]:
    """The least-preimage lift: the images of the map sending x in X_i to the
    least y of X_{alpha(i)} with through[y] == onto[x], else to min X_{alpha(i)}.
    Per block, the least y of each value of through on the target block is
    one dict, filled in descending y so the least is written last."""
    images = [0] * p.n
    for i, block in enumerate(p.blocks):
        target = p.blocks[alpha[i]]
        if len(target) == 1:
            for x in block:
                images[x] = target[0]
            continue
        least = {through[y]: y for y in reversed(target)}
        for x in block:
            images[x] = least.get(onto[x], target[0])
    return tuple(images)


def _mask(values: Iterable[int]) -> int:
    """The bitmask with bit v set for each v in values."""
    m = 0
    for v in values:
        m |= 1 << v
    return m


class _MaskImages(dict):
    """{m: the mask of {alpha(i) : bit i of m}} for an index map alpha, over
    the block masks m read, each built on first read: a table over every
    mask would hold 2**d ints however few masks the maps' classes meet."""

    def __init__(self, alpha: Sequence[int]) -> None:
        self.alpha = alpha

    def __missing__(self, m: int) -> int:
        image = self[m] = _mask(j for i, j in enumerate(self.alpha) if m >> i & 1)
        return image


@dataclass(eq=False)
class _Geometry:
    """The block facts of a list of preserving maps of (X, P), given by their
    images and their characters' images: one list per fact, indexed like the
    maps, each built on first use.  The lists: ``block_masks``, ``kernels``,
    ``char_kernels``, ``meet_masks``, ``sorted_images`` and ``j_geometry``;
    the arrays: ``image_array``, the images as one maps × n array, which the
    member product table and the idempotency verdicts read too, and the
    witness table ``block_fits``, read off the image array."""

    images: Sequence[tuple[int, ...]]
    chars: Sequence[tuple[int, ...]]
    p: Partition

    @cached_property
    def block_masks(self) -> list[tuple[int, ...]]:
        """Per map f and block i, X_i f as a bitmask."""
        return [tuple(_mask(t[x] for x in b) for b in self.p.blocks) for t in self.images]

    @cached_property
    def kernels(self) -> list[tuple[tuple[int, ...], ...]]:
        """Per map, its kernel classes, ordered by their least points."""
        return [tuple(map(tuple, _fibers(t).values())) for t in self.images]

    @cached_property
    def char_kernels(self) -> list[tuple[tuple[int, ...], ...]]:
        """Per map, the kernel classes of its character, ordered by their
        least blocks; one tuple per distinct character, shared."""
        classes = {c: tuple(map(tuple, _fibers(c).values())) for c in set(self.chars)}
        return [classes[c] for c in self.chars]

    @cached_property
    def meet_masks(self) -> list[tuple[int, ...]]:
        """Per map and kernel class, the bitmask of the blocks the class meets."""
        lookup = self.p._block_lookup
        return [tuple(_mask(lookup[x] for x in c) for c in classes) for classes in self.kernels]

    @cached_property
    def sorted_images(self) -> list[tuple[int, ...]]:
        """Per map, its image, ascending."""
        return [tuple(sorted(set(t))) for t in self.images]

    @cached_property
    def j_geometry(self) -> list[tuple[tuple, tuple]]:
        """Per map g: the block of each point of its sorted image and, per
        block j, the sorted positions of X_j g in that image."""
        lookup = self.p._block_lookup
        geometry = []
        for t, dom in zip(self.images, self.sorted_images):
            pos = {v: k for k, v in enumerate(dom)}
            geometry.append((
                tuple(lookup[z] for z in dom),
                tuple(tuple(sorted({pos[t[x]] for x in b})) for b in self.p.blocks),
            ))
        return geometry

    @cached_property
    def image_array(self) -> np.ndarray:
        """The images as the rows of one maps × n intp array."""
        return np.array(self.images, dtype=np.intp).reshape(len(self.images), self.p.n)

    @cached_property
    def block_fits(self) -> np.ndarray:
        """Per map f and blocks j and j', whether X_j meets the image of f
        inside X_{j'} f: the regularity witnesses' block test, maps × d × d,
        whose diagonal the idempotency criterion reads.

        Read off ``image_array`` a block of maps at a time, with no bitmask
        and so no bound on n: one scatter marks hit[f, j', y], y in X_{j'} f;
        a point of im f that X_{j'} f misses is made a miss in place, and
        one boolean product with the n × d block indicator finds, per j,
        whether a miss lies in X_j."""
        from .ensemble import _row_blocks  # ensemble imports this module

        images, n, d = self.image_array, self.p.n, self.p.degree
        block_of = np.array(self.p._block_lookup, dtype=np.intp)
        indicator = np.zeros((n, d), dtype=bool)
        indicator[np.arange(n), block_of] = True
        fits = np.empty((len(images), d, d), dtype=bool)
        # a row's temporaries: its scatter positions and the two intp
        # columns they are made from, hit and miss (one array), im f and the
        # product
        for start, stop in _row_blocks(len(images), 9 * n + 16 + d * n + d * d):
            at = np.arange(stop - start)[:, None] * d + block_of
            at *= n
            at += images[start:stop]
            hit = np.zeros((stop - start, d, n), dtype=bool)
            hit.reshape(-1)[at.reshape(-1)] = True
            del at
            image = hit.any(axis=1)
            np.logical_not(hit, out=hit)
            hit &= image[:, None, :]
            np.logical_not((hit @ indicator).transpose(0, 2, 1), out=fits[start:stop])
        return fits


def _blocks_fit(bf: tuple[int, ...], bg: tuple[int, ...], alpha: Sequence[int]) -> bool:
    """X_i f inside X_{alpha(i)} g for every i, on the block-image masks of f and g."""
    return all(bf[i] & ~bg[j] == 0 for i, j in enumerate(alpha))


def pi_restricted(f: FiniteMap, a: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The kernel classes of f that meet the subset a."""
    subset = set(a)
    for x in subset:
        if not 0 <= x < f.domain_size:
            raise InvalidArgumentError(f"element {x} outside the domain of f")
    return tuple(c for c in kernel_partition(f).classes if subset & set(c))
