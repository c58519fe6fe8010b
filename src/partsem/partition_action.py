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

from .errors import InvalidArgumentError
from .finite_maps import FiniteMap, _check_points, _fibers, kernel_partition


@dataclass(frozen=True)
class Partition:
    """Blocks of [0, n), indexed by their position in ``blocks``."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise InvalidArgumentError("n must be an integer")
        _check_points(self.blocks)
        object.__setattr__(self, "blocks", tuple(tuple(sorted(b)) for b in self.blocks))
        if not self.blocks:
            raise InvalidArgumentError("a partition needs at least one block")
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise InvalidArgumentError("blocks must be nonempty")
            for x in b:
                if not 0 <= x < self.n:
                    raise InvalidArgumentError(f"element {x} outside [0, {self.n})")
                if x in seen:
                    raise InvalidArgumentError(f"element {x} appears in two blocks")
                seen.add(x)
        if len(seen) != self.n:
            raise InvalidArgumentError("blocks do not cover [0, n)")

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
    least y of X_{alpha(i)} with through[y] == onto[x], else to min X_{alpha(i)}."""
    images = [0] * p.n
    for i, block in enumerate(p.blocks):
        target = p.blocks[alpha[i]]
        for x in block:
            images[x] = next((y for y in target if through[y] == onto[x]), target[0])
    return tuple(images)


def _mask(values: Iterable[int]) -> int:
    """The bitmask with bit v set for each v in values."""
    m = 0
    for v in values:
        m |= 1 << v
    return m


@dataclass(eq=False)
class _Geometry:
    """The block facts of a list of preserving maps of (X, P), given by their
    images and their characters' images: one list per fact, indexed like the
    maps, each built on first use."""

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
    def class_meets(self) -> list[tuple[tuple[int, ...], ...]]:
        """Per map and kernel class, the blocks the class meets, ascending."""
        return [
            tuple(tuple(sorted({self.p.block_of(x) for x in c})) for c in classes)
            for classes in self.kernels
        ]

    @cached_property
    def meet_masks(self) -> list[tuple[int, ...]]:
        """Per map and kernel class, the bitmask of the blocks the class meets."""
        return [tuple(_mask(c) for c in meets) for meets in self.class_meets]

    @cached_property
    def j_geometry(self) -> list[tuple[tuple, tuple, tuple]]:
        """Per map g: its sorted image, the block of each image point and,
        per block j, the sorted positions of X_j g in that image."""
        p = self.p
        geometry = []
        for t in self.images:
            dom = tuple(sorted(set(t)))
            pos = {v: k for k, v in enumerate(dom)}
            geometry.append((
                dom,
                tuple(p.block_of(z) for z in dom),
                tuple(tuple(sorted({pos[t[x]] for x in b})) for b in p.blocks),
            ))
        return geometry


def pi_restricted(f: FiniteMap, a: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The kernel classes of f that meet the subset a."""
    subset = set(a)
    for x in subset:
        if not 0 <= x < f.domain_size:
            raise InvalidArgumentError(f"element {x} outside the domain of f")
    return tuple(c for c in kernel_partition(f).classes if subset & set(c))
