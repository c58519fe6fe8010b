"""Total maps between finite index ranges, their kernels and basic statistics.

Elements of every carrier set are dense 0-based indices.  A map is stored as
its image sequence, so ``f.images[x]`` is the image of ``x``.  Composition is
left to right throughout the package: ``compose(f, g)`` applies ``f`` first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class FiniteMap:
    """A total map [0, domain_size) -> [0, codomain_size) with value semantics."""

    domain_size: int
    codomain_size: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        if type(self.domain_size) is not int or type(self.codomain_size) is not int:
            raise InvalidArgumentError("sizes must be integers")
        if self.domain_size < 0 or self.codomain_size < 0:
            raise InvalidArgumentError("sizes must be nonnegative")
        if len(self.images) != self.domain_size:
            raise InvalidArgumentError(
                f"expected {self.domain_size} images, got {len(self.images)}"
            )
        for x, y in enumerate(self.images):
            if type(y) is not int:
                raise InvalidArgumentError(f"image of {x} is {y!r}, not an integer")
            if not 0 <= y < self.codomain_size:
                raise InvalidArgumentError(
                    f"image of {x} is {y}, outside [0, {self.codomain_size})"
                )

    @classmethod
    def of(cls, images: Sequence[int], codomain_size: int | None = None) -> "FiniteMap":
        """Build from an image sequence; defaults to an endomap."""
        images = tuple(images)
        if codomain_size is None:
            codomain_size = len(images)
        return cls(len(images), codomain_size, images)

    @classmethod
    def identity(cls, n: int) -> "FiniteMap":
        return cls(n, n, tuple(range(n)))

    @classmethod
    def constant(cls, domain_size: int, value: int, codomain_size: int | None = None) -> "FiniteMap":
        if codomain_size is None:
            codomain_size = domain_size
        return cls(domain_size, codomain_size, (value,) * domain_size)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_endomap(self) -> bool:
        return self.domain_size == self.codomain_size

    def is_injective(self) -> bool:
        return len(set(self.images)) == self.domain_size

    def is_bijective(self) -> bool:
        return self.domain_size == self.codomain_size and self.is_injective()

    def inverse(self) -> "FiniteMap":
        if not self.is_bijective():
            raise InvalidArgumentError(f"{self} is not a bijection")
        inv = [0] * self.domain_size
        for x, y in enumerate(self.images):
            inv[y] = x
        return FiniteMap(self.codomain_size, self.domain_size, tuple(inv))

    def __repr__(self) -> str:
        body = ",".join(str(y) for y in self.images)
        if self.codomain_size == self.domain_size:
            return f"[{body}]"
        return f"[{body}]->{self.codomain_size}"


def _sorted_parts(n: int, parts: Sequence[Sequence[object]]) -> tuple[tuple[int, ...], ...]:
    """The parts, each sorted, once they partition [0, n): every point an
    ``int`` (``bool`` refused), checked before anything sorts or compares
    the points, no part empty, every point in range and in one part, and
    every point covered.  The one check of ``SetPartition`` and ``Partition``."""
    if type(n) is not int:
        raise InvalidArgumentError("the size of a partitioned set must be an integer")
    for part in parts:
        for x in part:
            if type(x) is not int:
                raise InvalidArgumentError(f"element {x!r} is not an integer")
    parts = tuple(tuple(sorted(part)) for part in parts)
    seen: set[int] = set()
    for part in parts:
        if not part:
            raise InvalidArgumentError("parts must be nonempty")
        for x in part:
            if not 0 <= x < n:
                raise InvalidArgumentError(f"element {x} outside [0, {n})")
            if x in seen:
                raise InvalidArgumentError(f"element {x} appears in two parts")
            seen.add(x)
    if len(seen) != n:
        raise InvalidArgumentError(f"the parts do not cover [0, {n})")
    return parts


@dataclass(frozen=True)
class SetPartition:
    """A partition of [0, ground_size) in canonical form.

    Classes are sorted ascending and listed by their minimum element, so
    structural equality coincides with equality of partitions.
    """

    ground_size: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # the classes are disjoint, so sorting them sorts them by their minima
        classes = sorted(_sorted_parts(self.ground_size, self.classes))
        object.__setattr__(self, "classes", tuple(classes))

    def __len__(self) -> int:
        return len(self.classes)

    def __repr__(self) -> str:
        return "{" + "|".join(",".join(map(str, c)) for c in self.classes) + "}"


def compose(f: FiniteMap, g: FiniteMap) -> FiniteMap:
    """Left-to-right composite: x -> g(f(x))."""
    if f.codomain_size != g.domain_size:
        raise InvalidArgumentError(
            f"cannot compose: codomain {f.codomain_size} != domain {g.domain_size}"
        )
    return FiniteMap(f.domain_size, g.codomain_size, tuple(g.images[y] for y in f.images))


def image(f: FiniteMap) -> tuple[int, ...]:
    """The image set of f, sorted ascending."""
    return tuple(sorted(set(f.images)))


def _fibers(images: Sequence[int]) -> dict[int, list[int]]:
    """Each value -> the points sent to it, ascending, in order of least point."""
    fibers: dict[int, list[int]] = {}
    for x, y in enumerate(images):
        fibers.setdefault(y, []).append(x)
    return fibers


def _first_equal(values: Iterable) -> list[int]:
    """Per value, the position of the first value equal to it."""
    first: dict = {}
    return [first.setdefault(v, k) for k, v in enumerate(values)]


def kernel_partition(f: FiniteMap) -> SetPartition:
    """The partition of the domain into fibers of f."""
    return SetPartition(f.domain_size, tuple(tuple(c) for c in _fibers(f.images).values()))


def canonical_transversal(f: FiniteMap) -> tuple[int, ...]:
    """The least element of each kernel class, sorted ascending: the fibers
    come in order of their least points."""
    return tuple(c[0] for c in _fibers(f.images).values())


def collapse_defect(f: FiniteMap) -> tuple[int, int]:
    """(c, d): points collapsed by f and codomain points missed by f; f has
    one kernel class per image point."""
    rank = len(_fibers(f.images))
    return f.domain_size - rank, f.codomain_size - rank


def refines(p: SetPartition, q: SetPartition) -> bool:
    """True iff every class of p is contained in some class of q."""
    if p.ground_size != q.ground_size:
        raise InvalidArgumentError(
            f"ground sizes differ: {p.ground_size} != {q.ground_size}"
        )
    owner = {}
    for k, c in enumerate(q.classes):
        for x in c:
            owner[x] = k
    return all(len({owner[x] for x in c}) == 1 for c in p.classes)


def is_idempotent_def(f: FiniteMap) -> bool:
    """True iff f composed with itself equals f (endomaps only), compared on
    image tuples: the composite's images are f's read at f's images."""
    if not f.is_endomap():
        raise InvalidArgumentError("idempotency is defined for endomaps only")
    t = f.images
    return tuple(map(t.__getitem__, t)) == t


def all_endomaps(n: int) -> Iterable[FiniteMap]:
    """All n^n endomaps of [0, n), in lexicographic image order."""
    for images in itertools.product(range(n), repeat=n):
        yield FiniteMap(n, n, images)


def all_maps(domain_size: int, codomain_size: int) -> Iterable[FiniteMap]:
    """All maps [0, domain_size) -> [0, codomain_size), lexicographically."""
    for images in itertools.product(range(codomain_size), repeat=domain_size):
        yield FiniteMap(domain_size, codomain_size, images)
