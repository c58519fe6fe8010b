"""Unit-regular elements and semigroups, with the collapse/defect bookkeeping.

The oracle reads each member's first unit inverse, scanned from the member
table once per instance and kept as a list of member positions
(``DerivedData.first_unit_inverse``), and the semigroup oracle reads the
whole list.  The criterion is the regularity criterion on the unit witness
lists (``regularity._witness_lists``): their candidates are the units of
the index semigroup with equal block sizes along them
(``regularity._unit_candidates``, which the semigroup criterion reads
too), tested for every member in one build per instance.  The unit
inverse construction pairs image points with transversal preimages and
matches defect points to collapsed points order-preservingly, block by
block; the unused blocks are carried by order-preserving bijections.
"""

from __future__ import annotations

from .errors import InvalidArgumentError, PreconditionError
from .finite_maps import (
    FiniteMap,
    compose,
    image,
    kernel_partition,
)
from .ensemble import Instance, require_member
from .regularity import (
    Mode,
    _check_mode,
    _each_has_inner_inverse,
    _member_inner_inverse,
    _merges_onto_a_large_block,
    _unit_candidates,
    _witness_position,
    _witnesses,
)


def _require_identity(inst: Instance) -> None:
    if not inst.si.has_identity:
        raise PreconditionError("unit-regularity needs the identity character")


def is_unit_regular_oracle(f: FiniteMap, inst: Instance) -> FiniteMap | None:
    """First unit u in enumeration order with f*u*f = f, if any."""
    _require_identity(inst)
    d = inst.derived
    u = d.first_unit_inverse[require_member(f, inst)]
    return d.members[u] if u >= 0 else None


def unit_regular_witnesses(f: FiniteMap, inst: Instance) -> tuple[FiniteMap, ...]:
    """All index units alpha satisfying the unit-regularity conditions, in
    element order: the regularity conditions and equal block sizes along
    alpha.  The fourth condition, c = d for f|X_alpha(i) and each i in the
    image of chi, cannot fail: once chi*alpha*chi = chi, f maps X_alpha(i)
    into X_i, and as the blocks are finite with |X_i| = |X_alpha(i)|, c and
    d both equal |X_i| - |X_alpha(i) f| (the ``equal-size-c-equals-d`` suite
    checks this lemma)."""
    _require_identity(inst)
    return _witnesses(f, inst, units=True)


def build_unit_inverse(f: FiniteMap, alpha: FiniteMap, inst: Instance) -> FiniteMap:
    """A unit g with character alpha and f*g*f = f.

    On a block X_i hit by the character (with j = alpha(i)): image points of
    f|X_j return to their transversal preimage, and the points of X_i missed
    by f|X_j are matched order-preservingly with the non-transversal points
    of X_j.  Blocks outside the character image are mapped by the
    order-preserving bijection onto their target block.  The built map is
    validated on image tuples: it must be a member u with f*u*f = f whose
    enumerated character is alpha, and a unit by the two-sided-inverse
    definition: a bijection whose inverse is a member too.
    """
    _require_identity(inst)
    k, a = _witness_position(f, alpha, inst, units=True)
    p = inst.partition
    chi_image = set(inst.derived.geometry.chars[k])
    images = [0] * p.n
    for i, b in enumerate(p.blocks):
        target = p.blocks[alpha.images[i]]
        if i in chi_image:
            # f maps `target` into `b`; split b into f(target) and the defect.
            transversal: dict[int, int] = {}
            for x in target:
                transversal.setdefault(f.images[x], x)
            collapsed = [x for x in target if x != transversal[f.images[x]]]
            defect = [x for x in b if x not in transversal]
            for x in b:
                if x in transversal:
                    images[x] = transversal[x]
            for x, y in zip(defect, collapsed):
                images[x] = y
        else:
            for x, y in zip(b, target):
                images[x] = y
    images = tuple(images)
    inverse = {y: x for x, y in enumerate(images)}
    unit = len(inverse) == p.n and tuple(map(inverse.get, range(p.n))) in inst.derived.index
    return _member_inner_inverse(f, images, a, inst, "unit inverse", unit)


def is_unit_regular_semigroup(inst: Instance, mode: Mode = "theorem") -> bool:
    """Whole-semigroup unit-regularity, by exhaustion or the four conditions."""
    _check_mode(mode)
    _require_identity(inst)
    if mode == "oracle":
        return min(inst.derived.first_unit_inverse) >= 0
    si = inst.si
    if not _each_has_inner_inverse(si.table, si.unit_ids):
        return False
    # Finiteness of every block holds structurally for these carriers.
    return len(_unit_candidates(inst)) == len(si.unit_ids) and not _merges_onto_a_large_block(inst)


def make_c_neq_d_map(size_x: int, size_y: int) -> FiniteMap:
    """A map between sets of different sizes whose collapse and defect differ."""
    if size_x < 1 or size_y < 1:
        raise InvalidArgumentError("both sizes must be at least 1")
    if size_x == size_y:
        raise PreconditionError(
            "between equal finite sets every map has equal collapse and defect"
        )
    if size_x < size_y:
        return FiniteMap(size_x, size_y, tuple(range(size_x)))
    images = tuple(min(x, size_y - 1) for x in range(size_x))
    return FiniteMap(size_x, size_y, images)


def fg_image_is_kernel_transversal(f: FiniteMap, g: FiniteMap) -> bool:
    """True iff the image of f*g meets every kernel class of f exactly once."""
    picked = set(image(compose(f, g)))
    return all(len(picked & set(c)) == 1 for c in kernel_partition(f).classes)
