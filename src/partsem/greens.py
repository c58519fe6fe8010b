"""Green's relations via ideal oracles and via the character-level criteria.

The oracle route reads the instance's product table: the one-sided ≤_L and
≤_R preorders are the principal ideals, packed a bit a pair (``_ideals``:
row g holds S*g or g*S, so f ≤ g is bit f of row g, read by one gather and
one mask, ``_bits``), and ≤_J is read off the class quotient built from
them.  The theorem route never reads them: it reads the candidate
characters (alpha, beta, gamma, delta) at the positions of chi(f) and
chi(g) from the per-instance memo of index-semigroup facts
(``_IndexFacts``: left and right divisors, R-classes and J alphas, each
read from the index table once, on first ask, and the mask images, each
index map's image of the block masks read, which the D class matching
reads in place of the map), and searches the block
geometry for the class bijections and image maps
demanded by the structural criteria, handing index positions to the
builders, which validate what they build by one function
(``ensemble._built_member``).  Both routes produce replayable witnesses: a
witness is its relation and its factor transformations, whose composites
reproduce the claimed ideal memberships.  The maps the criteria name
besides the factors (the index maps, the D class pairing, the J image
maps) are functions of the factors and the pair, read off them in one place
(``witness_maps``, with ``_INDEX_MAPS`` naming the factor of each index
map) only where they are shown.  Each theorem search reads of the members only
their characters and the geometry lists ``_THEOREM_READS`` names (the
members' theorem keys, ``_GreensData.theorem_keys``, computed once per
instance), and each oracle verdict depends on them only through their L-
and R-classes (the oracles read the class quotient), so a caller deciding
many pairs (the harness's Green's sweep) may take one verdict per pair of
those keys.  On member positions, each relation is decided by three
functions, each returning positions and called by name: the oracle's
``_oracle_witness`` (the quotient's verdict, then ``_first_factor``'s
scans, with an ``InternalError`` where the quotient relates a pair that no
scan reaches) gives the factors of the witness, in the order ``_FACTORS``
names them, or None; the theorem's ``_search`` reads of the pair only its
theorem keys, and ``_build`` turns the pair and what the search found into
factors, validated.  The searches and builds read their
facts through the memo object their caller hands them: ``_UNKEPT``, which
computes each afresh, from the public checkers; from the harness's Green's
sweep, one ``_Kept`` per entry, which keeps the builders by member positions
and the one-sided L, R and J searches by the pair's theorem keys, so each is
computed once however many pairs use it.  The sweep decides many pairs at
once (``_oracle_rows``, ``_theorem_rows``): the oracle's factors by array
gathers on the table and the packed R ideals, a block of pairs at a time,
and each theorem search once per key group (``_key_groups``), each build
once per related pair; a related pair with a factor no scan reaches is a
fault there.
``l_related`` to ``j_related`` share one front end (``_related``), the one
place that looks f and g up (``require_member``) and wraps positions into a
``GreenWitness``.  Each relation's factor equations have one home
(``_EQUATIONS``), read by the two replays, which recompute every product and
never read the table: ``verify_witness``, the public one, composes the image
tuples of a witness's maps, checking each composition's sizes as ``compose``
does; ``_replay_rows``, the sweep's, replays many rows of factor positions
at once on the members' N×n image array (``_Geometry.image_array``), a
block of rows at a time, one gather per factor.
The per-instance data keeps, each built once on first use, the left ideals
of S(I) (only the harness's character descent reads them), the theorem
keys and the class quotient, as NumPy arrays: part 1 (``classes``), each
member's R- and L-class (the first member with equal ideal bytes: the
members and S(I) are monoids, so f lies in its own ideals) and the first
member of each H-class, which the D labels (``d_label``, which ``eggbox``
groups by) read; part 2 (``j_below``), ≤_J on classes, built only when a J
question asks, from the ideals at the classes' first members.  Its verdict,
on one pair or on arrays of pairs, has one home: ``_quotient_related``.
Each member's block facts (block images, kernel classes and the masks of
the blocks they meet, sorted images, J geometry) come from the members'
geometry (``inst.derived.geometry``), characters from the positions
enumeration recorded (``inst.derived.char_ids``); the L criterion and its
builder share the block-containment test of the idempotency criterion
(``partition_action._blocks_fit``), the R builder tests refinement with
``finite_maps.refines``, and the left factor, the left J factor and the
inner inverse share one least-preimage lift.  ``txp_green``,
the criteria specialized to the full character set T(I), reads a geometry
too: of its two maps, or of all members for a caller deciding many pairs,
who hands it one ``_Kept`` for each map's J covers and one-sided J verdicts
(built on first ask) and may decide once per pair of theorem keys, grouped
as the theorem searches are (``_key_groups``).

All operations here require the identity character in the index semigroup.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal

import numpy as np

from .errors import InternalError, InvalidArgumentError, PreconditionError, ResourceLimitError
from .finite_maps import FiniteMap, _fibers, _first_equal, image, kernel_partition, refines
from .ensemble import Instance, _built_member, _row_blocks, enumerate_elements, require_member
from .partition_action import (
    Partition, _Geometry, _MaskImages, _blocks_fit, _least_lift, _mask, character,
    preserves_partition,
)
from .regularity import _check_mode

Relation = Literal["L", "R", "D", "J"]

DEFAULT_PHI_CAP = 1_000_000  # assignments tried by the phi searches

ClassPairing = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


@dataclass(frozen=True)
class GreenWitness:
    """Replayable evidence for one relation verdict: the relation and its factors.

    ``factors`` hold the transformations that realize the ideal memberships:
    for L, ``fg`` satisfies f = fg * g; for R, f = g * fg; for J, the pair
    ``fg1``/``fg2`` satisfies f = fg1 * g * fg2 (and symmetrically for the
    ``gf`` names).  A D witness carries the middle element plus the four
    one-sided factors tying f to it and it to g.  The index maps, class
    pairing and image maps of the criteria are read off the factors by
    ``witness_maps``.
    """

    relation: str
    factors: tuple[tuple[str, FiniteMap], ...] = ()

    def factor(self, name: str) -> FiniteMap:
        return dict(self.factors)[name]


# Each relation's factor names, in the order its witness's positions come.
_FACTORS = {
    "L": ("fg", "gf"),
    "R": ("fg", "gf"),
    "D": ("middle", "l_fm", "l_mf", "r_mg", "r_gm"),
    "J": ("fg1", "fg2", "gf1", "gf2"),
}

# Each relation's factor equations, the one home of the replays: pairs
# (product, target), the product's maps composed left to right.  "f" and "g"
# name the pair; every other name is a factor of the witness.
_EQUATIONS: dict[str, tuple[tuple[tuple[str, ...], str], ...]] = {
    "L": ((("fg", "g"), "f"), (("gf", "f"), "g")),
    "R": ((("g", "fg"), "f"), (("f", "gf"), "g")),
    "D": (
        (("l_fm", "middle"), "f"),
        (("l_mf", "f"), "middle"),
        (("g", "r_mg"), "middle"),
        (("middle", "r_gm"), "g"),
    ),
    "J": ((("fg1", "g", "fg2"), "f"), (("gf1", "f", "gf2"), "g")),
}


def verify_witness(w: GreenWitness, f: FiniteMap, g: FiniteMap) -> bool:
    """Replay the factor equations of a witness on its maps' image tuples.

    Every side is recomputed from the maps themselves, never read from a
    product table, so the replay stays independent of the search it checks.
    Each composition checks the sizes ``compose`` checks, and each side is
    compared as (domain, codomain, images), as ``FiniteMap`` equality
    compares.  A missing factor fails the replay.
    """
    if w.relation not in _EQUATIONS:
        raise InvalidArgumentError(f"unknown relation {w.relation!r}")
    maps = {**dict(w.factors), "f": f, "g": g}
    try:
        for names, target in _EQUATIONS[w.relation]:
            first = maps[names[0]]
            images, codomain = first.images, first.codomain_size
            for name in names[1:]:
                then = maps[name]
                if codomain != then.domain_size:
                    raise InvalidArgumentError(
                        f"cannot compose: codomain {codomain} != domain {then.domain_size}"
                    )
                then_images = then.images
                images = tuple([then_images[x] for x in images])
                codomain = then.codomain_size
            goal = maps[target]
            if (first.domain_size, codomain, images) != (
                goal.domain_size, goal.codomain_size, goal.images
            ):
                return False
    except KeyError:
        return False
    return True


def _replay_rows(rel: str, images: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``verify_witness`` on member positions, for many witnesses of ``rel``
    at once: per row (f, g, *factors), the factors in ``_FACTORS`` order,
    whether every factor equation holds on ``images``, the members' N×n
    image array.  A block of rows at a time, each equation takes one gather
    per factor; the product table is never read.  A position outside [0, N)
    fails its row."""
    size, n = images.shape
    ok = ((rows >= 0) & (rows < size)).all(axis=1)
    rows = np.where(ok[:, None], rows, 0)  # NumPy would read -1 as the last member
    # a row's temporaries: a composite's images, as intp positions, and the target's
    for start, stop in _row_blocks(len(rows), 16 * n):
        at = dict(zip(("f", "g", *_FACTORS[rel]), rows[start:stop].T))
        for names, target in _EQUATIONS[rel]:
            composite = images[at[names[0]]]
            for name in names[1:]:
                composite = images[at[name][:, None], composite]
            ok[start:stop] &= (composite == images[at[target]]).all(axis=1)
    return ok


# Each relation's index maps, each the character of the factor named beside it.
_INDEX_MAPS: dict[str, tuple[tuple[str, str], ...]] = {
    "L": (("alpha", "fg"), ("beta", "gf")),
    "R": (("beta_fg", "fg"), ("beta_gf", "gf")),
    "D": (("alpha", "l_fm"), ("beta", "l_mf"), ("gamma", "middle")),
    "J": (("alpha", "fg1"), ("beta", "fg2"), ("gamma", "gf1"), ("delta", "gf2")),
}


def witness_maps(
    w: GreenWitness, f: FiniteMap, g: FiniteMap, p: Partition
) -> tuple[dict[str, FiniteMap], ClassPairing | None, dict[str, FiniteMap]]:
    """The index maps, the D class pairing and the J image maps of a witness
    on the pair f, g of an instance with partition p, read off its factors.

    An index map is the character of the factor ``_INDEX_MAPS`` names; the D
    pairing matches each kernel class of f with the class of the middle
    element where the middle takes f's value (None for L, R and J); phi is
    fg2 on the sorted image of g and psi is gf2 on that of f (empty but for
    J).  Only image tuples and the partition are read.  The witness must
    replay: then the middle takes f's values, each on one of its classes,
    and J-related maps have equal rank, so the maps are well defined.
    """
    if not verify_witness(w, f, g):
        raise InvalidArgumentError(f"the {w.relation} witness does not replay on {f} and {g}")
    factors = dict(w.factors)
    index_maps = {
        name: FiniteMap(p.degree, p.degree,
                        tuple(p.block_of(factors[factor].images[b[0]]) for b in p.blocks))
        for name, factor in _INDEX_MAPS[w.relation]
    }
    pairing, image_maps = None, {}
    if w.relation == "D":
        middle = _fibers(factors["middle"].images)
        pairing = tuple((tuple(c), tuple(middle[v])) for v, c in _fibers(f.images).items())
    if w.relation == "J":
        for name, factor, target in (("phi", "fg2", g), ("psi", "gf2", f)):
            dom, h = sorted(set(target.images)), factors[factor].images
            image_maps[name] = FiniteMap(len(dom), p.n, tuple(h[x] for x in dom))
    return index_maps, pairing, image_maps


_BIT = 1 << np.arange(8, dtype=np.uint8)  # the mask of bit k of a byte


def _ideals(table: np.ndarray) -> np.ndarray:
    """The principal right ideals of a monoid's product table, packed: row g
    holds g*S, a bit a member, f at bit f % 8 of byte f // 8, so f ≤_R g is
    bit f of row g, and the padding bits are zero; of the transposed table,
    the left ideals S*g, f ≤_L g.  Each block of rows is scattered into a
    boolean block and packed."""
    size = len(table)
    ideals = np.empty((size, -(-size // 8)), dtype=np.uint8)
    # a row's temporaries: its widened positions, its boolean row and the
    # block before's
    for start, stop in _row_blocks(size, 10 * size):
        at = table[start:stop].astype(np.intp)
        at += np.arange(0, at.size, size)[:, None]
        dense = np.zeros(at.shape, dtype=bool)
        dense.reshape(-1)[at] = True
        del at
        ideals[start:stop] = np.packbits(dense, axis=1, bitorder="little")
    return ideals


def _bits(ideals: np.ndarray, f, rows=slice(None)):
    """Nonzero where f is below the member of each row of ``rows`` (every
    member by default): byte f // 8 of each row, masked, by one gather;
    ``[k, i]`` for an array f, f[i] below rows[k].  No padding bit is read."""
    return ideals[:, f >> 3][rows] & _BIT[f & 7]


class _IndexFacts:
    """The facts of the index semigroup S(I) that the theorem searches read.

    A search's candidates depend only on the pair (chi(f), chi(g)), so each
    fact is built on first ask and kept, under an int key, for as long as
    the instance lives, in one of five kinds: four are tuples of positions
    of S(I), ascending, each one read of the index table (or of its right
    ideals) under the key c * |S(I)| + t, and equal ones share one tuple
    (every constant character has the same J alphas, for one); the fifth,
    the mask images of a position a, is kept under a and grows as it is
    read.  The oracle route never asks.
    """

    def __init__(self, table: np.ndarray, r_ideals: np.ndarray) -> None:
        self.table, self.r_ideals, self.size = table, r_ideals, len(table)
        # each kind of fact, int key -> tuple of positions (masks: -> _MaskImages)
        self.left, self.right, self.r_classes, self.alphas, self.masks = {}, {}, {}, {}, {}
        self.shared: dict[tuple[int, ...], tuple[int, ...]] = {}

    def __len__(self) -> int:
        """The facts kept, of all five kinds."""
        return sum(map(len, (self.left, self.right, self.r_classes, self.alphas, self.masks)))

    def _keep(self, memo: dict, key: int, hits: np.ndarray) -> tuple[int, ...]:
        """Keep the positions where ``hits`` holds under ``key``, and return them."""
        fact = tuple(hits.nonzero()[0].tolist())
        fact = memo[key] = self.shared.setdefault(fact, fact)
        return fact

    def left_divisors(self, c: int, t: int) -> tuple[int, ...]:
        """The a with a*c = t: column c of the index table."""
        key = c * self.size + t
        fact = self.left.get(key)
        return self._keep(self.left, key, self.table[:, c] == t) if fact is None else fact

    def right_divisors(self, c: int, t: int) -> tuple[int, ...]:
        """The b with c*b = t: row c of the index table."""
        key = c * self.size + t
        fact = self.right.get(key)
        return self._keep(self.right, key, self.table[c] == t) if fact is None else fact

    def r_class(self, c: int) -> tuple[int, ...]:
        """The R-class of c: the d with the right ideal of c, S(I) a monoid."""
        fact = self.r_classes.get(c)
        if fact is None:
            fact = self._keep(self.r_classes, c, (self.r_ideals == self.r_ideals[c]).all(axis=1))
        return fact

    def j_alphas(self, cf: int, cg: int) -> tuple[int, ...]:
        """The a with cf R-below a*cg, those with a*cg*b = cf for some b:
        one gather of column cg."""
        key = cg * self.size + cf
        fact = self.alphas.get(key)
        if fact is None:
            fact = self._keep(self.alphas, key, _bits(self.r_ideals, cf, self.table[:, cg]))
        return fact

    def mask_images(self, a: int, alpha: tuple[int, ...]) -> _MaskImages:
        """The mask images of alpha, the index map at position a."""
        fact = self.masks.get(a)
        if fact is None:
            fact = self.masks[a] = _MaskImages(alpha)
        return fact


class _GreensData:
    """Per-instance precomputation shared by all relation checks: the packed
    left and right ideals of the members and of S(I) (``_ideals``, N·⌈N/8⌉
    bytes each; S(I)'s left ideals built on first read), the class quotient
    read off them, the members' theorem keys, and the memo of
    index-semigroup facts the theorem searches read (``si_facts``)."""

    def __init__(self, inst: Instance) -> None:
        if not inst.si.has_identity:
            raise PreconditionError("Green's relations need the identity character")
        self.partition, self.index = inst.partition, inst.derived.index
        self.members = enumerate_elements(inst)
        self.geometry = inst.derived.geometry
        self.imgs = self.geometry.images
        self.table = inst.derived.table
        self.l_ideals, self.r_ideals = _ideals(self.table.T), _ideals(self.table)

        self.si_imgs = [a.images for a in inst.si.elements]
        self.si_table = inst.si.table
        self.char_ids = inst.derived.char_ids
        self.si_r_ideals = _ideals(self.si_table)
        self.si_facts = _IndexFacts(self.si_table, self.si_r_ideals)

    @cached_property
    def si_l_ideals(self) -> np.ndarray:
        """The left ideals of S(I), built on first read: only the harness's
        character descent reads them."""
        return _ideals(self.si_table.T)

    @cached_property
    def theorem_keys(self) -> dict[str, list[int]]:
        """Per relation and member, the first member with its theorem key:
        its character and the geometry lists ``_THEOREM_READS`` names, built
        once on first read.  Pairs of members with equal keys get equal
        theorem searches; the Green's sweep's verdict keys and ``_Kept``'s
        searches read them."""
        return {rel: _first_equal(zip(self.char_ids, *(getattr(self.geometry, name)
                                                        for name in reads)))
                for rel, reads in _THEOREM_READS.items()}

    @cached_property
    def classes(self) -> tuple[np.ndarray, ...]:
        """The class quotient, part 1: per member its R-class and L-class, in
        the order of their first members, ``h_first[r, l]``, the first member
        of H-class (r, l), or -1, and the R- and L-classes' first members."""
        (r_first, r_of), (l_first, l_of) = (
            np.unique(_class_labels(ideals), return_inverse=True)
            for ideals in (self.r_ideals, self.l_ideals)
        )
        cells, first = np.unique(r_of * len(l_first) + l_of, return_index=True)
        h_first = np.full((len(r_first), len(l_first)), -1)
        h_first.flat[cells] = first
        return r_of, l_of, h_first, r_first, l_first

    @cached_property
    def j_below(self) -> np.ndarray:
        """The class quotient, part 2: ``j_below[R(f), L(g)]`` when f ≤_J g (f
        ≤_R h ≤_L g for some h); ``Rq @ H @ Lq``, as ≤_R and ≤_L are constant on
        classes: H the nonempty H-classes, Rq/Lq the preorders at first members."""
        _, _, h_first, r_first, l_first = self.classes
        # the first members' rows first, so no temporary has a row a member
        rq = _bits(self.r_ideals[r_first], r_first).T != 0
        lq = _bits(self.l_ideals[l_first], l_first).T != 0
        return rq @ (h_first >= 0) @ lq

    @cached_property
    def d_label(self) -> np.ndarray:
        """Per member, the first member of its D-class: as D = L∘R, the first
        member of the first L-class its R-class meets in ``h_first``."""
        r_of, _, h_first, _, l_first = self.classes
        return l_first[(h_first >= 0).argmax(axis=1)][r_of]


def _greens_data(inst: Instance) -> _GreensData:
    """The instance's Green's data, built on first use and kept with the instance."""
    derived = inst.derived
    if derived.greens is None:
        derived.greens = _GreensData(inst)
    return derived.greens


# The geometry lists each theorem search reads of one map besides its
# character.  Maps with equal characters and equal reads get equal theorem
# verdicts, and the searches read nothing else of the geometry.
_THEOREM_READS = {
    "L": ("block_masks",),
    "R": ("kernels",),
    "D": ("meet_masks",),
    "J": ("block_masks", "j_geometry"),
}


def _key_groups(keys: list[int], pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The groups of ``pairs`` (a row a pair of member positions) whose two
    members have equal keys, ``keys`` per member: the index of each group's
    first pair, and each pair's group."""
    keys = np.asarray(keys)
    _, first, group_of = np.unique(keys[pairs[:, 0]] * len(keys) + keys[pairs[:, 1]],
                                   return_index=True, return_inverse=True)
    return first, group_of


class _Unkept:
    """The memo object of a caller that keeps nothing: each fact read
    through it is computed afresh.  ``get(fn, data, *args)`` is ``fn(data,
    *args)``, and ``search(rel, fn, data, fk, gk, cap, budget)`` runs the
    one-sided search ``fn`` of ``rel``.  The public checkers hand the
    module's one instance, ``_UNKEPT``, to ``_search`` and ``_build``."""

    def get(self, fn: Callable, data, *args):
        return fn(data, *args)

    def search(self, rel: str, fn: Callable, data, fk: int, gk: int, cap: int, budget: list[int]):
        return fn(data, fk, gk, cap, budget)


_UNKEPT = _Unkept()


class _Kept(_Unkept):
    """A memo object that keeps each fact for as long as its owner holds it,
    in one dict: a ``get`` under (fn, *args), the arguments after the data,
    and a one-sided search under (rel, the pair's theorem keys for rel), on
    which alone its result depends (``_GreensData.theorem_keys``), with the
    budget it spent.  A kept search charges that budget again; where less is
    left it runs again, so it raises where and as it would have.  A call
    that raised keeps nothing.  The harness's Green's sweep makes one per
    entry and hands it every theorem search and build of the entry."""

    def __init__(self) -> None:
        self.kept: dict = {}

    def get(self, fn: Callable, data, *args):
        key = (fn, *args)
        try:
            return self.kept[key]  # one hash of the key where it is kept
        except KeyError:
            found = self.kept[key] = fn(data, *args)
            return found

    def search(self, rel: str, fn: Callable, data, fk: int, gk: int, cap: int, budget: list[int]):
        keys = data.theorem_keys[rel]
        key = rel, keys[fk], keys[gk]
        hit = self.kept.get(key)
        if hit is not None and hit[1] <= budget[0]:
            budget[0] -= hit[1]
            return hit[0]
        before = budget[0]
        found = fn(data, fk, gk, cap, budget)
        self.kept[key] = found, before - budget[0]
        return found


def principal_leq_oracle(rel: Relation, f: FiniteMap, g: FiniteMap, inst: Instance):
    """First factor(s) witnessing the principal-ideal inequality, if any.

    Returns h with f = h*g for L, h with f = g*h for R, and the pair
    (h1, h2) with f = h1*g*h2 for J; None when the inequality fails.  Each
    search reads at most one row and one column of the product table.
    """
    data = _greens_data(inst)
    found = _first_factor(data, rel, require_member(f, inst), require_member(g, inst))
    if found is None:
        return None
    if rel == "J":
        return data.members[found[0]], data.members[found[1]]
    return data.members[found]


def _first_factor(data: _GreensData, rel: str, fk: int, gk: int):
    """Positions of the first h with f = h*g (L) or f = g*h (R), or of the
    first (h1, h2) with f = h1*g*h2 (J), or None; for J, None exactly when
    the class quotient does not put f J-below g.

    The J search reads one column of the table (every h1*g, by one gather)
    and one row (the h2 of the first h1 that reaches f): 2*N reads, so it
    needs no cap.
    """
    table = data.table
    if rel == "L":
        hits = (table[:, gk] == fk).nonzero()[0]
    elif rel == "R":
        hits = (table[gk] == fk).nonzero()[0]
    elif rel == "J":
        if not _quotient_related(data, "≤J", fk, gk):
            return None
        # The first h1 in order whose h1*g has f in its right ideal, then the
        # first h2 with h1*g*h2 = f: the first pair of the row-major scan.
        left = _bits(data.r_ideals, fk, table[:, gk])
        k1 = int(left.argmax())
        if not left[k1]:
            raise InternalError(f"no factors put {data.members[fk]} J-below {data.members[gk]}")
        k2 = int((table[table[k1, gk]] == fk).argmax())
        return k1, k2
    else:
        raise InvalidArgumentError(f"unknown relation {rel!r}")
    return int(hits[0]) if len(hits) else None


def _factors_both_ways(data: _GreensData, rel: str, fk: int, gk: int) -> tuple[int, int]:
    """``_first_factor`` of "L" or "R" each way on a pair the class labels
    relate, or an ``InternalError`` where no factor reaches, as the J scan
    raises."""
    found = _first_factor(data, rel, fk, gk), _first_factor(data, rel, gk, fk)
    if None in found:
        x, y = (fk, gk) if found[0] is None else (gk, fk)
        raise InternalError(f"no factors put {data.members[x]} {rel}-below {data.members[y]}")
    return found


def _quotient_related(data: _GreensData, rel: str, f, g):
    """Whether the class quotient relates f and g by ``rel`` ("L", "R", "D",
    "J"), or, for "≤J", puts f J-below g (D = L∘R: H-class (R(g), L(f)) is
    not empty): on two member positions, or per i on arrays f and g."""
    r_of, l_of, h_first = data.classes[:3]
    if rel == "L":
        return l_of[f] == l_of[g]
    if rel == "R":
        return r_of[f] == r_of[g]
    if rel == "D":
        return h_first[r_of[g], l_of[f]] >= 0
    below = data.j_below[r_of[f], l_of[g]]
    return below if rel == "≤J" else below & data.j_below[r_of[g], l_of[f]]


def _oracle_witness(data: _GreensData, rel: str, fk: int, gk: int) -> tuple[int, ...] | None:
    """The oracle's witness of ``rel`` on member positions: the positions of
    its factors, in ``_FACTORS`` order, or None.  The class quotient decides;
    the factors are ``_first_factor``'s scans, run only on a pair the
    quotient relates (a scan no factor reaches raises ``InternalError``).
    ``_oracle_rows`` gives the same rows and faults for many pairs at once."""
    if not _quotient_related(data, rel, fk, gk):
        return None
    if rel in ("L", "R"):
        return _factors_both_ways(data, rel, fk, gk)
    if rel == "D":
        # the first member L-related to f and R-related to g
        r_of, l_of, h_first = data.classes[:3]
        mk = int(h_first[r_of[gk], l_of[fk]])
        return (mk, *_factors_both_ways(data, "L", fk, mk),
                *_factors_both_ways(data, "R", mk, gk))
    return (*_first_factor(data, "J", fk, gk), *_first_factor(data, "J", gk, fk))


def _first_factors(table: np.ndarray, rel: str, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``_first_factor`` of "L" or "R" on arrays of positions: per i the
    first h with f[i] = h*g[i] (L) or f[i] = g[i]*h (R), or -1, by one
    gather of the table's columns (rows)."""
    hits = (table[:, g] == f).T if rel == "L" else table[g] == f[:, None]
    first = hits.argmax(axis=1)
    return np.where(hits[np.arange(len(f)), first], first, -1)


def _first_j_factors(data: _GreensData, f: np.ndarray, g: np.ndarray):
    """``_first_factor`` of "J" on arrays of positions, the quotient's
    verdict aside: per i the first pair (h1, h2) of the row-major scan with
    f[i] = h1*g[i]*h2, or (-1, -1) where no h1 reaches it."""
    table = data.table
    left = data.r_ideals[table[:, g], f >> 3] & _BIT[f & 7]  # [h1, i]: f[i] ≤_R h1*g[i]
    k1 = left.argmax(axis=0)
    found = left[k1, np.arange(len(f))] != 0
    del left
    k2 = (table[table[k1, g]] == f[:, None]).argmax(axis=1)
    return np.where(found, k1, -1), np.where(found, k2, -1)


def _oracle_rows(data: _GreensData, rel: str, pairs: np.ndarray):
    """The oracle witnesses of ``rel`` on many pairs of member positions
    (``pairs``, a row a pair), each the one ``_oracle_witness`` gives: the
    rows (k, f, g, *factors) of the related pairs k, in pair order, as C
    ints; the capped pairs (none); and the faults (k, message), each a pair
    the quotient relates with a factor that no scan reaches, with the
    message ``_oracle_witness`` raises on it.

    The verdicts are ``_quotient_related``'s on arrays of the pairs; the
    factors are the first ones, by gathers on the table and the packed R
    ideals (``_first_factors``, ``_first_j_factors``, -1 where none
    reaches) a block of related pairs at a time, so the temporaries stay
    within ``ROW_BLOCK_BYTES`` besides the rows, which are compacted only
    when a fault was found.
    """
    # a pair's temporaries while it is judged: its label gathers and verdict.
    # The pairs are judged twice, once to count the related ones and once to
    # fill the rows, to hold the memory bound: one pass keeping each block's
    # related positions for one concatenation would hold them all at once,
    # beside the rows they are copied into
    judged = list(_row_blocks(len(pairs), 48))
    count = sum(np.count_nonzero(_quotient_related(data, rel, *pairs[start:stop].T))
                for start, stop in judged)
    rows, at = np.empty((count, 3 + len(_FACTORS[rel])), dtype=np.intc), 0
    for start, stop in judged:
        k = _quotient_related(data, rel, *pairs[start:stop].T).nonzero()[0] + start
        rows[at:at + len(k), 0], rows[at:at + len(k), 1:3] = k, pairs[k]
        at += len(k)
    faulted, faults, table = [], [], data.table
    # a related pair's temporaries: a table gather, its intp copy as an
    # index, the packed bytes gathered and masked, and their test
    for start, stop in _row_blocks(len(rows), 16 * len(table)):
        block = rows[start:stop]
        f, g = block[:, 1], block[:, 2]
        if rel in ("L", "R"):
            block[:, 3] = _first_factors(table, rel, f, g)
            block[:, 4] = _first_factors(table, rel, g, f)
        elif rel == "D":
            r_of, l_of, h_first = data.classes[:3]
            block[:, 3] = m = h_first[r_of[g], l_of[f]]
            for col, (side, x, y) in enumerate(
                    (("L", f, m), ("L", m, f), ("R", m, g), ("R", g, m)), start=4):
                block[:, col] = _first_factors(table, side, x, y)
        else:
            block[:, 3], block[:, 4] = _first_j_factors(data, f, g)
            block[:, 5], block[:, 6] = _first_j_factors(data, g, f)
        faulted.extend((block[:, 3:].min(axis=1) < 0).nonzero()[0] + start)
    for k, fk, gk in rows[faulted, :3].tolist():
        try:  # raises: its scans are the row's, one pair at a time
            _oracle_witness(data, rel, fk, gk)
        except InternalError as exc:
            faults.append((k, str(exc)))
    if faulted:
        rows = np.delete(rows, faulted, axis=0)
    return rows, np.empty(0, dtype=np.intp), faults


def _theorem_rows(data: _GreensData, rel: str, pairs: np.ndarray, cap: int, facts: _Unkept):
    """The theorem witnesses of ``rel`` on many pairs of member positions
    (``pairs``, a row a pair), each the one the public checker gives, as
    ``_oracle_rows`` returns them: the rows of the related pairs, the
    capped pairs, and the faults (k, message).

    The search of ``rel`` (``_search``) runs once per key group of the
    pairs (the pair's theorem keys, ``_GreensData.theorem_keys``, on which
    alone it depends), on the group's first pair with a budget of ``cap``,
    and the build (``_build``) once per pair of a related group, both with
    ``facts``.  A capped group caps each of its pairs and a search's
    ``InternalError`` is a fault at each; a build's is a fault at its own
    pair.
    """
    first, group_of = _key_groups(data.theorem_keys[rel], pairs)
    outcomes = []
    for fk, gk in pairs[first].tolist():
        try:
            outcomes.append(_search(data, rel, fk, gk, cap, facts))
        except (ResourceLimitError, InternalError) as exc:
            outcomes.append(exc)
    # per group: unrelated, capped, or found (or a fault), at each of its pairs
    state = np.array([0 if o is None else 1 if isinstance(o, ResourceLimitError) else 2
                      for o in outcomes], dtype=np.uint8)[group_of]
    found, faults = array("i"), []
    ks = (state == 2).nonzero()[0]
    for k, group, (fk, gk) in zip(ks.tolist(), group_of[ks].tolist(), pairs[ks].tolist()):
        outcome = outcomes[group]
        if isinstance(outcome, InternalError):
            faults.append((k, str(outcome)))
            continue
        try:
            found.extend((k, fk, gk, *_build(data, rel, fk, gk, outcome, facts)))
        except InternalError as exc:
            faults.append((k, str(exc)))
    rows = np.frombuffer(found, dtype=np.intc).reshape(-1, 3 + len(_FACTORS[rel]))
    return rows, (state == 1).nonzero()[0], faults


def _l_one_sided_theorem(
    data: _GreensData, fk: int, gk: int, cap: int, budget: list[int]
) -> int | None:
    """Position of the first alpha with chi(f) = alpha*chi(g) and X_i f
    inside X_{alpha(i)} g.

    The alphas with chi(f) = alpha*chi(g) are the left divisors of chi(f) by
    chi(g); each one put to the block test spends one unit of budget.
    """
    bf, bg = data.geometry.block_masks[fk], data.geometry.block_masks[gk]
    for a in data.si_facts.left_divisors(data.char_ids[gk], data.char_ids[fk]):
        budget[0] -= 1
        if budget[0] < 0:
            raise ResourceLimitError(f"L character search exceeded the cap of {cap} candidates")
        if _blocks_fit(bf, bg, data.si_imgs[a]):
            return a
    return None


def _related(
    rel: str, f: FiniteMap, g: FiniteMap, inst: Instance, mode: str, cap: int
) -> GreenWitness | None:
    """The one front end of ``l_related`` to ``j_related``: on the member
    positions of f and g, the oracle's witness of ``rel``, or its theorem
    search and build, handed ``_UNKEPT``."""
    _check_mode(mode)
    if cap < 0:
        raise InvalidArgumentError(f"cap must be non-negative, got {cap}")
    data = _greens_data(inst)
    fk, gk = require_member(f, inst), require_member(g, inst)
    if mode == "oracle":
        found = _oracle_witness(data, rel, fk, gk)
    else:
        found = _search(data, rel, fk, gk, cap, _UNKEPT)
        if found is not None:
            found = _build(data, rel, fk, gk, found, _UNKEPT)
    if found is None:
        return None
    members = data.members
    return GreenWitness(rel, tuple((name, members[k]) for name, k in zip(_FACTORS[rel], found)))


def _search(data: _GreensData, rel: str, fk: int, gk: int, cap: int, facts: _Unkept):
    """The theorem search of ``rel`` on one budget of ``cap``, or None: for
    "D" ``_d_theorem_search``; for "L", "R" and "J" the one-sided search
    each way, each read through ``facts``.  A caller deciding many pairs
    runs one search per pair of theorem keys, which is D's only key, so a
    memo would never answer a D search."""
    if rel == "D":
        return _d_theorem_search(data, fk, gk, cap, [cap])
    if rel == "R" and data.geometry.kernels[fk] != data.geometry.kernels[gk]:
        return None
    search = (_l_one_sided_theorem if rel == "L" else _r_one_sided_theorem if rel == "R"
              else _j_one_sided_theorem)
    budget = [cap]
    forward = facts.search(rel, search, data, fk, gk, cap, budget)
    if forward is None:
        return None
    backward = facts.search(rel, search, data, gk, fk, cap, budget)
    return None if backward is None else (forward, backward)


def _build(
    data: _GreensData, rel: str, fk: int, gk: int, found: tuple, facts: _Unkept
) -> tuple[int, ...]:
    """The theorem build of ``rel`` from what ``_search`` found: the factors'
    positions, in ``_FACTORS`` order, each builder read through ``facts``
    and checking its factors' characters.  For "L", "R" and "J" the factors
    each way; for "D" the middle of the class bijection and the four
    one-sided factors tying it to f and g."""
    get = facts.get
    if rel == "J":
        return (*get(_j_factors, data, fk, gk, *found[0]),
                *get(_j_factors, data, gk, fk, *found[1]))
    if rel != "D":
        build = _left_factor if rel == "L" else _right_factor
        return get(build, data, fk, gk, found[0]), get(build, data, gk, fk, found[1])
    a, b, c, matched = found
    kernels = data.geometry.kernels
    pairing = tuple((kernels[fk][mk], kernels[gk][nk]) for mk, nk in enumerate(matched))
    mk = _d_middle(data, fk, gk, c, pairing)
    # gamma R chi(g), and gamma is the middle's character: each divides the other
    u = data.si_facts.right_divisors(data.char_ids[gk], data.char_ids[mk])
    v = data.si_facts.right_divisors(data.char_ids[mk], data.char_ids[gk])
    if not (u and v):
        raise InternalError("R-divisibility promised by the search but not found")
    return (mk, get(_left_factor, data, fk, mk, a), get(_left_factor, data, mk, fk, b),
            get(_right_factor, data, mk, gk, u[0]), get(_right_factor, data, gk, mk, v[0]))


def l_related(
    f: FiniteMap,
    g: FiniteMap,
    inst: Instance,
    mode: str = "oracle",
    cap: int = DEFAULT_PHI_CAP,
) -> GreenWitness | None:
    return _related("L", f, g, inst, mode, cap)


def build_left_factor(
    f: FiniteMap, g: FiniteMap, alpha: FiniteMap, inst: Instance
) -> FiniteMap:
    """The h with f = h*g and character alpha, choosing least solutions."""
    data = _greens_data(inst)
    fk, gk = require_member(f, inst), require_member(g, inst)
    a = inst.si.position(alpha)
    if a is None:
        raise PreconditionError(f"{alpha} is not in the index semigroup")
    block_masks = data.geometry.block_masks
    fits = _blocks_fit(block_masks[fk], block_masks[gk], alpha.images)
    if data.si_table[a, data.char_ids[gk]] != data.char_ids[fk] or not fits:
        raise PreconditionError(f"{alpha} does not witness the L-inequality")
    return data.members[_left_factor(data, fk, gk, a)]


def _left_factor(data: _GreensData, fk: int, gk: int, a: int) -> int:
    """``build_left_factor`` on member positions, its preconditions met, for
    alpha at index position a: the position of the h sending x to the least
    y of X_{alpha(i)} with yg = xf."""
    images = _least_lift(data.si_imgs[a], data.partition, data.imgs[gk], data.imgs[fk])
    return _built_member(data, "left factor", images, a, lambda hk: data.table[hk, gk] == fk)


def _r_one_sided_theorem(
    data: _GreensData, fk: int, gk: int, cap: int, budget: list[int]
) -> int | None:
    """Position of the first beta with chi(f) = chi(g)*beta, once the R
    criterion's gate in ``_search`` has found the two kernels equal.

    The betas are the right divisors of chi(f) by chi(g); the one taken
    spends one unit of budget.
    """
    hits = data.si_facts.right_divisors(data.char_ids[gk], data.char_ids[fk])
    if not hits:
        return None
    budget[0] -= 1
    if budget[0] < 0:
        raise ResourceLimitError(f"R character search exceeded the cap of {cap} candidates")
    return hits[0]


def r_related(
    f: FiniteMap,
    g: FiniteMap,
    inst: Instance,
    mode: str = "oracle",
    cap: int = DEFAULT_PHI_CAP,
) -> GreenWitness | None:
    return _related("R", f, g, inst, mode, cap)


def build_right_factor(
    f: FiniteMap, g: FiniteMap, beta: FiniteMap, inst: Instance
) -> FiniteMap:
    """The h with f = g*h and character beta, using least preimages."""
    data = _greens_data(inst)
    fk, gk = require_member(f, inst), require_member(g, inst)
    b = inst.si.position(beta)
    if b is None:
        raise PreconditionError(f"{beta} is not in the index semigroup")
    # pi(g) must refine pi(f): each kernel class of g lies in one class of f
    refined = refines(kernel_partition(g), kernel_partition(f))
    if data.si_table[data.char_ids[gk], b] != data.char_ids[fk] or not refined:
        raise PreconditionError(f"{beta} does not witness the R-inequality")
    return data.members[_right_factor(data, fk, gk, b)]


def _right_factor(data: _GreensData, fk: int, gk: int, b: int) -> int:
    """``build_right_factor`` on member positions, its preconditions met, for
    beta at index position b."""
    p = data.partition
    f_imgs, g_imgs, beta = data.imgs[fk], data.imgs[gk], data.si_imgs[b]
    # f at the least preimage under g: the descending pass writes it last
    on_image = {g_imgs[y]: f_imgs[y] for y in reversed(range(p.n))}
    images = tuple([on_image.get(x, p.blocks[beta[i]][0])
                    for x, i in enumerate(p._block_lookup)])
    return _built_member(data, "right factor", images, b, lambda hk: data.table[gk, hk] == fk)


def _match_classes(
    geometry: _Geometry,
    fk: int,
    gk: int,
    ta: tuple[int, ...],
    tb: tuple[int, ...],
    budget: list[int],
) -> tuple[int, ...] | None:
    """Backtracking search for a compatible bijection between kernel classes,
    for alpha and beta given by their mask images ``ta`` and ``tb``
    (``_IndexFacts.mask_images``).

    Returns, for each class of pi(f), the index of its partner in pi(g);
    decrements the shared assignment budget and raises when it runs out.
    The classes of pi(f) are assigned in order, each trying its compatible
    partners ascending, with one iterator per assigned class on a stack.
    """
    f_meet, g_meet = geometry.meet_masks[fk], geometry.meet_masks[gk]
    # the blocks that class mk of pi(f) (nk of pi(g)) must meet in its
    # partner: the alpha (beta) image of its meet mask
    f_to = [ta[m] for m in f_meet]
    g_to = [tb[m] for m in g_meet]
    count = len(f_to)
    compat = [
        [
            nk
            for nk in range(count)
            if not f_to[mk] & ~g_meet[nk] and not g_to[nk] & ~f_meet[mk]
        ]
        for mk in range(count)
    ]
    assignment: list[int] = []
    used = [False] * count
    tries = [iter(compat[0])] if count else []
    while len(assignment) < count:
        for nk in tries[-1]:
            if not used[nk]:
                break
        else:
            # every partner of this class failed: undo the previous class's
            tries.pop()
            if not assignment:
                return None
            used[assignment.pop()] = False
            continue
        budget[0] -= 1
        if budget[0] < 0:
            raise ResourceLimitError("class-bijection search exceeded its cap")
        assignment.append(nk)
        used[nk] = True
        if len(assignment) < count:
            tries.append(iter(compat[len(assignment)]))
    return tuple(assignment)


def _d_theorem_search(
    data: _GreensData, fk: int, gk: int, cap: int, budget: list[int]
) -> tuple[int, int, int, tuple[int, ...]] | None:
    """First (alpha, beta, gamma, class bijection) meeting the D-criterion,
    the characters as index positions and the bijection as ``_match_classes``
    returns it, handed alpha and beta as their mask images; each assignment
    the class matching tries spends one unit of ``budget``.

    gamma runs over the R-class of chi(g) in the index set, ascending; the
    alphas with chi(f) = alpha*gamma and the betas with gamma = beta*chi(f)
    are the left divisors of chi(f) by gamma and of gamma by chi(f).
    """
    meet_masks = data.geometry.meet_masks
    if len(meet_masks[fk]) != len(meet_masks[gk]):
        return None
    facts, imgs = data.si_facts, data.si_imgs
    cf, cg = data.char_ids[fk], data.char_ids[gk]
    for c in facts.r_class(cg):
        alphas = facts.left_divisors(c, cf)
        if not alphas:
            continue
        betas = facts.left_divisors(cf, c)
        for a in alphas:
            ta = facts.mask_images(a, imgs[a])
            for b in betas:
                tb = facts.mask_images(b, imgs[b])
                found = _match_classes(data.geometry, fk, gk, ta, tb, budget)
                if found is not None:
                    return a, b, c, found
    return None


def d_related(
    f: FiniteMap,
    g: FiniteMap,
    inst: Instance,
    mode: str = "oracle",
    cap: int = DEFAULT_PHI_CAP,
) -> GreenWitness | None:
    """D-relatedness: L-compose-R with a middle element, or the structural search."""
    return _related("D", f, g, inst, mode, cap)


def build_d_middle(
    f: FiniteMap,
    g: FiniteMap,
    gamma: FiniteMap,
    phi: ClassPairing,
    inst: Instance,
) -> FiniteMap:
    """The middle element: constant on pi(g)-classes, valued by the paired f-class."""
    data = _greens_data(inst)
    fk, gk = require_member(f, inst), require_member(g, inst)
    kernels = data.geometry.kernels
    classes = sorted(m for m, _ in phi), sorted(n for _, n in phi)
    if classes != (sorted(kernels[fk]), sorted(kernels[gk])):
        raise PreconditionError("phi is not a bijection between the kernel classes")
    p = inst.partition
    # the middle sends x of g's class n to f's value on n's partner m: it
    # preserves P with character gamma when each such pair of blocks is gamma's
    sends = {(p.block_of(x), p.block_of(f.images[m[0]])) for m, n in phi for x in n}
    if sends != set(enumerate(gamma.images)) or gamma.codomain_size != p.degree:
        raise PreconditionError("the given gamma and phi do not satisfy the D-criteria")
    c = inst.si.position(gamma)
    if c is None:
        # the middle preserves P and has character gamma, so only membership fails
        raise PreconditionError("the constructed middle element is not a member")
    return data.members[_d_middle(data, fk, gk, c, phi)]


def _d_middle(data: _GreensData, fk: int, gk: int, c: int, phi: ClassPairing) -> int:
    """``build_d_middle`` on member positions, its preconditions met, for
    gamma at index position c and phi a bijection of kernel classes: the
    middle shares the kernel of g."""
    images = [0] * data.partition.n
    for m_class, g_class in phi:
        value = data.imgs[fk][m_class[0]]
        for x in g_class:
            images[x] = value
    kernels = data.geometry.kernels
    return _built_member(data, "middle element", tuple(images), c,
                         lambda hk: kernels[hk] == kernels[gk])


def _j_one_sided_theorem(
    data: _GreensData, fk: int, gk: int, cap: int, budget: list[int]
) -> tuple[int, int, tuple[int, ...]] | None:
    """Search (alpha, beta, phi) making J_f <= J_g per the structural
    criterion, alpha and beta as index positions.

    phi is returned as its values on the sorted image of g.  The image of f
    lies in (Xg)phi, so a pair with rank f > rank g is answered None at once.
    Candidate pairs are pruned by the necessary identity chi(f) =
    alpha*chi(g)*beta: an alpha has a beta exactly when chi(f) is R-below
    alpha*chi(g) (the J alphas of the pair of characters), and the betas of
    each alpha are the right divisors of chi(f) by alpha*chi(g).  For each
    pair the point values of phi are enumerated blockwise.
    """
    j_geometry = data.geometry.j_geometry
    dom_blocks, block_sources = j_geometry[gk]
    if len(j_geometry[fk][0]) > len(dom_blocks):
        return None
    p = data.partition
    f_blockimg = data.geometry.block_masks[fk]
    facts, cf, cg = data.si_facts, data.char_ids[fk], data.char_ids[gk]
    for a in facts.j_alphas(cf, cg):
        # positions (in dom) of the g-image of X_{alpha(i)}, per i
        sources = [block_sources[j] for j in data.si_imgs[a]]
        for b in facts.right_divisors(int(data.si_table[a, cg]), cf):
            bt = data.si_imgs[b]
            candidates = [p.blocks[bt[c]] for c in dom_blocks]
            for values in itertools.product(*candidates):
                budget[0] -= 1
                if budget[0] < 0:
                    raise ResourceLimitError(
                        f"phi search exceeded the cap of {cap} assignments"
                    )
                if _phi_covers(f_blockimg, sources, values):
                    return a, b, values
    return None


def _phi_covers(
    f_blockimg: tuple[int, ...], sources: list[tuple[int, ...]], values: tuple[int, ...]
) -> bool:
    """Each X_i f inside the phi-values ``values`` at the image positions ``sources[i]``."""
    for fb, source in zip(f_blockimg, sources):
        covered = 0
        for k in source:
            covered |= 1 << values[k]
        if fb & ~covered:
            return False
    return True


def j_related(
    f: FiniteMap,
    g: FiniteMap,
    inst: Instance,
    mode: str = "oracle",
    cap: int = DEFAULT_PHI_CAP,
) -> GreenWitness | None:
    """J-relatedness: the first factor pairs of both directions, or the
    structural search, whose phi assignments ``cap`` bounds."""
    return _related("J", f, g, inst, mode, cap)


def checkers() -> dict[str, Callable[..., GreenWitness | None]]:
    """Relation letter -> its checker, l_related through j_related.

    The names are looked up on each call, so a wrapper bound to one of the
    module attributes afterwards is the checker returned.
    """
    return {"L": l_related, "R": r_related, "D": d_related, "J": j_related}


def build_j_factors(
    f: FiniteMap,
    g: FiniteMap,
    alpha: FiniteMap,
    beta: FiniteMap,
    phi: FiniteMap,
    inst: Instance,
) -> tuple[FiniteMap, FiniteMap]:
    """The pair (h1, h2) with f = h1*g*h2 derived from an image map phi on Xg."""
    data = _greens_data(inst)
    fk, gk = require_member(f, inst), require_member(g, inst)
    p = inst.partition
    a, b = inst.si.position(alpha), inst.si.position(beta)
    if a is None or b is None:
        raise PreconditionError("alpha and beta must lie in the index semigroup")
    dom_blocks, block_sources = data.geometry.j_geometry[gk]
    if phi.domain_size != len(dom_blocks) or phi.codomain_size != p.n:
        raise PreconditionError("phi must map the image of g into X")
    sources = [block_sources[j] for j in alpha.images]
    if not _phi_covers(data.geometry.block_masks[fk], sources, phi.images):
        raise PreconditionError("phi does not cover the block images of f")
    if any(p.block_of(v) != beta.images[c] for v, c in zip(phi.images, dom_blocks)):
        raise PreconditionError("phi is not block-constant toward beta")
    k1, k2 = _j_factors(data, fk, gk, a, b, phi.images)
    return data.members[k1], data.members[k2]


def _j_factors(
    data: _GreensData, fk: int, gk: int, a: int, b: int, phi: tuple[int, ...]
) -> tuple[int, int]:
    """``build_j_factors`` on member positions, its preconditions met, for
    alpha and beta at index positions a and b and phi's values on the
    sorted image of g."""
    p, table = data.partition, data.table
    beta = data.si_imgs[b]
    phi_at = dict(zip(data.geometry.sorted_images[gk], phi))
    h2_images = tuple([phi_at.get(x, p.blocks[beta[i]][0])
                       for x, i in enumerate(p._block_lookup)])
    k2 = _built_member(data, "J factor", h2_images, b, lambda k: True)
    gphi = [phi_at[v] for v in data.imgs[gk]]
    h1_images = _least_lift(data.si_imgs[a], p, gphi, data.imgs[fk])
    k1 = _built_member(data, "J factor", h1_images, a, lambda k: table[table[k, gk], k2] == fk)
    return k1, k2


def _txp_l_one_sided(bf: tuple[int, ...], bg: tuple[int, ...]) -> bool:
    """Each X_i f inside some X_j g, on the block-image masks of f and g."""
    return all(any(fb & ~gb == 0 for gb in bg) for fb in bf)


def _txp_d_check(geometry: _Geometry, a: int, b: int) -> bool:
    f_chi, f_meets, g_meets = geometry.chars[a], geometry.meet_masks[a], geometry.meet_masks[b]
    g_fibers = geometry.char_kernels[b]
    # gamma must be L-related to chi(f) and R-related to chi(g) in the full
    # index monoid: same image set as chi(f), same kernel as chi(g).
    target_image = set(f_chi)
    if len(f_meets) != len(g_meets) or len(g_fibers) != len(target_image):
        return False
    blocks = range(geometry.p.degree)
    for assigned in itertools.permutations(target_image):
        gamma = {i: value for fiber, value in zip(g_fibers, assigned) for i in fiber}
        # each kernel class of f matched with one of g, as (f meets, g meets) masks
        for matched in itertools.permutations(g_meets):
            pairs = list(zip(f_meets, matched))
            if all(
                any(
                    gamma[j] == f_chi[i]
                    and all(gm >> j & 1 for fm, gm in pairs if fm >> i & 1)
                    for j in blocks
                )
                and any(
                    f_chi[j] == gamma[i]
                    and all(fm >> j & 1 for fm, gm in pairs if gm >> i & 1)
                    for j in blocks
                )
                for i in blocks
            ):
                return True
    return False


def _txp_j_covers(geometry: _Geometry, b: int) -> frozenset:
    """The distinct tuples of masks ((X_j g)phi per block j) over every
    E-preserving phi on Xg, for g at position b: a frozenset, so a memo may
    key on it.

    phi sends the image points in block c into the target block t(c), so the
    target assignments of g's image blocks and then the point values are
    enumerated; they depend on g alone.
    """
    dom_blocks, sources = geometry.j_geometry[b]
    hit_blocks = sorted(set(dom_blocks))
    covers = set()
    for targets in itertools.product(range(geometry.p.degree), repeat=len(hit_blocks)):
        target_of = dict(zip(hit_blocks, targets))
        for values in itertools.product(*(geometry.p.blocks[target_of[c]] for c in dom_blocks)):
            covers.add(tuple(_mask(values[k] for k in source) for source in sources))
    return frozenset(covers)


def _txp_j_one_sided(geometry: _Geometry, a: int, covers: frozenset) -> bool:
    """Is there an E-preserving phi on Xg with every X_i f covered by some
    (X_j g)phi, for f at position a and g's covers ``covers``?"""
    return any(_txp_l_one_sided(geometry.block_masks[a], covered) for covered in covers)


def _txp_related(
    rel: Relation, geometry: _Geometry, a: int, b: int, facts: _Unkept = _UNKEPT
) -> bool:
    """``txp_green`` on the maps at positions a and b of a geometry, reading
    each map's J covers (``_txp_j_covers``) and each one-sided J verdict
    through ``facts``, which may serve every pair of the geometry.  The
    image of f lies in (Xg)phi, so f of higher rank than g is not J-below
    it, and g's covers are not built.  Of each map, the test of ``rel``
    reads only what its theorem key for ``rel`` fixes (its character and
    the lists ``_THEOREM_READS`` names; R reads the character's kernel), so
    pairs of members with equal theorem keys get equal verdicts."""
    if rel == "L":
        bf, bg = geometry.block_masks[a], geometry.block_masks[b]
        return _txp_l_one_sided(bf, bg) and _txp_l_one_sided(bg, bf)
    if rel == "R":
        char_kernels, kernels = geometry.char_kernels, geometry.kernels
        return char_kernels[a] == char_kernels[b] and kernels[a] == kernels[b]
    if rel == "D":
        return _txp_d_check(geometry, a, b)
    if rel == "J":
        j_geometry = geometry.j_geometry
        return all(
            len(j_geometry[x][0]) <= len(j_geometry[y][0])
            and facts.get(_txp_j_one_sided, geometry, x, facts.get(_txp_j_covers, geometry, y))
            for x, y in ((a, b), (b, a))
        )
    raise InvalidArgumentError(f"unknown relation {rel!r}")


def txp_green(rel: Relation, f: FiniteMap, g: FiniteMap, p: Partition) -> bool:
    """The specialized Green's criteria for the full character set T(I)."""
    if not (preserves_partition(f, p) and preserves_partition(g, p)):
        raise InvalidArgumentError("both maps must preserve the partition")
    chars = [character(f, p).images, character(g, p).images]
    return _txp_related(rel, _Geometry([f.images, g.images], chars, p), 0, 1)


def full_tx_green(rel: Relation, f: FiniteMap, g: FiniteMap) -> bool:
    """Green's relations on the full transformation semigroup (one block)."""
    if f.domain_size != g.domain_size or not f.is_endomap() or not g.is_endomap():
        raise InvalidArgumentError("expected endomaps of one common set")
    if rel == "L":
        return image(f) == image(g)
    if rel == "R":
        return kernel_partition(f) == kernel_partition(g)
    if rel in ("D", "J"):
        return len(image(f)) == len(image(g))
    raise InvalidArgumentError(f"unknown relation {rel!r}")


def _class_labels(ideals: np.ndarray) -> list[int]:
    """For each element, the first element whose principal ideal (packed row)
    equals its own: its class, as f lies in its own ideal in a monoid."""
    return _first_equal(row.tobytes() for row in ideals)


def eggbox(inst: Instance) -> list[dict]:
    """D-classes as grids of R-classes (rows) by L-classes (columns).

    Each grid cell lists the member ids sharing that L- and R-class; a
    D-class's grid is filled in one pass over its members.
    """
    data = _greens_data(inst)
    r_of, l_of, _, r_first, l_first = data.classes
    # lists, once, so the output holds Python ints
    r_of, l_of, d_members = r_of.tolist(), l_of.tolist(), _fibers(data.d_label.tolist())
    boxes = []
    for root in sorted(d_members):
        cells: dict[tuple[int, int], list[int]] = {}
        for k in d_members[root]:
            cells.setdefault((r_of[k], l_of[k]), []).append(k)
        rows = sorted({r for r, _ in cells})
        cols = sorted({c for _, c in cells})
        grid = [[cells.get((r, c), []) for c in cols] for r in rows]
        boxes.append(
            {
                "representative": root,
                "r_classes": r_first[rows].tolist(),
                "l_classes": l_first[cols].tolist(),
                "grid": grid,
            }
        )
    return boxes
