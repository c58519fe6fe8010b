"""The instance-owned product table against the loop definitions it replaced.

Every quantity the oracles now read from ``inst.derived.table`` is recomputed
here from raw image tuples, one composite at a time, as the library did
before the table existed; every candidate the Green's theorem route reads
from the index semigroup's table is found again by the tuple loops it
replaced.
"""

import gc
import itertools
import random
import weakref

import numpy as np
import pytest

from partsem import (
    FiniteMap,
    GreenWitness,
    IndexSemigroup,
    Instance,
    Partition,
    ResourceLimitError,
    build_catalog,
    character,
    closure_from_generators,
    compose,
    eggbox,
    enumerate_elements,
    idempotents,
    is_regular_oracle,
    is_unit_regular_oracle,
    kernel_partition,
    principal_leq_oracle,
    regular_character_witnesses,
    unit_regular_witnesses,
    units,
)
from partsem import ensemble, greens, harness
from partsem.greens import _greens_data
from partsem.regularity import _each_has_inner_inverse, si_is_inverse, si_is_regular
from partsem.partition_action import _mask

from conftest import boolean_products, comp


def _full(blocks):
    p = Partition.of(blocks)
    return Instance(p, IndexSemigroup.full(p.degree))


def _instances():
    out = [(e.label, e.instance) for e in build_catalog(3, seed=7).entries]
    out.append(("n4:[0][1][2][3]/full", _full([[0], [1], [2], [3]])))
    # 8**8 codes exceed DENSE_CODE_LIMIT, so this table is built through the dict.
    singletons = Partition.of([[x] for x in range(8)])
    out.append(("n8:singletons/id+const",
                 Instance(singletons, IndexSemigroup.identity_with_constants(8))))
    return out


INSTANCES = _instances()


class _Loops:
    """The loop definitions over raw image tuples."""

    def __init__(self, inst):
        self.members = [m.images for m in enumerate_elements(inst)]
        self.index = {t: k for k, t in enumerate(self.members)}
        self.product = [
            [self.index[comp(f, g)] for g in self.members] for f in self.members
        ]
        self.identity = self.index.get(tuple(range(inst.partition.n)))

    def l_below(self):
        size = len(self.members)
        below = np.zeros((size, size), dtype=bool)
        for h in range(size):
            for g in range(size):
                below[self.product[h][g], g] = True
        return below

    def r_below(self):
        size = len(self.members)
        below = np.zeros((size, size), dtype=bool)
        for g in range(size):
            for h in range(size):
                below[self.product[g][h], g] = True
        return below

    def units(self):
        e = self.identity
        return [
            f for f, row in enumerate(self.product)
            if any(row[g] == e and self.product[g][f] == e for g in range(len(row)))
        ]

    def idempotents(self):
        return [f for f, row in enumerate(self.product) if row[f] == f]

    def first_inner_inverse(self, f, candidates):
        row = self.product[f]
        return next((g for g in candidates if self.product[row[g]][f] == f), None)

    def j_ideal(self, g):
        """Positions of every h1*g*h2."""
        middles = {self.product[h][g] for h in range(len(self.members))}
        return set().union(*(self.product[m] for m in middles))

    def first_j_factors(self, f, g, first_column):
        """The first (h1, h2) in row-major order with h1*g*h2 = f."""
        for h1, row in enumerate(self.product):
            h2 = first_column[row[g]].get(f)
            if h2 is not None:
                return h1, h2
        return None


def _position(inst, m):
    return None if m is None else inst.derived.index[m.images]


def _force_row_blocks(monkeypatch, budget, size):
    """Set the row-block budget for tables of ``size`` rows: "one-row" gives
    every build one row a block; "short-last" gives the ≤_L/≤_R scatter
    (16 bytes a cell) blocks of the least k >= 2 rows that does not divide
    ``size``, the product build (8 bytes a cell) blocks of 2k rows and the
    class labels and the unit scan (1 byte a cell) blocks of 16k rows, so
    each ends on a short block."""
    if budget == "one-row":
        monkeypatch.setattr(ensemble, "ROW_BLOCK_BYTES", 1)
    else:
        rows = next(k for k in itertools.count(2) if size % k)
        monkeypatch.setattr(ensemble, "ROW_BLOCK_BYTES", 16 * size * rows)


FORCED_BUDGETS = ["one-row", "short-last"]


@pytest.mark.parametrize("label,inst", INSTANCES, ids=[label for label, _ in INSTANCES])
def test_table_and_derived_data_match_the_loops(label, inst):
    _check_table_and_derived_data(inst)


@pytest.mark.parametrize("budget", FORCED_BUDGETS)
@pytest.mark.parametrize("label,inst", INSTANCES, ids=[label for label, _ in INSTANCES])
def test_table_and_derived_data_match_the_loops_in_forced_blocks(label, inst, budget, monkeypatch):
    _force_row_blocks(monkeypatch, budget, len(enumerate_elements(inst)))
    si = IndexSemigroup(inst.si.degree, inst.si.elements)  # its tables, built afresh
    _check_table_and_derived_data(Instance(inst.partition, si))


def _check_table_and_derived_data(inst):
    loops = _Loops(inst)
    table = inst.derived.table
    assert table.dtype == np.int16
    assert table.tolist() == loops.product
    assert [_position(inst, f) for f in idempotents(inst)] == loops.idempotents()
    everyone = range(len(loops.members))
    members = enumerate_elements(inst)
    for f, m in enumerate(members):
        assert _position(inst, is_regular_oracle(m, inst)) == loops.first_inner_inverse(
            f, everyone
        )
    if not inst.si.has_identity:
        return
    unit_ids = loops.units()
    assert [_position(inst, u) for u in units(inst)] == unit_ids
    for f, m in enumerate(members):
        assert _position(inst, is_unit_regular_oracle(m, inst)) == loops.first_inner_inverse(
            f, unit_ids
        )
    data = _greens_data(inst)
    assert np.array_equal(data.l_below, loops.l_below())
    assert np.array_equal(data.r_below, loops.r_below())


def test_index_semigroup_table_matches_the_loops():
    _check_index_semigroup_tables()


@pytest.mark.parametrize("budget", FORCED_BUDGETS)
def test_index_semigroup_table_matches_the_loops_in_forced_blocks(budget, monkeypatch):
    _check_index_semigroup_tables(monkeypatch, budget)


def _check_index_semigroup_tables(monkeypatch=None, budget=None):
    for make, degree in (
        (IndexSemigroup.full, 3),
        (IndexSemigroup.identity_with_constants, 4),
        (IndexSemigroup.identity_with_constants, 8),
    ):
        if budget is not None:
            _force_row_blocks(monkeypatch, budget, len(make(degree)))
        si = make(degree)
        images = [a.images for a in si.elements]
        assert si.table.tolist() == [[images.index(comp(a, b)) for b in images] for a in images]


def _index_scan_loops(si):
    """Regularity, inverse-ness and regularity by units of S(I), and its
    units, by the definitions, one element and one partner at a time."""
    t = si.table.tolist()
    ids = range(len(t))
    units = []
    if si.has_identity:
        e = si.index[tuple(range(si.degree))]
        units = [a for a in ids if any(t[a][b] == e and t[b][a] == e for b in ids)]
    return (
        all(any(t[t[a][b]][a] == a for b in ids) for a in ids),
        all(sum(t[t[a][b]][a] == a and t[t[b][a]][b] == b for b in ids) == 1 for a in ids),
        all(any(t[t[a][u]][a] == a for u in units) for a in ids),
        units,
    )


@pytest.mark.parametrize("budget", [None] + FORCED_BUDGETS)
def test_index_scans_match_the_loops(budget, monkeypatch):
    """``si_is_regular``, ``si_is_inverse`` and the unit-regular index scan
    on every S(I) of the n3 catalog, on T_4 and on the semigroup and monoid
    generated by a nilpotent map, which are not regular (every S(I) of the
    catalog is)."""
    made = [(IndexSemigroup, (e.instance.si.degree, e.instance.si.elements))
            for e in build_catalog(3, seed=7).entries]
    made.append((IndexSemigroup.full, (4,)))
    nilpotent = FiniteMap(3, 3, (1, 2, 2))
    made += [(closure_from_generators, ([nilpotent],)),
             (closure_from_generators, ([FiniteMap.identity(3), nilpotent],))]
    results = set()
    seen = set()
    for make, args in made:
        if budget is not None:
            _force_row_blocks(monkeypatch, budget, len(make(*args)))
        si = make(*args)  # built afresh under the budget
        if si in seen:
            continue
        seen.add(si)
        regular, inverse, unit_regular, unit_ids = _index_scan_loops(si)
        results.add((regular, inverse, unit_regular if si.has_identity else None))
        assert si_is_regular(si) == regular
        assert si_is_inverse(si) == inverse
        if si.has_identity:
            assert si.unit_ids.tolist() == unit_ids
            assert _each_has_inner_inverse(si.table, si.unit_ids) == unit_regular
    assert [{r[k] for r in results} - {None} for k in range(3)] == [{True, False}] * 3


@pytest.mark.parametrize("blocks", [[[0, 1, 2, 3]], [[0], [1], [2], [3]]])
def test_one_sided_j_matches_a_direct_factor_scan(blocks):
    """On these instances a uint8 count of R-then-L paths once wrapped to 0
    on 96 ordered pairs each, so ≤_J missed pairs such as const ≤_J id.  The
    boolean-product reference and the harness's ≤_J gathered from the class
    quotient are checked here against the scan too."""
    inst = _full(blocks)
    loops = _Loops(inst)
    members = enumerate_elements(inst)
    data = _greens_data(inst)
    j_below = boolean_products(data.l_below, data.r_below)[0]
    size = len(members)
    assert np.array_equal(harness._class_relations(data, np.array(data.j_below), 0, size), j_below)
    # first_column[m][f]: the first h2 with m*h2 = f.
    first_column = [{} for _ in members]
    for m, row in enumerate(loops.product):
        for h2, f in enumerate(row):
            first_column[m].setdefault(f, h2)
    for g in range(len(members)):
        ideal = loops.j_ideal(g)
        expected = np.zeros(len(members), dtype=bool)
        expected[list(ideal)] = True
        assert np.array_equal(j_below[:, g], expected)
        for f in range(len(members)):
            found = principal_leq_oracle("J", members[f], members[g], inst)
            if f not in ideal:
                assert found is None
                continue
            assert tuple(_position(inst, h) for h in found) == loops.first_j_factors(
                f, g, first_column
            )
    n = inst.partition.n
    const = members[loops.index[(0,) * n]]
    ident = members[loops.identity]
    h1, h2 = principal_leq_oracle("J", const, ident, inst)
    assert comp(comp(h1.images, ident.images), h2.images) == const.images


def test_t5_tables_and_classes():
    """T_5 (3125 members): the product build, the unit scan and the class
    labels each end on a short block, and the ≤_L/≤_R scatter indexes the
    flat matrices far past 2**15.  In T_n, f ≤_L g exactly when im f lies
    in im g, and f ≤_R g exactly when the kernel of g refines that of f."""
    inst = _full([[0, 1, 2, 3, 4]])
    members = enumerate_elements(inst)
    assert len(members) == 3125
    assert units(inst) == tuple(m for m in members if m.is_bijective())
    assert len(units(inst)) == 120
    assert len(idempotents(inst)) == 196
    data = _greens_data(inst)
    assert len(data.classes[3]) == 52  # R-classes: Bell(5) kernels
    assert len(data.classes[4]) == 31  # L-classes: nonempty images
    assert len(set(data.d_label)) == 5  # ranks
    images = np.array([_mask(m.images) for m in members])
    pairs = list(itertools.combinations(range(5), 2))
    kernels = np.array([_mask(k for k, (x, y) in enumerate(pairs) if m.images[x] == m.images[y])
                        for m in members])
    assert np.array_equal(data.l_below, images[:, None] & ~images[None, :] == 0)
    assert np.array_equal(data.r_below, kernels[None, :] & ~kernels[:, None] == 0)


def test_dropping_an_instance_frees_its_derived_data():
    """The instance, and with it the witness lists its derived data keeps
    and the memo of index-semigroup facts its Green's data keeps."""
    inst = _full([[0, 1], [2]])
    eggbox(inst)
    units(inst)
    for m in enumerate_elements(inst):
        is_regular_oracle(m, inst)
        regular_character_witnesses(m, inst)
        unit_regular_witnesses(m, inst)
    assert character(units(inst)[0], inst.partition) in inst.si
    lists = inst.derived.witness_lists
    assert set(lists) == {False, True}
    kept = [weakref.ref(x) for flat_offsets in lists.values() for x in flat_offsets]
    del lists
    members = enumerate_elements(inst)
    for checker in greens.checkers().values():
        checker(members[1], members[2], inst, mode="theorem")
    facts = weakref.ref(_greens_data(inst).si_facts)
    assert len(facts()) > 0
    del members
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None
    assert [x() for x in kept] == [None] * 4
    assert facts() is None


class _TupleSearches:
    """The Green's theorem-route searches as tuple comparisons over the index
    set, one composite built per element or pair: the definitions the
    index-table reads replaced.  ``match_classes`` is passed in so a test
    can record the order of the class-bijection searches."""

    def __init__(self, data, match_classes):
        self.data = data
        self.match_classes = match_classes
        self.deg = data.partition.degree

    def fm(self, images):
        return FiniteMap(self.deg, self.deg, images)

    def class_masks(self, k):
        return [_mask(c) for c in self.data.geometry.kernels[k]]

    def l_one_sided(self, fk, gk):
        data, deg = self.data, self.deg
        chi_f, chi_g = data.geometry.chars[fk], data.geometry.chars[gk]
        bf, bg = data.geometry.block_masks[fk], data.geometry.block_masks[gk]
        for at in data.si_imgs:
            if tuple(chi_g[at[i]] for i in range(deg)) != chi_f:
                continue
            if all(bf[i] & ~bg[at[i]] == 0 for i in range(deg)):
                return self.fm(at)
        return None

    def r_one_sided(self, fk, gk):
        data, deg = self.data, self.deg
        if not all(
            any(cm & ~fm == 0 for fm in self.class_masks(fk)) for cm in self.class_masks(gk)
        ):
            return None
        chi_f, chi_g = data.geometry.chars[fk], data.geometry.chars[gk]
        for bt in data.si_imgs:
            if tuple(bt[chi_g[i]] for i in range(deg)) == chi_f:
                return self.fm(bt)
        return None

    def d_search(self, fk, gk, cap):
        data, deg = self.data, self.deg
        if len(data.geometry.kernels[fk]) != len(data.geometry.kernels[gk]):
            return None
        chi_f = data.geometry.chars[fk]
        cg = data.si_imgs.index(data.geometry.chars[gk])
        budget = [cap]
        for ck, ct in enumerate(data.si_imgs):
            if not (data.si_r_below[ck, cg] and data.si_r_below[cg, ck]):
                continue
            alphas = [
                at for at in data.si_imgs if tuple(ct[at[i]] for i in range(deg)) == chi_f
            ]
            if not alphas:
                continue
            betas = [
                bt for bt in data.si_imgs if tuple(chi_f[bt[i]] for i in range(deg)) == ct
            ]
            for at in alphas:
                for bt in betas:
                    found = self.match_classes(data.geometry, fk, gk, at, bt, budget)
                    if found is not None:
                        return self.fm(at), self.fm(bt), self.fm(ct), found
        return None

    def right_divisor(self, chi_from, chi_to):
        deg = self.deg
        for ut in self.data.si_imgs:
            if tuple(ut[chi_from[i]] for i in range(deg)) == chi_to:
                return self.fm(ut)
        return None

    def j_one_sided(self, fk, gk, budget):
        data, deg = self.data, self.deg
        p = data.partition
        chi_f, chi_g = data.geometry.chars[fk], data.geometry.chars[gk]
        g_imgs = data.imgs[gk]
        dom = sorted(set(g_imgs))
        # the image of f lies in (Xg)phi: no search when rank f > rank g
        if len(set(data.imgs[fk])) > len(dom):
            return None
        dom_pos = {v: k for k, v in enumerate(dom)}
        f_blockimg = data.geometry.block_masks[fk]
        for at in data.si_imgs:
            mid = tuple(chi_g[at[i]] for i in range(deg))
            sources = [
                tuple(sorted({dom_pos[g_imgs[x]] for x in p.blocks[at[i]]}))
                for i in range(deg)
            ]
            for bt in data.si_imgs:
                if tuple(bt[mid[i]] for i in range(deg)) != chi_f:
                    continue
                candidates = [p.blocks[bt[p.block_of(z)]] for z in dom]
                for values in itertools.product(*candidates):
                    budget[0] -= 1
                    ok = True
                    for i in range(deg):
                        covered = _mask(values[k] for k in sources[i])
                        if f_blockimg[i] & ~covered:
                            ok = False
                            break
                    if ok:
                        return self.fm(at), self.fm(bt), values
        return None


def _as_maps(elements, found):
    """A search result with its index positions (the leading ints) replaced
    by the index semigroup's ``elements``."""
    if found is None or isinstance(found, int):
        return None if found is None else elements[found]
    return tuple(elements[x] if isinstance(x, int) else x for x in found)


def _assert_theorem_searches_match_the_tuple_loops(inst, pairs, monkeypatch):
    """Equal results, equal J budgets and the same class-bijection searches
    in the same order, pair by pair: each pair first on an empty memo of
    index-semigroup facts, then again on the memo the first pass filled."""
    data = _greens_data(inst)
    calls = {"table": [], "tuples": []}
    match_classes = greens._match_classes

    def recorder(route):
        def record(geometry, fk, gk, at, bt, budget):
            calls[route].append((at, bt))
            return match_classes(geometry, fk, gk, at, bt, budget)
        return record

    loops = _TupleSearches(data, recorder("tuples"))
    monkeypatch.setattr(greens, "_match_classes", recorder("table"))
    cap, elements = greens.DEFAULT_PHI_CAP, inst.si.elements
    for fk, gk in pairs:
        data.si_facts = greens._IndexFacts(data.si_table, data.si_r_below)
        for memo in ("cold", "warm"):
            budget = [cap]
            l_found = greens._l_one_sided_theorem(data, fk, gk, cap, budget)
            assert _as_maps(elements, l_found) == loops.l_one_sided(fk, gk), memo
            if data.geometry.kernels[fk] == data.geometry.kernels[gk]:
                # the R search runs behind the R criterion's equal-kernel gate
                r_found = greens._r_one_sided_theorem(data, fk, gk, cap, budget)
                assert _as_maps(elements, r_found) == loops.r_one_sided(fk, gk), memo
            d_found = greens._d_theorem_search(data, fk, gk, cap, [cap])
            assert _as_maps(elements, d_found) == loops.d_search(fk, gk, cap), memo
            assert calls["table"] == calls["tuples"], memo
            calls["table"].clear()
            calls["tuples"].clear()
            table_budget, tuple_budget = [cap], [cap]
            j_found = greens._j_one_sided_theorem(data, fk, gk, cap, table_budget)
            assert _as_maps(elements, j_found) == loops.j_one_sided(fk, gk, tuple_budget), memo
            assert table_budget == tuple_budget, memo
            cf, cg = data.char_ids[fk], data.char_ids[gk]
            divisors = data.si_facts.right_divisors(cf, cg)
            expected = loops.right_divisor(data.geometry.chars[fk], data.geometry.chars[gk])
            assert _as_maps(elements, divisors[0] if divisors else None) == expected, memo
        assert len(data.si_facts) > 0


IDENTITY_N3 = [
    (e.label, e.instance) for e in build_catalog(3, seed=7).entries if e.instance.si.has_identity
]


@pytest.mark.parametrize("label,inst", IDENTITY_N3, ids=[label for label, _ in IDENTITY_N3])
def test_index_facts_match_a_tuple_scan(label, inst):
    """Every kind of the memo of index-semigroup facts, asked for every (c, t)
    of the index set, against a scan of image tuples: left and right
    divisors, R-classes and the J alphas {a : t <=_R a*c}."""
    facts = greens._IndexFacts(inst.si.table, _greens_data(inst).si_r_below)
    imgs = [a.images for a in inst.si.elements]
    size = len(imgs)
    product = [[comp(x, y) for y in imgs] for x in imgs]
    r_below = [[any(comp(y, u) == x for u in imgs) for y in imgs] for x in imgs]
    for c, t in itertools.product(range(size), repeat=2):
        target = imgs[t]
        assert facts.left_divisors(c, t) == tuple(a for a in range(size) if product[a][c] == target)
        assert facts.right_divisors(c, t) == tuple(
            b for b in range(size) if product[c][b] == target
        )
        assert facts.j_alphas(t, c) == tuple(
            a for a in range(size) if r_below[t][imgs.index(product[a][c])]
        )
    for c in range(size):
        assert facts.r_class(c) == tuple(d for d in range(size) if r_below[c][d] and r_below[d][c])
    assert len(facts) == 3 * size * size + size
    # asked again, every fact is the kept tuple itself
    assert facts.left_divisors(0, 0) is facts.left_divisors(0, 0)


def test_oracle_calls_add_no_index_facts():
    """The oracle route never reads the memo; the theorem route fills it."""
    inst = _full([[0, 1], [2]])
    members = enumerate_elements(inst)
    facts = _greens_data(inst).si_facts
    for f, g in itertools.product(members, repeat=2):
        for checker in greens.checkers().values():
            checker(f, g, inst, mode="oracle")
        for rel in "LRJ":
            principal_leq_oracle(rel, f, g, inst)
    eggbox(inst)
    assert len(facts) == 0
    for checker in greens.checkers().values():
        checker(members[0], members[-1], inst, mode="theorem")
    assert len(facts) > 0


@pytest.mark.parametrize("label,inst", IDENTITY_N3, ids=[label for label, _ in IDENTITY_N3])
def test_theorem_searches_match_the_tuple_loops_on_every_pair(label, inst, monkeypatch):
    size = len(enumerate_elements(inst))
    _assert_theorem_searches_match_the_tuple_loops(
        inst, [(a, b) for a in range(size) for b in range(size)], monkeypatch
    )


def test_theorem_searches_match_the_tuple_loops_on_sampled_pairs_of_t4(monkeypatch):
    """A seeded sample of the 256-member ``n4:[0][1][2][3]/full``; the pairs
    with f not J-below g make the loops scan every (alpha, beta) pair."""
    inst = _full([[0], [1], [2], [3]])
    data = _greens_data(inst)
    rng = random.Random(4)
    size = len(data.members)
    pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(200)]
    j_below = boolean_products(data.l_below, data.r_below)[0]
    assert 0 < sum(not j_below[a, b] for a, b in pairs) < len(pairs)
    _assert_theorem_searches_match_the_tuple_loops(inst, pairs, monkeypatch)


ALL_N3 = [(e.label, e.instance) for e in build_catalog(3, seed=7).entries]


def _bits(mask):
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


@pytest.mark.parametrize("label,inst", ALL_N3, ids=[label for label, _ in ALL_N3])
def test_j_geometry_matches_a_direct_recomputation(label, inst):
    """Every list of the members' geometry, member by member: the images and
    characters, each X_i g as a set, the kernel classes of g and of its
    character from ``kernel_partition``, the masks of the blocks each class
    meets, the sorted image, the J geometry (the block of each image point
    and the positions of X_j g in that image, per j) and the block fits
    (X_j meets the image inside X_j' g, per j and j')."""
    geometry = inst.derived.geometry
    p = inst.partition
    members = enumerate_elements(inst)
    assert len(geometry.images) == len(geometry.chars) == len(members)
    for k, g in enumerate(members):
        assert geometry.images[k] == g.images
        assert geometry.chars[k] == character(g, p).images
        block_images = [{g.images[x] for x in block} for block in p.blocks]
        assert [_bits(m) for m in geometry.block_masks[k]] == block_images
        assert geometry.block_masks[k] == tuple(
            _mask(g.images[x] for x in block) for block in p.blocks
        )
        classes = kernel_partition(g).classes
        assert geometry.kernels[k] == classes
        chi = FiniteMap(p.degree, p.degree, geometry.chars[k])
        assert geometry.char_kernels[k] == kernel_partition(chi).classes
        meets = tuple(tuple(sorted({p.block_of(x) for x in c})) for c in classes)
        assert geometry.meet_masks[k] == tuple(_mask(c) for c in meets)
        assert [_bits(m) for m in geometry.meet_masks[k]] == [
            {i for i, block in enumerate(p.blocks) if set(block) & set(c)} for c in classes
        ]
        image = sorted(set(g.images))
        assert geometry.sorted_images[k] == tuple(image)
        sources = tuple(
            tuple(sorted(image.index(v) for v in {g.images[x] for x in block}))
            for block in p.blocks
        )
        assert geometry.j_geometry[k] == (tuple(p.block_of(z) for z in image), sources)
        assert geometry.block_fits[k].tolist() == [
            [set(block) & set(image) <= images for images in block_images] for block in p.blocks
        ]


class _MapWitnesses:
    """The Green's checkers as they assembled and validated witnesses on
    FiniteMaps: oracle factors mapped back through ``character``, image maps
    recovered with ``compose``, and every built factor checked by composing
    it.  The theorem-route searches are the library's own.  Each checker
    returns the witness with the maps it carried then (index maps, D class
    pairing, J image maps), as ``witness_maps`` returns them."""

    def __init__(self, inst):
        self.inst = inst
        self.data = _greens_data(inst)
        self.p, self.elements = inst.partition, inst.si.elements

    def ids(self, *maps):
        return [ensemble.require_member(h, self.inst) for h in maps]

    @staticmethod
    def witness(rel, factors, index_maps, pairing=None, image_maps=()):
        return GreenWitness(rel, factors), (dict(index_maps), pairing, dict(image_maps))

    def leq(self, rel, f, g):
        data = self.data
        fk, gk = self.ids(f, g)
        table = data.table
        if rel == "L":
            found = np.flatnonzero(table[:, gk] == fk)
            return data.members[found[0]] if len(found) else None
        if rel == "R":
            found = np.flatnonzero(table[gk] == fk)
            return data.members[found[0]] if len(found) else None
        k1 = data.r_below[fk, table[:, gk]].nonzero()[0]
        if not len(k1):
            return None
        k1 = int(k1[0])
        k2 = int(np.flatnonzero(table[table[k1, gk]] == fk)[0])
        return data.members[k1], data.members[k2]

    def related(self, rel, f, g, mode, cap):
        return {"L": self.l_related, "R": self.r_related, "D": self.d_related,
                "J": self.j_related}[rel](f, g, mode, cap)

    def l_related(self, f, g, mode, cap):
        data, p = self.data, self.p
        fk, gk = self.ids(f, g)
        if mode == "oracle":
            if data.classes[1][fk] != data.classes[1][gk]:
                return None
            h_fg, h_gf = self.leq("L", f, g), self.leq("L", g, f)
            return self.witness(
                "L", (("fg", h_fg), ("gf", h_gf)),
                (("alpha", character(h_fg, p)), ("beta", character(h_gf, p))),
            )
        budget = [cap]
        alpha = _as_maps(self.elements, greens._l_one_sided_theorem(data, fk, gk, cap, budget))
        if alpha is None:
            return None
        beta = _as_maps(self.elements, greens._l_one_sided_theorem(data, gk, fk, cap, budget))
        if beta is None:
            return None
        return self.witness(
            "L", (("fg", self.left_factor(f, g, alpha)), ("gf", self.left_factor(g, f, beta))),
            (("alpha", alpha), ("beta", beta)),
        )

    def left_factor(self, f, g, alpha):
        p = self.p
        at = alpha.images
        images = [0] * p.n
        for i, b in enumerate(p.blocks):
            for x in b:
                images[x] = next(y for y in p.blocks[at[i]] if g.images[y] == f.images[x])
        h = FiniteMap(p.n, p.n, tuple(images))
        assert compose(h, g) == f and character(h, p) == alpha
        return h

    def r_related(self, f, g, mode, cap):
        data, p = self.data, self.p
        fk, gk = self.ids(f, g)
        if mode == "oracle":
            if data.classes[0][fk] != data.classes[0][gk]:
                return None
            h_fg, h_gf = self.leq("R", f, g), self.leq("R", g, f)
            return self.witness(
                "R", (("fg", h_fg), ("gf", h_gf)),
                (("beta_fg", character(h_fg, p)), ("beta_gf", character(h_gf, p))),
            )
        if data.geometry.kernels[fk] != data.geometry.kernels[gk]:
            return None
        budget = [cap]
        beta_fg = _as_maps(self.elements, greens._r_one_sided_theorem(data, fk, gk, cap, budget))
        if beta_fg is None:
            return None
        beta_gf = _as_maps(self.elements, greens._r_one_sided_theorem(data, gk, fk, cap, budget))
        if beta_gf is None:
            return None
        return self.witness(
            "R",
            (("fg", self.right_factor(f, g, beta_fg)), ("gf", self.right_factor(g, f, beta_gf))),
            (("beta_fg", beta_fg), ("beta_gf", beta_gf)),
        )

    def right_factor(self, f, g, beta):
        p = self.p
        least_preimage = {}
        for x in range(p.n):
            least_preimage.setdefault(g.images[x], x)
        images = [0] * p.n
        for i, b in enumerate(p.blocks):
            for x in b:
                if x in least_preimage:
                    images[x] = f.images[least_preimage[x]]
                else:
                    images[x] = p.blocks[beta.images[i]][0]
        h = FiniteMap(p.n, p.n, tuple(images))
        assert compose(g, h) == f and character(h, p) == beta
        return h

    def d_related(self, f, g, mode, cap):
        data, p = self.data, self.p
        fk, gk = self.ids(f, g)
        if mode == "oracle":
            l_eq_f = data.l_below[fk, :] & data.l_below[:, fk]
            r_eq_g = data.r_below[gk, :] & data.r_below[:, gk]
            hits = np.nonzero(l_eq_f & r_eq_g)[0]
            if len(hits) == 0:
                return None
            m = data.members[int(hits[0])]
            l_fm, l_mf = self.leq("L", f, m), self.leq("L", m, f)
            by_value = {m.images[c[0]]: c for c in kernel_partition(m).classes}
            return self.witness(
                "D",
                (("middle", m), ("l_fm", l_fm), ("l_mf", l_mf),
                 ("r_mg", self.leq("R", m, g)), ("r_gm", self.leq("R", g, m))),
                (("alpha", character(l_fm, p)), ("beta", character(l_mf, p)),
                 ("gamma", character(m, p))),
                tuple((c, by_value[f.images[c[0]]]) for c in kernel_partition(f).classes),
            )
        found = _as_maps(self.elements, greens._d_theorem_search(data, fk, gk, cap, [cap]))
        if found is None:
            return None
        alpha, beta, gamma, matched = found
        kernels = data.geometry.kernels
        pairing = tuple((kernels[fk][mk], kernels[gk][nk]) for mk, nk in enumerate(matched))
        images = [0] * p.n
        for m_class, g_class in pairing:
            for x in g_class:
                images[x] = f.images[m_class[0]]
        m = FiniteMap(p.n, p.n, tuple(images))
        assert character(m, p) == gamma and kernel_partition(m) == kernel_partition(g)
        [mk] = self.ids(m)
        facts = data.si_facts
        u = self.elements[facts.right_divisors(data.char_ids[gk], data.char_ids[mk])[0]]
        v = self.elements[facts.right_divisors(data.char_ids[mk], data.char_ids[gk])[0]]
        return self.witness(
            "D",
            (("middle", m), ("l_fm", self.left_factor(f, m, alpha)),
             ("l_mf", self.left_factor(m, f, beta)), ("r_mg", self.right_factor(m, g, u)),
             ("r_gm", self.right_factor(g, m, v))),
            (("alpha", alpha), ("beta", beta), ("gamma", gamma)),
            pairing,
        )

    def j_related(self, f, g, mode, cap):
        data, p = self.data, self.p
        fk, gk = self.ids(f, g)
        if mode == "oracle":
            # f and g J-below each other: some h1*g has f in its right ideal, and back
            if not all(data.r_below[a, data.table[:, b]].any() for a, b in ((fk, gk), (gk, fk))):
                return None
            h1, h2 = self.leq("J", f, g)
            k1, k2 = self.leq("J", g, f)
            return self.witness(
                "J", (("fg1", h1), ("fg2", h2), ("gf1", k1), ("gf2", k2)),
                (("alpha", character(h1, p)), ("beta", character(h2, p)),
                 ("gamma", character(k1, p)), ("delta", character(k2, p))),
                image_maps=(("phi", self.image_map(g, h1, h2)), ("psi", self.image_map(f, k1, k2))),
            )
        budget = [cap]
        forward = _as_maps(self.elements, greens._j_one_sided_theorem(data, fk, gk, cap, budget))
        if forward is None:
            return None
        backward = _as_maps(self.elements, greens._j_one_sided_theorem(data, gk, fk, cap, budget))
        if backward is None:
            return None
        alpha, beta, phi = forward
        gamma, delta, psi = backward
        phi = FiniteMap(len(set(g.images)), p.n, phi)
        psi = FiniteMap(len(set(f.images)), p.n, psi)
        h1, h2 = self.j_factors(f, g, alpha, beta, phi)
        k1, k2 = self.j_factors(g, f, gamma, delta, psi)
        return self.witness(
            "J", (("fg1", h1), ("fg2", h2), ("gf1", k1), ("gf2", k2)),
            (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("delta", delta)),
            image_maps=(("phi", phi), ("psi", psi)),
        )

    def image_map(self, g, h1, h2):
        p = self.p
        beta = character(h2, p)
        dom = sorted(set(g.images))
        reached = set(compose(h1, g).images)
        values = []
        for x in dom:
            fellow = [y for y in p.blocks[p.block_of(x)] if y in reached]
            if x in reached:
                values.append(h2.images[x])
            elif fellow:
                values.append(h2.images[fellow[0]])
            else:
                values.append(p.blocks[beta.images[p.block_of(x)]][0])
        return FiniteMap(len(dom), p.n, tuple(values))

    def j_factors(self, f, g, alpha, beta, phi):
        p = self.p
        dom = sorted(set(g.images))
        dom_pos = {v: k for k, v in enumerate(dom)}
        gphi = {y: phi.images[dom_pos[g.images[y]]] for y in range(p.n)}
        chi_g_image = set(character(g, p).images)
        h1_images = [0] * p.n
        h2_images = [0] * p.n
        for i, b in enumerate(p.blocks):
            for x in b:
                h1_images[x] = next(
                    y for y in p.blocks[alpha.images[i]] if gphi[y] == f.images[x]
                )
                if i in chi_g_image and x in dom_pos:
                    h2_images[x] = phi.images[dom_pos[x]]
                else:
                    h2_images[x] = p.blocks[beta.images[i]][0]
        h1 = FiniteMap(p.n, p.n, tuple(h1_images))
        h2 = FiniteMap(p.n, p.n, tuple(h2_images))
        assert compose(compose(h1, g), h2) == f
        assert character(h1, p) == alpha and character(h2, p) == beta
        return h1, h2


def _outcome(call):
    """The call's result, or the message of the ResourceLimitError it raised."""
    try:
        return call()
    except ResourceLimitError as err:
        return ("ResourceLimitError", str(err))


def _with_maps(w, f, g, p):
    """The witness and the maps ``witness_maps`` reads off it, or None."""
    return None if w is None else (w, greens.witness_maps(w, f, g, p))


def _assert_witnesses_match_the_map_route(inst, pairs):
    """Equal witnesses and equal maps read off them, or equal cap errors,
    from every checker in oracle mode, theorem mode and theorem mode with
    cap 3, and equal first factors from principal_leq_oracle, pair by pair."""
    ref = _MapWitnesses(inst)
    members, p = enumerate_elements(inst), inst.partition
    modes = (("oracle", greens.DEFAULT_PHI_CAP), ("theorem", greens.DEFAULT_PHI_CAP),
             ("theorem", 3))
    for a, b in pairs:
        f, g = members[a], members[b]
        for rel, checker in greens.checkers().items():
            for mode, cap in modes:
                got = _outcome(lambda: _with_maps(checker(f, g, inst, mode=mode, cap=cap), f, g, p))
                assert got == _outcome(lambda: ref.related(rel, f, g, mode, cap)), (
                    rel, mode, cap, a, b)
        for rel in "LRJ":
            assert principal_leq_oracle(rel, f, g, inst) == ref.leq(rel, f, g), (rel, a, b)


@pytest.mark.parametrize("label,inst", IDENTITY_N3, ids=[label for label, _ in IDENTITY_N3])
def test_witnesses_match_the_map_route_on_every_pair(label, inst):
    size = len(enumerate_elements(inst))
    _assert_witnesses_match_the_map_route(
        inst, [(a, b) for a in range(size) for b in range(size)]
    )


def test_witnesses_match_the_map_route_on_sampled_pairs_of_t4():
    inst = _full([[0], [1], [2], [3]])
    rng = random.Random(5)
    size = len(enumerate_elements(inst))
    _assert_witnesses_match_the_map_route(
        inst, [(rng.randrange(size), rng.randrange(size)) for _ in range(200)]
    )
