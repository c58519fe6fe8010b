"""Element verdicts decided once per instance: each member's first inner
and first unit inverse (``DerivedData.first_inverse`` and
``first_unit_inverse``, lists of member positions), every member's witness
lists (``DerivedData.witness_lists``) and the egg-box filled in one pass,
each against a computation that keeps nothing; and the lifetime of what
they keep."""

import gc
import sys
import tracemalloc
import weakref
from functools import reduce
from operator import or_

import numpy as np
import pytest

from partsem import (
    FiniteMap,
    IndexSemigroup,
    Instance,
    Partition,
    PreconditionError,
    build_catalog,
    build_inner_inverse,
    d_related,
    eggbox,
    enumerate_elements,
    is_idempotent_characterized,
    is_regular_oracle,
    is_regular_semigroup,
    is_unit_regular_oracle,
    is_unit_regular_semigroup,
    regular_character_witnesses,
    unit_regular_witnesses,
)
from partsem import greens, regularity, unit_regularity
from partsem.ensemble import ROW_BLOCK_BYTES, _first_inner_inverses, require_member
from partsem.finite_maps import _fibers
from partsem.partition_action import _mask


def _instance(blocks):
    p = Partition.of(blocks)
    return Instance(p, IndexSemigroup.full(p.degree))


# every max_n 3 entry, the two scale-n5 instances and the one-block T_5
INSTANCES = {e.label: e.instance for e in build_catalog(3, seed=7).entries}
INSTANCES["n5:[0,1][2][3][4]/full"] = _instance([[0, 1], [2], [3], [4]])
INSTANCES["n5:[0,1,2,3][4]/full"] = _instance([[0, 1, 2, 3], [4]])
INSTANCES["T_5"] = _instance([[0, 1, 2, 3, 4]])


@pytest.fixture(params=list(INSTANCES), ids=list(INSTANCES))
def inst(request):
    inst = INSTANCES[request.param]
    yield inst
    inst.drop_derived()


def _first_hits(imgs, candidates):
    """Per member t, the place in ``candidates`` of the first g with
    t*g*t = t, or -1, composed on image arrays: (t*g*t)(x) = t[g[t[x]]]."""
    first = []
    for t in imgs:
        hits = (t[imgs[candidates][:, t]] == t).all(axis=1).nonzero()[0]
        first.append(int(hits[0]) if len(hits) else -1)
    return first


def test_first_inverses_equal_a_scan_from_the_definition(inst):
    """Both first-inverse lists hold a Python int per member, the member
    position of its first inverse or -1, and the element oracles return
    those members."""
    d = inst.derived
    imgs = np.array([m.images for m in enumerate_elements(inst)])
    assert d.first_inverse == _first_hits(imgs, np.arange(len(imgs)))
    assert {type(g) for g in d.first_inverse} == {int}
    for f, g in zip(d.members, d.first_inverse):
        assert is_regular_oracle(f, inst) == (None if g < 0 else d.members[g])
    if inst.si.has_identity:
        units = d.unit_ids.tolist()
        expected = [-1 if u < 0 else units[u] for u in _first_hits(imgs, d.unit_ids)]
        assert d.first_unit_inverse == expected
        assert {type(u) for u in d.first_unit_inverse} == {int}
        for f, u in zip(d.members, d.first_unit_inverse):
            assert is_unit_regular_oracle(f, inst) == (None if u < 0 else d.members[u])


def test_the_semigroup_oracles_look_up_no_member(inst, monkeypatch):
    """Regularity and unit-regularity of the whole semigroup by exhaustion
    read the first-inverse lists: they agree with the element oracle on
    every member and make no ``require_member`` call."""
    members = enumerate_elements(inst)
    regular = all(is_regular_oracle(f, inst) is not None for f in members)
    identity = inst.si.has_identity
    unit_regular = identity and all(is_unit_regular_oracle(f, inst) is not None for f in members)
    looked_up = []
    for module in (regularity, unit_regularity):
        monkeypatch.setattr(module, "require_member", lambda f, inst: looked_up.append(f))
    assert is_regular_semigroup(inst, "oracle") == regular
    if identity:
        assert is_unit_regular_semigroup(inst, "oracle") == unit_regular
    assert looked_up == []


@pytest.mark.parametrize("blocks", [[[0, 1], [2, 3], [4]], [[0], [1], [2], [3]]])
def test_the_first_inverse_scans_peak_within_their_row_budget(blocks):
    """Under tracemalloc, each first-inverse scan of a built member table
    peaks within ROW_BLOCK_BYTES plus one row of its temporaries, besides
    the array it returns."""
    d = _instance(blocks).derived
    table = d.table
    for candidates in (None, d.unit_ids):
        width = len(table) if candidates is None else len(candidates)
        tracemalloc.start()
        try:
            first = _first_inner_inverses(table, candidates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ROW_BLOCK_BYTES + (9 + table.itemsize) * width + first.nbytes


def _uncached_witnesses(inst, k, units):
    """Member k's witness positions, candidate by candidate: chi*alpha*chi =
    chi on the index table, X_j meeting the image of f inside X_{alpha(j)}f
    on block-image masks for every block j and, for units, equal block
    sizes along alpha."""
    d, si, blocks = inst.derived, inst.si, inst.partition.blocks
    table, c, masks = si.table.tolist(), d.char_ids[k], d.geometry.block_masks[k]
    image = reduce(or_, masks)
    candidates = si.unit_ids.tolist() if units else range(len(si))
    found = []
    for a in candidates:
        alpha = si.elements[a].images
        if table[table[c][a]][c] != c:
            continue
        if any(image & _mask(b) & ~masks[t] for b, t in zip(blocks, alpha)):
            continue
        if units and any(len(blocks[i]) != len(blocks[t]) for i, t in enumerate(alpha)):
            continue
        found.append(a)
    return found


def test_witness_lists_equal_an_uncached_passing_computation(inst):
    """Each member's witness list, and the positions the inverse builders
    admit, against a computation that keeps nothing."""
    d, si = inst.derived, inst.si
    flags = (False, True) if si.has_identity else (False,)
    public = {False: regular_character_witnesses, True: unit_regular_witnesses}
    for k, f in enumerate(d.members):
        for units in flags:
            expected = _uncached_witnesses(inst, k, units)
            assert public[units](f, inst) == tuple(si.elements[a] for a in expected), f
            for a in expected:
                assert regularity._witness_position(f, si.elements[a], inst, units) == (k, a)
            refused = next((a for a in range(len(si)) if a not in expected), None)
            if refused is not None:
                with pytest.raises(PreconditionError, match="witness for"):
                    regularity._witness_position(f, si.elements[refused], inst, units)


def test_a_one_member_character_passes_every_candidate():
    """On singleton blocks every character has one member, and every block
    of im chi is one point: each member's witnesses are all alpha with
    chi*alpha*chi = chi, for units all such units."""
    inst = _instance([[0], [1], [2]])
    si = inst.si
    table = si.table
    for f in enumerate_elements(inst):
        c = inst.derived.char_ids[require_member(f, inst)]
        solves = [a for a in range(len(si)) if table[table[c, a], c] == c]
        assert regular_character_witnesses(f, inst) == tuple(si.elements[a] for a in solves)
        units = [a for a in solves if a in si.unit_ids]
        assert unit_regular_witnesses(f, inst) == tuple(si.elements[a] for a in units)


def _per_cell_eggbox(inst):
    """The egg-box by a scan of the whole D-class for every grid cell."""
    data = greens._greens_data(inst)
    r_of, l_of, _, r_first, l_first = data.classes
    d_members = _fibers(data.d_label)
    boxes = []
    for root in sorted(d_members):
        ks = d_members[root]
        rows = sorted({r_of[k] for k in ks})
        cols = sorted({l_of[k] for k in ks})
        grid = [[[k for k in ks if r_of[k] == r and l_of[k] == c] for c in cols] for r in rows]
        boxes.append({"representative": root, "r_classes": r_first[rows].tolist(),
                      "l_classes": l_first[cols].tolist(), "grid": grid})
    return boxes


@pytest.mark.parametrize("label", [k for k, inst in INSTANCES.items() if inst.si.has_identity])
def test_eggbox_equals_the_per_cell_scan(label):
    inst = INSTANCES[label]
    try:
        assert eggbox(inst) == _per_cell_eggbox(inst)
    finally:
        inst.drop_derived()


def test_the_lists_and_the_witness_lists_die_with_the_derived_data():
    """With the cyclic GC off, ``drop_derived`` frees the derived data and
    both units flags' witness lists, and lets go of the first-inverse lists
    and the idempotency verdicts, built once: a list takes no weak
    reference, so each is shown held by the derived data alone, one
    reference more than a control list, and by nothing once it is dropped."""
    inst = _instance([[0, 1], [2]])
    f = FiniteMap.of([1, 1, 2])
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert is_regular_oracle(f, inst) is not None
        assert is_unit_regular_oracle(f, inst) is not None
        alpha = regular_character_witnesses(f, inst)[0]
        build_inner_inverse(f, alpha, inst)
        assert unit_regular_witnesses(f, inst)
        assert is_idempotent_characterized(f, inst)
        d = inst.derived
        verdicts = d.idempotent_verdicts
        assert [is_idempotent_characterized(g, inst) for g in d.members] == verdicts
        assert d.idempotent_verdicts is verdicts
        kept = [weakref.ref(d)]
        kept += [weakref.ref(x) for lists in d.witness_lists.values() for x in lists]
        assert len(kept) == 5
        held = [d.first_inverse, d.first_unit_inverse, verdicts, []]
        del d, verdicts
        counts = [sys.getrefcount(x) for x in held]
        assert counts[:-1] == [counts[-1] + 1] * 3
        inst.drop_derived()
        assert [ref() for ref in kept] == [None] * len(kept)
        assert [sys.getrefcount(x) for x in held] == [counts[-1]] * 4
    finally:
        if enabled:
            gc.enable()


def test_a_backtracking_d_search_leaves_no_garbage():
    """The class matching backtracks on f = [0,0,1] with alpha = beta the
    constant character 0 (one class assigned, then undone), and a D theorem
    search on (f, f) leaves no reference cycle."""
    inst = _instance([[0, 1], [2]])
    f = FiniteMap.of([0, 0, 1])
    k = require_member(f, inst)
    data = greens._greens_data(inst)
    geometry = data.geometry
    # every nonempty set of blocks goes to block 0
    c = data.si_imgs.index((0, 0))
    constant = data.si_facts.mask_images(c, data.si_imgs[c])
    assert [constant[m] for m in range(4)] == [0, 1, 1, 1]
    budget = [10]
    assert greens._match_classes(geometry, k, k, constant, constant, budget) is None
    assert budget == [9] and len(geometry.meet_masks[k]) == 2
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    garbage = list(gc.garbage)
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert d_related(f, f, inst, mode="theorem") is not None
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage[:] = garbage
        if enabled:
            gc.enable()
