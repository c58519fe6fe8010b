"""Element verdicts decided once per instance or once per key: each member's
first inner and first unit inverse (``DerivedData.first_inverse`` and
``first_unit_inverse``), the witness lists a plan keeps per block-mask tuple,
and the egg-box filled in one pass, each against a computation that keeps
nothing; and the lifetime of what they keep."""

import gc
import tracemalloc
import weakref
from itertools import compress

import numpy as np
import pytest

from partsem import (
    FiniteMap,
    IndexSemigroup,
    Instance,
    Partition,
    build_catalog,
    build_inner_inverse,
    d_related,
    eggbox,
    enumerate_elements,
    is_regular_oracle,
    is_unit_regular_oracle,
    regular_character_witnesses,
    unit_regular_witnesses,
)
from partsem import greens, regularity
from partsem.ensemble import ROW_BLOCK_BYTES, _first_inner_inverses, require_member
from partsem.finite_maps import _fibers


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
    d = inst.derived
    imgs = np.array([m.images for m in enumerate_elements(inst)])
    assert d.first_inverse.tolist() == _first_hits(imgs, np.arange(len(imgs)))
    for f, g in zip(d.members, d.first_inverse.tolist()):
        assert is_regular_oracle(f, inst) == (None if g < 0 else d.members[g])
    if inst.si.has_identity:
        assert d.first_unit_inverse.tolist() == _first_hits(imgs, d.unit_ids)
        for f, u in zip(d.members, d.first_unit_inverse.tolist()):
            unit = None if u < 0 else d.members[d.unit_ids[u]]
            assert is_unit_regular_oracle(f, inst) == unit


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


def test_witness_lists_equal_an_uncached_passing_computation(inst):
    d, si = inst.derived, inst.si
    flags = (False, True) if si.has_identity else (False,)
    public = {False: regular_character_witnesses, True: unit_regular_witnesses}
    for k, f in enumerate(d.members):
        for units in flags:
            plan = regularity._witness_plan(inst, k, units)
            passing = plan.passing(d.geometry, k, plan.keys)
            expected = list(compress(plan.positions, map(passing.__getitem__, plan.groups)))
            assert public[units](f, inst) == tuple(si.elements[a] for a in expected), f
            assert [a for a in plan.positions if plan.admits(d.geometry, k, a)] == expected
    # one memo entry per block-mask tuple asked about under each character
    # with two or more members; a one-member character keeps no memo
    for (chi, _), plan in d.witness_plans.items():
        ks = [k for k in range(len(d.members)) if d.char_ids[k] == chi]
        if len(ks) == 1:
            assert plan.memo is None
        else:
            assert set(plan.memo) == {d.geometry.block_masks[k] for k in ks}


def test_no_plan_of_a_one_member_character_keeps_a_memo():
    """On singleton blocks every character has one member, who alone asks
    its plans: after every member's regular and unit witnesses are asked,
    no plan keeps a witness list."""
    inst = _instance([[0], [1], [2]])
    for f in enumerate_elements(inst):
        regular_character_witnesses(f, inst)
        unit_regular_witnesses(f, inst)
    plans = inst.derived.witness_plans
    assert len(plans) == 2 * 27
    assert all(plan.memo is None for plan in plans.values())


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


def test_the_arrays_and_the_plan_memo_die_with_the_derived_data():
    """With the cyclic GC off, ``drop_derived`` frees both arrays, the
    plans and the witness lists their memos keep."""
    inst = _instance([[0, 1], [2]])
    f = FiniteMap.of([1, 1, 2])
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert is_regular_oracle(f, inst) is not None
        assert is_unit_regular_oracle(f, inst) is not None
        alpha = regular_character_witnesses(f, inst)[0]
        build_inner_inverse(f, alpha, inst)
        d = inst.derived
        plans = list(d.witness_plans.values())
        kept = [weakref.ref(x) for x in (d, d.first_inverse, d.first_unit_inverse)]
        kept += [weakref.ref(x) for plan in plans for x in (plan, *plan.memo.values())]
        assert len(kept) > 4
        del d, plans
        inst.drop_derived()
        assert [ref() for ref in kept] == [None] * len(kept)
    finally:
        if enabled:
            gc.enable()


def test_a_backtracking_d_search_leaves_no_garbage():
    """The class matching backtracks on f = [0,0,1] (one class assigned, then
    undone), and a D theorem search on (f, f) leaves no reference cycle."""
    inst = _instance([[0, 1], [2]])
    f = FiniteMap.of([0, 0, 1])
    k = require_member(f, inst)
    geometry = greens._greens_data(inst).geometry
    budget = [10]
    assert greens._match_classes(geometry, k, k, (0, 0), (0, 0), budget) is None
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
