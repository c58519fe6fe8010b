"""The memo objects of the Green's position cores (``greens._Kept``).

``harness._GreensSweep.codes`` makes one per entry and hands it to every
core call: the cores read the factor scans and builders through it by
member positions, and the L, R, D and J searches by the pair's theorem
keys.  Each fact is then computed at most once per entry, every core gives
what it gives without one, caps included, and the memo lives only as long
as ``codes``; the public checkers hand the cores none.
"""

import gc
import itertools
import weakref
from collections import Counter

import pytest

from partsem import (
    ResourceLimitError,
    build_catalog,
    enumerate_elements,
    greens,
    harness,
    run_all,
    run_suite,
)

# the kept functions: by the positions they take, and the searches by the
# pair's theorem keys of their relation
POSITIONS = ("_first_factor", "_left_factor", "_right_factor", "_j_factors")
SEARCHES = {"_l_one_sided_theorem": "L", "_r_one_sided_theorem": "R",
            "_d_theorem_search": "D", "_j_one_sided_theorem": "J"}


@pytest.fixture(scope="module")
def catalog3():
    return build_catalog(3, seed=7)


def _identity_entries(catalog):
    return [e for e in catalog.entries if e.instance.si.has_identity]


def _count_runs(monkeypatch, keep=True):
    """Every run of a kept function read through a memo object made from
    now on (``greens._Kept()``, as the sweep and the tests make them),
    counted by (memo, function, key): the arguments it takes after the
    Green's data, or for a search the theorem keys of its pair.  With
    ``keep`` False each such object keeps nothing, as ``greens._UNKEPT``."""
    runs, memos, inside = Counter(), itertools.count(), []

    class Counted(greens._Kept if keep else greens._Unkept):
        def __init__(self):
            super().__init__()
            self.number = next(memos)

        def get(self, fn, data, *args):
            inside.append(self.number)
            try:
                return super().get(fn, data, *args)
            finally:
                inside.pop()

        def search(self, rel, fn, data, fk, gk, cap, budget):
            inside.append(self.number)
            try:
                return super().search(rel, fn, data, fk, gk, cap, budget)
            finally:
                inside.pop()

    def spy(name, fn):
        def run(data, *args):
            if inside:
                key = args
                if name in SEARCHES:
                    keys = data.theorem_keys[SEARCHES[name]]
                    key = keys[args[0]], keys[args[1]]
                runs[inside[-1], name, key] += 1
            return fn(data, *args)
        return run

    monkeypatch.setattr(greens, "_Kept", Counted)
    for name in (*POSITIONS, *SEARCHES):
        monkeypatch.setattr(greens, name, spy(name, getattr(greens, name)))
    return runs


def test_each_fact_is_computed_at_most_once_per_entry(catalog3, monkeypatch):
    """Over the sweeps of the max_n 3 catalog, each kept builder and search
    runs once per distinct key of its entry, and the records are those of a
    run whose sweeps keep nothing, where facts are computed again (2.8×
    as many runs as distinct keys)."""
    unkept = _count_runs(monkeypatch, keep=False)
    report = run_all(catalog3, ["greens-mode-agreement", "greens-witness-replay"])
    assert report.failures == report.capped == 0
    expected = [r.to_payload() | {"millis": 0} for r in report.records]
    monkeypatch.undo()
    kept = _count_runs(monkeypatch)
    report = run_all(build_catalog(3, seed=7), ["greens-mode-agreement", "greens-witness-replay"])
    assert [r.to_payload() | {"millis": 0} for r in report.records] == expected
    assert set(kept) == set(unkept)
    assert set(kept.values()) == {1}
    assert {name for _, name, _ in kept} == {*POSITIONS, *SEARCHES}
    assert sum(unkept.values()) > 2 * len(unkept)


def _outcomes(inst, cap, facts):
    """Each position core's outcome in each mode on every ordered pair of
    members, each fact read through ``facts``: its factor positions, None,
    or the message of its ``ResourceLimitError``."""
    data, size = greens._greens_data(inst), len(enumerate_elements(inst))
    out = []
    for fk, gk in itertools.product(range(size), repeat=2):
        for rel, core in greens._cores().items():
            for mode in harness._MODES:
                try:
                    out.append(core(data, rel, mode, fk, gk, cap, facts))
                except ResourceLimitError as exc:
                    out.append(str(exc))
    return out


@pytest.mark.parametrize("cap", [greens.DEFAULT_PHI_CAP, 3], ids=["default-cap", "cap-3"])
def test_checkers_give_the_same_outcomes_inside_an_open_memo(cap, catalog3, monkeypatch):
    """On every ordered pair of each max_n 3 identity entry, every core in
    both modes gives the same factors, or raises the same cap message, with
    one ``_Kept`` per entry as with ``_UNKEPT``, which the public checkers
    hand it.  At cap 3 some kept searches spent more than a later call had
    left, so they ran again and raised there; at the default cap none did."""
    runs = _count_runs(monkeypatch)
    capped = 0
    for entry in _identity_entries(catalog3):
        inst = entry.instance
        outside = _outcomes(inst, cap, greens._UNKEPT)
        inside = _outcomes(inst, cap, greens._Kept())
        assert inside == outside, entry.label
        capped += sum(isinstance(o, str) for o in outside)
    searched_again = [key for key, count in runs.items() if key[1] in SEARCHES and count > 1]
    if cap == 3:
        assert capped > 0 and searched_again
    else:
        assert capped == 0 and not searched_again


def _largest_identity_entry(catalog):
    return max(_identity_entries(catalog), key=lambda e: len(enumerate_elements(e.instance)))


def _spy_on_memos(monkeypatch, raise_at=None):
    """Rebind the L/R core to note the memo object of each call, by weak
    reference, and to raise on call ``raise_at``; returns the notes: the
    calls, the distinct memos in order with their types, and how many
    facts the memo held after the last call that returned."""
    notes, real = {"memos": [], "types": [], "kept": 0, "calls": 0}, greens._one_sided_witness

    def spy(data, rel, mode, fk, gk, cap, facts=greens._UNKEPT):
        notes["calls"] += 1
        if not notes["memos"] or notes["memos"][-1]() is not facts:
            notes["memos"].append(weakref.ref(facts))
            notes["types"].append(type(facts))
        if notes["calls"] == raise_at:
            raise RuntimeError("a core that raises")
        found = real(data, rel, mode, fk, gk, cap, facts)
        notes["kept"] = len(getattr(facts, "kept", ()))
        return found

    monkeypatch.setattr(greens, "_one_sided_witness", spy)
    return notes


def test_the_sweep_owns_one_memo_for_its_codes(catalog3, monkeypatch):
    """Every core call of a sweep is handed one ``_Kept``, which ``codes``
    made, and the memo is dead once ``codes`` returns, with no garbage
    collection asked for: nothing outlives the codes but what they hold."""
    entry = _largest_identity_entry(catalog3)
    gc.disable()
    try:
        notes = _spy_on_memos(monkeypatch)
        assert harness._GreensSweep(entry, catalog3).codes.size
        assert notes["calls"] > 50 and notes["types"] == [greens._Kept]
        assert notes["kept"] > 0
        assert notes["memos"][0]() is None
    finally:
        gc.enable()


def test_a_core_exception_leaving_codes_drops_its_memo(catalog3, monkeypatch):
    """A core raising on the 50th call leaves ``codes`` with its exception;
    once the exception is handled the memo is dead, with no garbage
    collection asked for."""
    entry = _largest_identity_entry(catalog3)
    gc.disable()
    try:
        notes = _spy_on_memos(monkeypatch, raise_at=50)
        with pytest.raises(RuntimeError, match="a core that raises"):
            harness._GreensSweep(entry, catalog3).codes
        assert notes["calls"] == 50 and notes["types"] == [greens._Kept]
        assert notes["memos"][0]() is None
    finally:
        gc.enable()


def test_public_checkers_make_no_memo(catalog3, monkeypatch):
    """1,000 public checker calls construct no ``_Kept``: each core call is
    handed ``_UNKEPT``."""
    entry = _largest_identity_entry(catalog3)
    built = []
    real_init = greens._Kept.__init__
    monkeypatch.setattr(greens._Kept, "__init__",
                        lambda facts: built.append(facts) or real_init(facts))
    handed = set()
    for name in {core.__name__ for core in greens._cores().values()}:
        def core(data, rel, mode, fk, gk, cap, facts=greens._UNKEPT, _real=getattr(greens, name)):
            handed.add(id(facts))
            return _real(data, rel, mode, fk, gk, cap, facts)

        monkeypatch.setattr(greens, name, core)
    members = enumerate_elements(entry.instance)
    calls = itertools.islice(itertools.product(members, members, greens.checkers().values(),
                                               harness._MODES), 1000)
    count = 0
    for f, g, checker, mode in calls:
        checker(f, g, entry.instance, mode=mode)
        count += 1
    assert count == 1000
    assert built == [] and handed == {id(greens._UNKEPT)}


def test_txp_specialization_builds_each_members_covers_once(catalog3, monkeypatch):
    """``txp-specialization`` alone over the max_n 3 catalog: each member's
    J covers are built at most once per entry, every full entry builds
    some, and each such entry makes one ``_Kept`` for its sweep and one for
    its T(X, P) verdicts."""
    built, geometries = Counter(), []
    real = greens._txp_j_covers

    def spy(geometry, b):
        if geometry not in geometries:
            geometries.append(geometry)  # kept alive, so ids stay distinct
        built[(id(geometry), b)] += 1
        return real(geometry, b)

    memos = Counter()
    real_init = greens._Kept.__init__

    def init(facts):
        memos["made"] += 1
        real_init(facts)

    monkeypatch.setattr(greens, "_txp_j_covers", spy)
    monkeypatch.setattr(greens._Kept, "__init__", init)
    catalog = build_catalog(3, seed=7)
    assert run_suite("txp-specialization", catalog).failures == 0
    full = [e for e in catalog.entries if e.si_label == "full"]
    assert len(geometries) == len(full) > 0
    assert set(built.values()) == {1}
    assert memos["made"] == 2 * len(full)
