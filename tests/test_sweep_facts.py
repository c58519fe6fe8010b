"""The Green's sweep's one-sided facts (``greens._SweepFacts``).

While ``harness._GreensSweep.codes`` holds them open (``greens._kept_facts``),
the position cores read the factor scans and builders through them by member
positions, and the L, D and J searches by the pair's theorem keys.  Each
fact is then computed at most once per entry, every checker gives what it
gives without them, caps included, and no memo outlives ``codes``.
"""

import itertools
from collections import Counter
from contextlib import contextmanager

import pytest

from partsem import (
    ResourceLimitError,
    build_catalog,
    enumerate_elements,
    greens,
    harness,
    run_all,
)

# the kept functions: by the positions they take, and the searches by the
# pair's theorem keys of their relation
POSITIONS = ("_first_factor", "_left_factor", "_right_factor", "_j_factors")
SEARCHES = {"_l_one_sided_theorem": "L", "_d_theorem_search": "D", "_j_one_sided_theorem": "J"}


@pytest.fixture(scope="module")
def catalog3():
    return build_catalog(3, seed=7)


def _identity_entries(catalog):
    return [e for e in catalog.entries if e.instance.si.has_identity]


def _count_runs(monkeypatch, keep=True):
    """Every run of a kept function inside a sweep's memo from now on,
    counted by (sweep, function, key): the arguments it takes after the
    Green's data, or for a search the theorem keys of its pair.  With
    ``keep`` False the sweep opens no memo, and runs while it would hold one
    open are counted."""
    runs, sweeps, inside = Counter(), itertools.count(), []
    real = greens._kept_facts

    @contextmanager
    def counted(data):
        inside.append(next(sweeps))
        try:
            if keep:
                with real(data) as facts:
                    yield facts
            else:
                yield None
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

    monkeypatch.setattr(greens, "_kept_facts", counted)
    for name in (*POSITIONS, *SEARCHES):
        monkeypatch.setattr(greens, name, spy(name, getattr(greens, name)))
    return runs


def test_each_fact_is_computed_at_most_once_per_entry(catalog3, monkeypatch):
    """Over the sweeps of the max_n 3 catalog, each kept builder and search
    runs once per distinct key of its entry, and the records are those of a
    run whose sweeps open no memo, where facts are computed again (2.8×
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


def _outcomes(inst, cap):
    """Each checker's outcome in each mode on every ordered pair of members:
    its witness, None, or the message of its ``ResourceLimitError``."""
    members = enumerate_elements(inst)
    out = []
    for f, g in itertools.product(members, repeat=2):
        for checker in greens.checkers().values():
            for mode in harness._MODES:
                try:
                    out.append(checker(f, g, inst, mode=mode, cap=cap))
                except ResourceLimitError as exc:
                    out.append(str(exc))
    return out


@pytest.mark.parametrize("cap", [greens.DEFAULT_PHI_CAP, 3], ids=["default-cap", "cap-3"])
def test_checkers_give_the_same_outcomes_inside_an_open_memo(cap, catalog3, monkeypatch):
    """On every ordered pair of each max_n 3 identity entry, every checker in
    both modes gives the same witness, or raises the same cap message, with
    the facts kept as without.  At cap 3 some kept searches spent more than
    a later call had left, so they ran again and raised there; at the
    default cap none did."""
    runs = _count_runs(monkeypatch)
    capped = 0
    for entry in _identity_entries(catalog3):
        inst = entry.instance
        outside = _outcomes(inst, cap)
        with greens._kept_facts(greens._greens_data(inst)):
            inside = _outcomes(inst, cap)
        assert inside == outside, entry.label
        capped += sum(isinstance(o, str) for o in outside)
    searched_again = [key for key, count in runs.items() if key[1] in SEARCHES and count > 1]
    if cap == 3:
        assert capped > 0 and searched_again
    else:
        assert capped == 0 and not searched_again


def test_no_memo_outlives_codes(catalog3, monkeypatch):
    """The sweep's core calls all read one open memo, and ``codes`` drops it
    when it returns and when a core's exception leaves it; 1,000 public
    checker calls outside a sweep build none."""
    entry = max(_identity_entries(catalog3), key=lambda e: len(enumerate_elements(e.instance)))
    data = greens._greens_data(entry.instance)
    seen, real = [], greens._one_sided_witness

    def spy(data, rel, mode, fk, gk, cap):
        if rel == "L":  # the L core: L and R share one
            seen.append(data.facts)
            if len(seen) == 50 and raising:
                raise RuntimeError("a checker that raises")
        return real(data, rel, mode, fk, gk, cap)

    monkeypatch.setattr(greens, "_one_sided_witness", spy)
    raising = False
    assert harness._GreensSweep(entry, catalog3).codes.size
    assert len(seen) > 50 and len({id(facts) for facts in seen}) == 1 and seen[0] is not None
    assert seen[0].first["L"] and seen[0].searched["L"]
    assert data.facts is None and "facts" not in vars(data)

    seen.clear()
    raising = True
    with pytest.raises(RuntimeError, match="a checker that raises"):
        harness._GreensSweep(entry, catalog3).codes
    assert len(seen) == 50 and seen[0] is not None
    assert data.facts is None and "facts" not in vars(data)
    monkeypatch.undo()

    built = []
    real_init = greens._SweepFacts.__init__
    monkeypatch.setattr(greens._SweepFacts, "__init__",
                        lambda facts, data: built.append(facts) or real_init(facts, data))
    members = enumerate_elements(entry.instance)
    calls = itertools.islice(itertools.product(members, members, greens.checkers().values(),
                                               harness._MODES), 1000)
    count = 0
    for f, g, checker, mode in calls:
        checker(f, g, entry.instance, mode=mode)
        count += 1
    assert count == 1000
    assert built == [] and data.facts is None and "facts" not in vars(data)
