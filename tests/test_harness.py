import contextlib
import gc
import itertools
import json
import random
import tracemalloc
import weakref
from collections import Counter
from functools import cached_property, wraps

import numpy as np
import pytest

from partsem import (
    IndexSemigroup,
    Instance,
    InternalError,
    InvalidArgumentError,
    Partition,
    ResourceLimitError,
    SUITES,
    build_catalog,
    ensemble,
    enumerate_elements,
    finite_maps,
    greens,
    harness,
    instance_to_json,
    predicted_size,
    run_all,
    run_suite,
)
from partsem.cli import parse_instance, run_command
from partsem.partition_action import _Geometry
from conftest import boolean_products, drop_edge, pack_below, preorders, unpack_below

GEOMETRY_LISTS = ("block_masks", "kernels", "meet_masks", "sorted_images", "j_geometry",
                  "block_fits")


@pytest.fixture(scope="module")
def catalog2():
    return build_catalog(2, seed=7)


@pytest.fixture(scope="module")
def catalog3():
    return build_catalog(3, seed=7)


class TestCatalog:
    def test_partition_counts_follow_bell_numbers(self, catalog3):
        by_n = {}
        for entry in catalog3.entries:
            n = entry.instance.partition.n
            by_n.setdefault(n, set()).add(entry.instance.partition.blocks)
        assert len(by_n[1]) == 1
        assert len(by_n[2]) == 2
        assert len(by_n[3]) == 5
        four = build_catalog(4, seed=7)
        partitions4 = {
            e.instance.partition.blocks
            for e in four.entries
            if e.instance.partition.n == 4
        }
        assert len(partitions4) == 15

    def test_single_point_catalog_is_trivial(self):
        catalog = build_catalog(1, seed=0)
        assert len(catalog.entries) == 1
        entry = catalog.entries[0]
        assert len(entry.instance.si) == 1
        assert entry.instance.si.has_identity

    def test_deterministic_for_fixed_seed(self, catalog2):
        again = build_catalog(2, seed=7)
        assert [e.label for e in again.entries] == [e.label for e in catalog2.entries]
        assert [e.instance for e in again.entries] == [e.instance for e in catalog2.entries]
        other = build_catalog(2, seed=8)
        assert [e.label for e in other.entries] != [] # different seed still builds

    def test_menu_contains_named_families(self, catalog3):
        labels = {e.si_label for e in catalog3.entries}
        assert {"full", "sym", "id", "id+const"} <= labels
        assert any(l.startswith("subgrp") for l in labels)
        assert any(l.startswith("rand") for l in labels)

    def test_random_entries_have_identity_adjoined_variants(self, catalog3):
        with_id = [e for e in catalog3.entries if e.si_label.endswith("+id")]
        assert with_id
        for e in with_id:
            assert e.instance.si.has_identity

    def test_subgroup_count_for_three_blocks(self, catalog3):
        degree3 = [
            e for e in catalog3.entries
            if e.instance.partition.degree == 3 and e.si_label.startswith("subgrp")
        ]
        # six subgroups of the symmetric group on three letters, minus the
        # trivial one and the full one already covered by other labels
        partitions = {e.instance.partition.blocks for e in degree3}
        for blocks in partitions:
            here = [e for e in degree3 if e.instance.partition.blocks == blocks]
            assert len(here) == 4

    def test_max_n5_catalog_counts(self):
        """The n <= 5 catalog builds in seconds: its symmetric-group
        subgroups are found once per degree, on table positions."""
        catalog = build_catalog(5, seed=7)
        assert len(catalog.entries) == 1057
        assert sum(predicted_size(e.instance) for e in catalog.entries) == 94078

    def test_invalid_max_n(self):
        with pytest.raises(InvalidArgumentError):
            build_catalog(0, seed=1)


class TestRunSuite:
    def test_unknown_suite(self, catalog2):
        with pytest.raises(InvalidArgumentError):
            run_suite("no-such-suite", catalog2)

    def test_registry_covers_every_module_family(self):
        names = set(SUITES)
        assert "character-homomorphism" in names
        assert "regular-element-equivalence" in names
        assert "unit-regular-semigroup-equivalence" in names
        assert "greens-mode-agreement" in names
        assert "element-counting" in names
        assert len(names) == 29

    def test_an_inverse_whose_character_is_no_witness_fails_regular_element_equivalence(
            self, catalog3, monkeypatch):
        """``regular_character_witnesses`` spoiled to drop the character of
        the inner inverse the oracle finds: each regular member fails, with
        the second detail and the inverse where witnesses are left, else with
        the first; each record's counterexample is its first such member."""
        real = harness.regular_character_witnesses
        details = ("oracle and witness-set verdicts disagree",
                   "character of the found inner inverse is not a witness")

        def dropped(f, inst):
            g = harness.is_regular_oracle(f, inst)
            found = real(f, inst)
            return found if g is None else tuple(
                a for a in found if a != harness.character(g, inst.partition))

        expected = {}
        for entry in catalog3.entries:
            failures, first = 0, None
            for f in enumerate_elements(entry.instance):
                g = harness.is_regular_oracle(f, entry.instance)
                if g is not None:
                    failures += 1
                    first = first or ((details[1], list(g.images)) if dropped(f, entry.instance)
                                      else (details[0], None))
            expected[entry.label] = failures, first
        assert any(first[0] == details[1] for _, first in expected.values())
        monkeypatch.setattr(harness, "regular_character_witnesses", dropped)
        report = run_suite("regular-element-equivalence", catalog3)
        got = {r.instance: (r.failures, r.counterexample and (r.counterexample["detail"],
                                                            r.counterexample.get("g")))
               for r in report.records}
        assert got == expected

    def test_character_homomorphism_clean(self, catalog3):
        report = run_suite("character-homomorphism", catalog3)
        assert report.failures == 0
        assert all(r.verdict == "pass" for r in report.records)

    def test_identity_filter(self, catalog2, catalog3):
        """Each suite has a record for exactly the entries its rule admits."""

        def every(entry):
            return True

        def has_identity(entry):
            return entry.instance.si.has_identity

        def full(entry):
            return entry.si_label == "full"

        def degree_one_with_identity(entry):
            return entry.instance.partition.degree == 1 and has_identity(entry)

        def bijective_characters(entry):
            return has_identity(entry) and all(a.is_bijective() for a in entry.instance.si.elements)

        identity_only = {
            "unit-set-identity", "units-are-bijections", "unit-regular-element-equivalence",
            "unit-inverse-construction", "unit-regular-implies-regular",
            "unit-regular-semigroup-equivalence", "greens-mode-agreement", "character-descent",
            "greens-d-composition-commutes", "greens-d-subset-j", "greens-witness-replay",
            "greens-necessary-conditions",
        }
        rules = {name: has_identity for name in identity_only}
        rules["txp-specialization"] = full
        rules["greens-tx-specialization"] = degree_one_with_identity
        rules["subgroup-regularity"] = bijective_characters
        assert len(identity_only) == 12
        for catalog in (catalog2, catalog3):
            records = run_all(catalog).records
            for name in SUITES:
                labels = [r.instance for r in records if r.suite == name]
                if name == "equal-size-c-equals-d":
                    assert labels == ["maps up to size 5"]
                    continue
                admits = rules.get(name, every)
                assert labels == [e.label for e in catalog.entries if admits(e)], name
                assert labels

    def test_suites_are_looked_up_when_run(self, catalog2, monkeypatch):
        """A tracer may rebind a suite in ``SUITES``; both runners call the
        rebound one, on no entry and then on each entry."""
        assert list(SUITES) == [
            "character-homomorphism", "lift-character-section", "unit-bijection-crosscheck",
            "unit-image-blocks", "block-maps-roundtrip", "element-counting", "member-closure",
            "unit-set-identity", "units-are-bijections", "regular-element-equivalence",
            "inner-inverse-construction", "idempotent-equivalence",
            "regular-semigroup-equivalence", "inverse-semigroup-equivalence",
            "subgroup-regularity", "unit-regular-element-equivalence",
            "unit-inverse-construction", "unit-regular-implies-regular",
            "unit-regular-semigroup-equivalence", "equal-size-c-equals-d", "transversal-lemma",
            "greens-mode-agreement", "character-descent", "greens-d-composition-commutes",
            "greens-d-subset-j", "greens-tx-specialization", "greens-witness-replay",
            "greens-necessary-conditions", "txp-specialization",
        ]
        name = "element-counting"
        original = SUITES[name]
        calls = []

        def counting(entry, sweep):
            calls.append(entry)
            return original(entry, sweep)

        monkeypatch.setitem(SUITES, name, counting)
        assert len(run_all(catalog2).records) > len(catalog2.entries)
        runs = [None, *catalog2.entries]
        assert calls == runs
        records = run_suite(name, catalog2).records
        assert calls == runs * 2
        assert [r.instance for r in records] == [e.label for e in catalog2.entries]

    def test_all_suites_pass_at_small_scale(self, catalog2):
        report = run_all(catalog2)
        assert report.failures == 0
        assert set(r.suite for r in report.records) == set(SUITES)


@contextlib.contextmanager
def _cyclic_gc_off():
    """Objects are freed by reference counting alone inside the block."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TestOneEntryAtATime:
    def test_an_entry_s_data_dies_before_the_next_entry_starts(self, monkeypatch):
        """With the cyclic GC off, weakrefs to an entry's derived data and
        Green's sweep, taken after each of its suites, are dead before the
        next entry's first suite starts, and after the run."""
        catalog = build_catalog(3, seed=7)
        started, alive, seen = [], [], Counter()

        def watch(suite):
            def run(entry, sweep):
                if entry is not None and (not started or started[-1] is not entry):
                    assert [ref() for ref in alive] == [None] * len(alive), entry.label
                    alive.clear()
                    started.append(entry)
                record = suite(entry, sweep)
                if entry is not None:
                    derived = entry.instance.derived
                    alive.extend([weakref.ref(derived), weakref.ref(sweep)])
                    seen["greens"] += derived.greens is not None
                    seen["codes"] += "codes" in vars(sweep)
                return record

            return run

        for name, suite in list(SUITES.items()):
            monkeypatch.setitem(SUITES, name, watch(suite))
        with _cyclic_gc_off():
            assert run_all(catalog).failures == 0
            assert [ref() for ref in alive] == [None] * len(alive)
        assert started == list(catalog.entries)
        # the derived data of the identity entries held Green's data, which
        # refers back to its instance; their sweeps had decided codes
        assert seen["greens"] > 0 and seen["codes"] > 0


class TestReport:
    def test_machine_lines_follow_schema(self, catalog2):
        report = run_suite("element-counting", catalog2)
        for line in report.to_machine_lines():
            payload = json.loads(line)
            assert {"suite", "instance", "verdict", "checks", "failures", "millis"} <= set(payload)
            assert payload["verdict"] in ("pass", "fail")

    def test_untimed_serialization_is_reproducible(self, catalog2):
        one = _untimed(run_all(build_catalog(2, seed=7)).records)
        two = _untimed(run_all(build_catalog(2, seed=7)).records)
        assert one == two

    def test_text_report_mentions_every_suite(self, catalog2):
        text = run_all(catalog2).to_text()
        for name in SUITES:
            assert name in text
        assert "0 failures" in text

    def test_text_report_shows_a_failing_record_s_counterexample_and_notes(self):
        failing = harness.SuiteRecord("s", "n1:[0]/full", "fail", 3, 2, {"detail": "d", "f": [0]},
                                      1, 4.0, ("2 failing checks were faults",))
        passing = harness.SuiteRecord("s", "n2:[0][1]/full", "pass", 5, 0, None, 0, 1.0)
        assert harness.Report(1, 7, [failing, passing]).to_text().splitlines() == [
            "FAIL s: 8 checks, 2 failures capped=1 (5 ms)",
            '  counterexample @ n1:[0]/full: {"detail": "d", "f": [0]}',
            "  note @ n1:[0]/full: 2 failing checks were faults",
            "total: 8 checks, 2 failures across 1 suites",
        ]

    def test_counterexamples_are_replayable(self, catalog2):
        # instance payloads embedded in records parse back to equal instances
        entry = catalog2.entries[-1]
        payload = instance_to_json(entry.instance)
        import tempfile, os
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(payload, fh)
            path = fh.name
        try:
            assert parse_instance(path) == entry.instance
        finally:
            os.unlink(path)


GREENS_PAIR_SUITES = ("greens-mode-agreement", "greens-witness-replay", "txp-specialization")


def _untimed(records):
    """Each record's payload without its ``millis``, dropped as
    ``untimed_digest`` drops it."""
    payloads = [r.to_payload() for r in records]
    for payload in payloads:
        del payload["millis"]
    return payloads


def _checker_loops(catalog):
    """The three Green's pair suites with each one calling the checkers
    itself, pair by pair, as they did before the sweep: untimed payloads by
    suite, in catalog order.  No checker is capped on the catalogs used."""
    checkers = greens.checkers()
    out = {name: [] for name in GREENS_PAIR_SUITES}
    for entry in catalog.entries:
        inst = entry.instance
        if not inst.si.has_identity:
            continue
        members = enumerate_elements(inst)
        pairs = [(members[a], members[b])
                 for a, b in harness._GreensSweep(entry, catalog).pairs.tolist()]
        agree, replay, txp = (harness._Tally(entry) for _ in GREENS_PAIR_SUITES)
        for f, g in pairs:
            for rel, checker in checkers.items():
                agree.checks += 1
                oracle = checker(f, g, inst, mode="oracle") is not None
                theorem = checker(f, g, inst, mode="theorem") is not None
                if oracle != theorem:
                    agree.fail(f"{rel}: oracle={oracle} but theorem={theorem}", f=f, g=g)
                for mode in ("oracle", "theorem"):
                    w = checker(f, g, inst, mode=mode)
                    if w is not None:
                        replay.check(greens.verify_witness(w, f, g),
                                     f"{rel} witness ({mode}) fails to replay", f=f, g=g)
                if entry.si_label == "full":
                    txp.checks += 1
                    specialized = greens.txp_green(rel, f, g, inst.partition)
                    if specialized != oracle:
                        txp.fail(f"{rel}: specialized={specialized} oracle={oracle}", f=f, g=g)
                    elif specialized != theorem:
                        txp.fail(f"{rel}: specialized={specialized} theorem={theorem}", f=f, g=g)
        tallies = [(GREENS_PAIR_SUITES[0], agree), (GREENS_PAIR_SUITES[1], replay)]
        if entry.si_label == "full":
            tallies.append((GREENS_PAIR_SUITES[2], txp))
        for name, tally in tallies:
            out[name] += _untimed([harness._record(name, entry.label, 0.0, tally)])
    return out


def _per_pair_codes(entry, catalog):
    """The sweep's codes, as nested lists, as the loop before the key groups
    made them: every checker called once per pair, relation and mode."""
    inst = entry.instance
    members = enumerate_elements(inst)
    codes = []
    for a, b in harness._GreensSweep(entry, catalog).pairs.tolist():
        f, g = members[a], members[b]
        row = []
        for checker in greens.checkers().values():
            row.append([])
            for mode in harness._MODES:
                try:
                    w = checker(f, g, inst, mode=mode)
                except ResourceLimitError:
                    row[-1].append(harness._CAPPED)
                    continue
                if w is None:
                    row[-1].append(harness._UNRELATED)
                elif greens.verify_witness(w, f, g):
                    row[-1].append(harness._REPLAYS)
                else:
                    row[-1].append(harness._FAILS_REPLAY)
        codes.append(row)
    return codes


def _assert_constant_on_key_groups(inst, pairs):
    """Each checker, in each mode, called on each pair ``pairs(rep)`` yields
    for the member keys ``rep`` of its relation and mode: one outcome
    (related, unrelated or capped) per key group.  Returns whether some
    group held two distinct pairs."""
    data = greens._greens_data(inst)
    members = data.members
    merged = False
    for rel, checker in greens.checkers().items():
        for mode in harness._MODES:
            rep = _verdict_keys(data, rel, mode)
            outcome, first = {}, {}
            for a, b in pairs(rep):
                try:
                    related = checker(members[a], members[b], inst, mode=mode) is not None
                except ResourceLimitError:
                    related = "capped"
                group = (rep[a], rep[b])
                assert outcome.setdefault(group, related) == related, (rel, mode, a, b)
                merged |= first.setdefault(group, (a, b)) != (a, b)
    return merged


def _verdict_keys(data, rel, mode):
    """Per member, the first member whose key for ``rel`` in ``mode`` equals
    its own: the classes of the class quotient the oracle reads (the L- or
    R-class, and for D and J both, the H-class), or the theorem keys the
    theorem search reads (``theorem_keys``).  Two pairs whose members have
    equal keys get equal verdicts."""
    if mode == "theorem":
        return np.array(data.theorem_keys[rel], dtype=np.intp)
    reads = {"L": data.classes[1:2], "R": data.classes[:1]}.get(rel, data.classes[:2])
    return np.array(finite_maps._first_equal(zip(*reads)), dtype=np.intp)


def _spoil(monkeypatch, rel, spoil):
    """Rebind the public checkers' front end (``greens._related``) on
    ``rel``, and the sweep's bulk functions on the pairs of ``rel``
    (``greens._oracle_rows`` and ``greens._theorem_rows``), to give
    ``spoil(data, fk, gk, mode, found)`` on each pair for the factor
    positions or None ``found`` of the real one; a spoil raising
    ``ResourceLimitError`` caps its pair in the sweep's theorem route (the
    oracle route has no budget, so its wrapper refuses such a spoil), and a
    pair the real one capped or faulted is left so.  The sweep and the
    public checkers both see the spoil; every relation shares the front
    end, and a second spoil wraps the first."""
    real = greens._related

    @wraps(real)
    def related(front_rel, f, g, inst, mode, cap):
        w = real(front_rel, f, g, inst, mode, cap)
        if front_rel != rel:
            return w
        data = greens._greens_data(inst)
        found = None if w is None else tuple(
            ensemble.require_member(h, inst) for _, h in w.factors)
        found = spoil(data, ensemble.require_member(f, inst), ensemble.require_member(g, inst),
                      mode, found)
        if found is None:
            return None
        return greens.GreenWitness(rel, tuple(
            (name, data.members[k]) for name, k in zip(greens._FACTORS[rel], found)))

    monkeypatch.setattr(greens, "_related", related)

    def spoiled(data, pairs, mode, rows, left):
        """The spoiled rows of the pairs not in ``left``, and the pairs the
        spoil capped."""
        found = {row[0]: tuple(row[3:]) for row in rows.tolist()}
        out, capped = [], []
        for k, (fk, gk) in enumerate(pairs.tolist()):
            if k in left:
                continue
            try:
                factors = spoil(data, fk, gk, mode, found.get(k))
            except ResourceLimitError:
                capped.append(k)
                continue
            if factors is not None:
                out.append((k, fk, gk, *factors))
        return np.array(out, dtype=np.intc).reshape(-1, rows.shape[1]), capped

    real_oracle, real_theorem = greens._oracle_rows, greens._theorem_rows

    @wraps(real_oracle)
    def oracle_rows(data, rows_rel, pairs):
        rows, faults = real_oracle(data, rows_rel, pairs)
        if rows_rel != rel:
            return rows, faults
        rows, capped = spoiled(data, pairs, "oracle", rows, {k for k, _ in faults})
        assert not capped, "the oracle route has no budget: a spoil cannot cap it"
        return rows, faults

    @wraps(real_theorem)
    def theorem_rows(data, rows_rel, pairs, facts):
        rows, capped, faults = real_theorem(data, rows_rel, pairs, facts)
        if rows_rel != rel:
            return rows, capped, faults
        left = {k for k, _ in faults} | set(capped.tolist())
        rows, more = spoiled(data, pairs, "theorem", rows, left)
        return rows, np.array(sorted([*capped.tolist(), *more]), dtype=np.intp), faults

    monkeypatch.setattr(greens, "_oracle_rows", oracle_rows)
    monkeypatch.setattr(greens, "_theorem_rows", theorem_rows)


def _spy_on_front_end(monkeypatch, spy):
    """Rebind the public checkers' front end (``greens._related``) to call
    ``spy(data, rel, mode, fk, gk)`` and then itself."""
    real = greens._related

    @wraps(real)
    def related(rel, f, g, inst, mode, cap):
        spy(greens._greens_data(inst), rel, mode, ensemble.require_member(f, inst),
            ensemble.require_member(g, inst))
        return real(rel, f, g, inst, mode, cap)

    monkeypatch.setattr(greens, "_related", related)


def _spy_on_halves(monkeypatch, spy):
    """Rebind the theorem search and build (``greens._search``,
    ``greens._build``) to call ``spy(kind, data, rel, fk, gk, facts)``, kind
    "search" or "build", and then itself."""
    for kind, name in (("search", "_search"), ("build", "_build")):
        real = getattr(greens, name)

        def half(data, rel, fk, gk, arg, facts, _real=real, _kind=kind):
            spy(_kind, data, rel, fk, gk, facts)
            return _real(data, rel, fk, gk, arg, facts)

        monkeypatch.setattr(greens, name, half)


def _keep_sweeps(monkeypatch):
    """Every sweep whose codes a run decides from now on, by entry label,
    each with its members' verdict keys by (relation, mode), taken from the
    entry's Green's data while the entry's suites run; and a list that holds
    one item while a sweep decides its codes."""
    kept, inside = {}, []
    real = harness._GreensSweep

    class Kept(real):
        @cached_property
        def codes(self):
            data = self.data = greens._greens_data(self.entry.instance)
            self.keys = {(rel, mode): _verdict_keys(data, rel, mode)
                         for rel in self.relations for mode in harness._MODES}
            kept[self.entry.label] = self
            inside.append(self)
            try:
                return real.codes.func(self)
            finally:
                inside.pop()

    monkeypatch.setattr(harness, "_GreensSweep", Kept)
    return kept, inside


def _spy_on_derived(monkeypatch):
    """Every instance whose derived data is built from now on, in order, with
    its members' geometry, each kept alive so that ids stay distinct."""
    owners = []
    real = ensemble.DerivedData.__init__

    def init(self, inst):
        real(self, inst)
        owners.append((inst, self.geometry))

    monkeypatch.setattr(ensemble.DerivedData, "__init__", init)
    return owners


def _assert_one_each(owners, instances):
    """Derived data was built once for each of ``instances``, in order."""
    assert len(owners) == len(instances)
    assert all(inst is expected for (inst, _), expected in zip(owners, instances))


def _spy_cached(monkeypatch, cls, name, spy):
    """Make ``spy``, a function of the instance, the cached property ``name``
    of ``cls``."""
    prop = cached_property(spy)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)


class TestGreensSweep:
    """One sweep per entry decides each Green's pair at most once, by key
    group; the agreement, replay and T(X, P) suites read its codes."""

    def test_each_verdict_is_decided_at_most_once_and_where_it_holds(self, monkeypatch):
        """The sweep's call contract, over a whole run: no public front end
        and no ``_first_factor`` scan is called while a sweep decides its
        codes, as the oracle's come in bulk; each theorem search runs once
        per key group of the entry's pairs (the codes and keys as the run's
        sweeps had them), on the group's first pair; each theorem build runs
        once per pair whose search found a witness, whose code is then
        replays or fails to replay; fewer searches than pairs in all.  Calls
        are keyed by the entry's Green's data, which the kept sweeps keep
        alive.  Every front-end call is the public front-end check's, one per
        entry, relation and mode with a replaying pair, each on such a pair,
        and every search and build outside a sweep is handed no memo."""
        catalog = build_catalog(3, seed=7)
        swept, front, halves = Counter(), Counter(), Counter()
        sweeps, inside = _keep_sweeps(monkeypatch)

        def spy(data, rel, mode, fk, gk):
            (swept if inside else front)[(id(data), fk, gk, rel, mode)] += 1

        def on_half(kind, data, rel, fk, gk, facts):
            if inside:
                halves[kind, id(data), fk, gk, rel] += 1
            else:
                assert facts is greens._UNKEPT

        real_scan = greens._first_factor

        def scan(data, *args):
            swept["_first_factor"] += bool(inside)
            return real_scan(data, *args)

        _spy_on_front_end(monkeypatch, spy)
        _spy_on_halves(monkeypatch, on_half)
        monkeypatch.setattr(greens, "_first_factor", scan)
        assert run_all(catalog).failures == 0
        assert not +swept
        assert list(sweeps) == [e.label for e in catalog.entries if e.instance.si.has_identity]
        expected, replaying, checked, pairs = Counter(), set(), 0, 0
        m = harness._MODES.index("theorem")
        for entry in catalog.entries:
            inst = entry.instance
            if not inst.si.has_identity:
                continue
            sweep = sweeps[entry.label]
            for r, rel in enumerate(sweep.relations):
                for o, mode in enumerate(harness._MODES):
                    checked += bool((sweep.codes[:, r, o] == harness._REPLAYS).any())
                    replaying |= {(id(sweep.data), a, b, rel, mode)
                                  for a, b in sweep.pairs[sweep.codes[:, r, o] == harness._REPLAYS]
                                  .tolist()}
                rep, seen = sweep.keys[rel, "theorem"], set()
                for k, (a, b) in enumerate(sweep.pairs.tolist()):
                    pairs += 1
                    if (rep[a], rep[b]) not in seen:
                        expected["search", id(sweep.data), a, b, rel] += 1
                    seen.add((rep[a], rep[b]))
                    if sweep.codes[k, r, m] in (harness._REPLAYS, harness._FAILS_REPLAY):
                        expected["build", id(sweep.data), a, b, rel] += 1
        assert halves == expected
        assert sum(kind == "search" for kind, *_ in halves) < pairs
        assert set(front.values()) == {1} and set(front) <= replaying
        assert len(front) == checked > 0

    @pytest.mark.parametrize("max_n,seed", [(3, 7), (3, 11), (4, 7)])
    def test_codes_equal_the_per_pair_loop(self, max_n, seed):
        catalog = build_catalog(max_n, seed=seed)
        codes = Counter()
        for entry in catalog.entries:
            if entry.instance.si.has_identity:
                sweep = harness._GreensSweep(entry, catalog)
                assert sweep.codes.tolist() == _per_pair_codes(entry, catalog), entry.label
                codes.update(sweep.codes.ravel().tolist())
                entry.instance.drop_derived()
        assert codes[harness._UNRELATED] and codes[harness._REPLAYS]

    def test_verdicts_are_constant_on_the_key_groups_of_the_n3_entries(self):
        """Every pair of every identity entry, each checker in both modes."""
        merged = []
        for entry in build_catalog(3, seed=7).entries:
            if entry.instance.si.has_identity:
                size = len(enumerate_elements(entry.instance))
                merged.append(_assert_constant_on_key_groups(
                    entry.instance, lambda rep: itertools.product(range(size), repeat=2)))
        assert len(merged) == 33 and any(merged)

    @pytest.mark.parametrize("blocks", [[[0, 1], [2, 3]], [[0], [1], [2], [3]]],
                             ids=["n4:[0,1][2,3]/full", "n4:[0][1][2][3]/full"])
    def test_verdicts_are_constant_on_the_key_groups_of_n4_entries(self, blocks):
        """300 seeded pairs per relation and mode, each with a second pair
        drawn from the same key group."""
        p = Partition.of(blocks)
        inst = Instance(p, IndexSemigroup.full(p.degree))
        size = len(enumerate_elements(inst))
        rng = random.Random(f"keys:{blocks}")

        def pairs(rep):
            group = {}
            for k, key in enumerate(rep.tolist()):
                group.setdefault(key, []).append(k)
            for _ in range(300):
                a, b = rng.randrange(size), rng.randrange(size)
                yield a, b
                yield rng.choice(group[rep[a]]), rng.choice(group[rep[b]])

        assert _assert_constant_on_key_groups(inst, pairs)

    def test_sweep_composes_no_map(self, monkeypatch):
        """The sweep calls the bulk oracle and the theorem rows on member
        positions and replays their rows in bulk: no ``require_member``, no
        public checker, no front end, no oracle witness, no
        ``verify_witness`` and no ``compose``.  A public oracle checker call
        looks its pair up in the member index, once per map, runs its front
        end and its oracle witness once each and composes no map either;
        neither greens nor harness imports ``compose`` at all."""
        assert not hasattr(greens, "compose") and not hasattr(harness, "compose")
        calls = Counter()

        def spy(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        monkeypatch.setattr(greens, "require_member", spy("require_member", greens.require_member))
        monkeypatch.setattr(greens, "verify_witness",
                            spy("verify_witness", greens.verify_witness))
        monkeypatch.setattr(finite_maps, "compose", spy("compose", finite_maps.compose))
        checkers = greens.checkers()
        for name, checker in checkers.items():
            monkeypatch.setattr(greens, f"{name.lower()}_related", spy("checker", checker))
        _spy_on_front_end(monkeypatch, lambda *args: calls.update(["front end"]))
        monkeypatch.setattr(greens, "_oracle_witness",
                            spy("oracle witness", greens._oracle_witness))
        for name in ("_oracle_rows", "_theorem_rows"):
            monkeypatch.setattr(greens, name, spy("bulk", getattr(greens, name)))
        catalog = build_catalog(3, seed=7)
        assert run_suite("greens-mode-agreement", catalog).failures == 0
        assert calls["bulk"] > 0
        assert calls == Counter({"bulk": calls["bulk"]})
        calls.clear()
        inst = next(e.instance for e in catalog.entries if e.instance.si.has_identity)
        f = enumerate_elements(inst)[0]
        w = checkers["L"](greens.FiniteMap(f.domain_size, f.codomain_size, f.images), f, inst)
        assert w is not None and greens.verify_witness(w, f, f)
        assert calls == Counter({"require_member": 2, "front end": 1, "oracle witness": 1,
                                 "verify_witness": 1})

    def test_a_spoiled_public_checker_fails_the_replay_suite_only(self, monkeypatch):
        """The public L checker giving None, a witness with its "gf" factor
        dropped, which cannot replay, or raising ``ResourceLimitError`` or
        ``InternalError``: the replay suite fails once per identity entry and
        mode, on its front-end check, with its checks counted as before; the
        sweep and the mode agreement do not see it."""
        catalog = build_catalog(2, seed=7)
        names = ["greens-mode-agreement", "greens-witness-replay"]
        expected = [r.to_payload() | {"millis": 0} for r in run_all(catalog, names).records]
        entries = sum(e.instance.si.has_identity for e in catalog.entries)
        real = greens.l_related

        def dropped(f, g, inst, mode="oracle", cap=greens.DEFAULT_PHI_CAP):
            w = real(f, g, inst, mode, cap)
            return greens.GreenWitness("L", w.factors[:1])

        def raising(error):
            def checker(*args, **kwargs):
                raise error("spoiled checker")
            return checker

        for spoiled in (lambda *args, **kwargs: None, dropped, raising(ResourceLimitError),
                        raising(InternalError)):
            monkeypatch.setattr(greens, "l_related", spoiled)
            report = run_all(build_catalog(2, seed=7), names)
            agreement, replay = (
                [r.to_payload() | {"millis": 0} for r in report.records if r.suite == name]
                for name in names)
            assert agreement == expected[:len(agreement)]
            assert [r["checks"] for r in replay] == [r["checks"] for r in expected[len(agreement):]]
            assert sum(r["failures"] for r in replay) == 2 * entries
            assert {r["counterexample"]["detail"] for r in replay} == {
                "L public checker (oracle) gives no replaying witness"}

    def test_records_match_the_per_suite_checker_loops(self):
        catalog = build_catalog(3, seed=7)
        expected = _checker_loops(catalog)
        report = run_all(build_catalog(3, seed=7))
        for name in GREENS_PAIR_SUITES:
            assert _untimed(r for r in report.records if r.suite == name) == expected[name]

    def test_flipped_j_theorem_verdict_fails_where_it_did(self, monkeypatch):
        """The J theorem route flipped: a found witness dropped, and on an
        unrelated pair a row of member 0, which cannot replay there."""
        def flip(data, fk, gk, mode, found):
            if mode != "theorem":
                return found
            return None if found is not None else (0, 0, 0, 0)

        _spoil(monkeypatch, "J", flip)
        catalog = build_catalog(2, seed=7)
        expected = _checker_loops(catalog)
        report = run_all(catalog)
        failing = {r.suite for r in report.records if r.failures}
        assert failing == set(GREENS_PAIR_SUITES)
        for name in GREENS_PAIR_SUITES:
            assert _untimed(r for r in report.records if r.suite == name) == expected[name]
        details = {r.suite: r.counterexample["detail"] for r in report.records if r.failures}
        assert details["greens-mode-agreement"] == "J: oracle=True but theorem=False"
        assert details["greens-witness-replay"] == "J witness (theorem) fails to replay"
        assert details["txp-specialization"] == "J: specialized=True theorem=False"

    def test_capped_checks_are_counted_in_every_record_and_the_cli(self, monkeypatch, capsys):
        """The J theorem checker spoiled to run out of its cap on every pair
        of a member with itself: the three pair suites and ``verify
        --format machine`` report one capped check per such pair, none
        dropped and none failed."""
        def cap_out(data, fk, gk, mode, found):
            if mode == "theorem" and fk == gk:
                raise ResourceLimitError("spoiled cap")
            return found

        _spoil(monkeypatch, "J", cap_out)
        catalog = build_catalog(2, seed=7)
        expected = {}
        for entry in catalog.entries:
            if entry.instance.si.has_identity:
                pairs = harness._GreensSweep(entry, catalog).pairs.tolist()
                diagonal = sum(a == b for a, b in pairs)
                expected[entry.label] = diagonal
        assert sum(expected.values()) > 0
        admitted = {
            "greens-mode-agreement": expected,
            "greens-witness-replay": expected,
            "txp-specialization": {
                e.label: expected[e.label] for e in catalog.entries if e.si_label == "full"
            },
        }
        report = run_all(catalog, list(GREENS_PAIR_SUITES))
        assert report.failures == 0
        for name, counts in admitted.items():
            records = [r for r in report.records if r.suite == name]
            assert {r.instance: r.capped for r in records} == counts, name
        assert report.capped == sum(sum(counts.values()) for counts in admitted.values())

        assert run_command(["verify", "--max-n", "2", "--seed", "7", "--format", "machine"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        for name, counts in admitted.items():
            printed = {r["instance"]: r.get("capped", 0) for r in lines if r["suite"] == name}
            assert printed == counts, name

    def test_a_capped_theorem_search_caps_where_the_public_checker_raises(
            self, catalog3, monkeypatch):
        """With ``greens.DEFAULT_PHI_CAP`` lowered to 3, on every pair of each
        max_n 3 identity entry and each relation, the sweep's theorem code is
        capped exactly where the public theorem checker at cap 3 raises
        ``ResourceLimitError``, and related exactly where it gives a witness:
        the capped path of the sweep, unspoiled."""
        monkeypatch.setattr(greens, "DEFAULT_PHI_CAP", 3)
        checkers, m = greens.checkers(), harness._MODES.index("theorem")
        capped, mismatches = 0, []
        for entry in catalog3.entries:
            inst = entry.instance
            if not inst.si.has_identity:
                continue
            sweep = harness._GreensSweep(entry, catalog3)
            for r, rel in enumerate(sweep.relations):
                for code, (a, b) in zip(sweep.codes[:, r, m].tolist(), sweep.pairs.tolist()):
                    f, g = sweep.members[a], sweep.members[b]
                    try:
                        w = checkers[rel](f, g, inst, mode="theorem", cap=3)
                        expected = "unrelated" if w is None else "related"
                    except ResourceLimitError:
                        expected = "capped"
                    got = {harness._UNRELATED: "unrelated", harness._CAPPED: "capped"}.get(
                        code, "related")
                    capped += got == "capped"
                    if got != expected:
                        mismatches.append((entry.label, rel, a, b, got, expected))
            inst.drop_derived()
        assert capped > 0 and mismatches == []

    def test_swapped_witness_factors_fail_replay_only(self, monkeypatch):
        def swap(data, fk, gk, mode, found):
            if found is None or mode != "oracle":
                return found
            h1, h2, *rest = found  # fg1 and fg2, in the order of greens._FACTORS["J"]
            return (h2, h1, *rest)

        _spoil(monkeypatch, "J", swap)
        catalog = build_catalog(2, seed=7)
        expected = _checker_loops(catalog)
        report = run_all(catalog)
        failing = {r.suite for r in report.records if r.failures}
        assert failing == {"greens-witness-replay"}
        replay = [r for r in report.records if r.suite == "greens-witness-replay"]
        assert _untimed(replay) == expected["greens-witness-replay"]
        first = next(r for r in replay if r.failures).counterexample
        assert first["detail"] == "J witness (oracle) fails to replay"

    @pytest.mark.parametrize("rel", "LRDJ")
    def test_tuple_replay_rejects_a_tampered_factor(self, rel, monkeypatch):
        """The first factor of every witness of ``rel`` in oracle mode moved
        to the next member: the sweep's bulk replay fails where the
        per-suite checker loops' ``verify_witness`` does, and nothing else."""
        def tamper(data, fk, gk, mode, found):
            if found is None or mode != "oracle":
                return found
            return ((found[0] + 1) % len(data.members), *found[1:])

        _spoil(monkeypatch, rel, tamper)
        catalog = build_catalog(2, seed=7)
        expected = _checker_loops(catalog)
        report = run_all(catalog, names=list(GREENS_PAIR_SUITES))
        failing = {r.suite for r in report.records if r.failures}
        assert failing == {"greens-witness-replay"}
        replay = [r for r in report.records if r.suite == "greens-witness-replay"]
        assert _untimed(replay) == expected["greens-witness-replay"]
        first = next(r for r in replay if r.failures).counterexample
        assert first["detail"] == f"{rel} witness (oracle) fails to replay"

    @pytest.mark.parametrize("name", GREENS_PAIR_SUITES)
    def test_each_suite_alone_matches_its_records_in_run_all(self, name, catalog3):
        within = [r for r in run_all(catalog3, names=list(GREENS_PAIR_SUITES)).records
                  if r.suite == name]
        alone = run_suite(name, build_catalog(3, seed=7)).records
        assert _untimed(alone) == _untimed(within)
        assert len(alone) > 0

    @staticmethod
    def _spy_on_geometries(monkeypatch):
        """Record every geometry made and every list built, per geometry."""
        made, built = [], Counter()
        real_init = _Geometry.__init__

        def init(self, *args):
            made.append(self)
            real_init(self, *args)

        monkeypatch.setattr(_Geometry, "__init__", init)
        for name in GEOMETRY_LISTS:
            def spy(self, real=_Geometry.__dict__[name].func, name=name):
                built[(self, name)] += 1
                return real(self)

            _spy_cached(monkeypatch, _Geometry, name, spy)
        return made, built

    def test_each_geometry_list_is_built_at_most_once_per_instance(self, monkeypatch):
        """A whole run makes one geometry per instance, the members', and
        builds each of its lists at most once; the ``full`` entries, which
        ``txp-specialization`` reads, have all of them built."""
        made, built = self._spy_on_geometries(monkeypatch)
        owners = _spy_on_derived(monkeypatch)
        catalog = build_catalog(3, seed=7)
        assert run_all(catalog).failures == 0
        _assert_one_each(owners, [e.instance for e in catalog.entries])
        assert list(map(id, made)) == [id(geometry) for _, geometry in owners]
        assert set(built.values()) == {1}
        assert all((geometry, name) in built
                   for (_, geometry), e in zip(owners, catalog.entries) if e.si_label == "full"
                   for name in GEOMETRY_LISTS)

    def test_txp_specialization_builds_no_geometry_of_its_own(self, monkeypatch):
        """Alone on a fresh catalog, the suite's only geometries are those of
        the members of the ``full`` entries it admits."""
        made, _ = self._spy_on_geometries(monkeypatch)
        owners = _spy_on_derived(monkeypatch)
        catalog = build_catalog(3, seed=7)
        assert sum(r.checks for r in run_suite("txp-specialization", catalog).records) > 0
        full = [e.instance for e in catalog.entries if e.si_label == "full"]
        assert len(full) == 8
        _assert_one_each(owners, full)
        assert list(map(id, made)) == [id(geometry) for _, geometry in owners]

    def test_class_labels_are_computed_once_per_relation_and_instance(self, monkeypatch):
        """A whole run computes the L-labels and the R-labels of every
        identity instance once each, and an egg-box of the entry after its
        last suite reuses them."""
        catalog = build_catalog(3, seed=7)
        built, made = Counter(), []
        real, real_data, last = greens._class_labels, greens._GreensData.__init__, SUITES["txp-specialization"]

        def spy(below):
            built[id(below)] += 1
            return real(below)

        def data_init(self, inst):
            real_data(self, inst)
            made.append((self, inst))

        def then_eggbox(entry, sweep):
            record = last(entry, sweep)
            if entry is not None and entry.instance.si.has_identity:
                greens.eggbox(entry.instance)
            return record

        monkeypatch.setattr(greens, "_class_labels", spy)
        monkeypatch.setattr(greens._GreensData, "__init__", data_init)
        monkeypatch.setitem(SUITES, "txp-specialization", then_eggbox)
        assert run_all(catalog).failures == 0
        instances = [e.instance for e in catalog.entries if e.instance.si.has_identity]
        assert len(made) == len(instances)
        assert all(seen is inst for (_, seen), inst in zip(made, instances))
        expected = Counter()
        for data, _ in made:
            expected[id(data.l_ideals)] += 1
            expected[id(data.r_ideals)] += 1
        assert set(expected.values()) == {1}
        assert built == expected

    def test_sweeps_are_released_with_their_entry(self, monkeypatch):
        """No sweep is kept on the catalog: with the cyclic GC off, the
        sweeps whose codes a run decided are freed once it returns."""
        catalog = build_catalog(2, seed=7)
        refs = []
        real = harness._GreensSweep.codes.func

        def codes(self):
            refs.append((self.entry.label, weakref.ref(self)))
            return real(self)

        _spy_cached(monkeypatch, harness._GreensSweep, "codes", codes)
        with _cyclic_gc_off():
            run_suite("txp-specialization", catalog)
        assert not hasattr(catalog, "greens_sweeps")
        full = [e.label for e in catalog.entries if e.si_label == "full"]
        assert [label for label, _ in refs] == full
        assert [ref() for _, ref in refs] == [None] * len(full)


def _reader_loops(catalog):
    """The three Green's pair suites' readers as the pair-by-pair loops over
    the sweep's codes that they replaced, with ``txp_green`` called per pair:
    untimed payloads by suite, in catalog order, and every failure by
    (suite, entry label)."""
    out, failures = {name: [] for name in GREENS_PAIR_SUITES}, {}
    for entry in catalog.entries:
        inst = entry.instance
        if not inst.si.has_identity:
            continue
        sweep = harness._GreensSweep(entry, catalog)
        members = sweep.members
        rows = [
            (a, b, [(rel, o, t) for rel, (o, t) in zip(sweep.relations, row)])
            for (a, b), row in zip(sweep.pairs.tolist(), sweep.codes.tolist())
        ]
        agree, replay, txp = (_KeptTally(entry) for _ in GREENS_PAIR_SUITES)
        for a, b, verdicts in rows:
            for rel, oracle, theorem in verdicts:
                agree.checks += 1
                if harness._CAPPED in (oracle, theorem):
                    agree.capped += 1
                    continue
                oracle, theorem = oracle != harness._UNRELATED, theorem != harness._UNRELATED
                if oracle != theorem:
                    agree.fail(f"{rel}: oracle={oracle} but theorem={theorem}",
                               f=members[a], g=members[b])
        if agree.capped:
            agree.observations = (f"{agree.capped} capped checks recorded oracle-only verdicts",)
        for a, b, verdicts in rows:
            for rel, *codes in verdicts:
                for mode, code in zip(("oracle", "theorem"), codes):
                    if code == harness._CAPPED:
                        replay.capped += 1
                    elif code != harness._UNRELATED:
                        replay.check(code == harness._REPLAYS,
                                     f"{rel} witness ({mode}) fails to replay",
                                     f=members[a], g=members[b])
        for a, b, verdicts in rows:
            for rel, oracle, theorem in verdicts:
                txp.checks += 1
                specialized = greens.txp_green(rel, members[a], members[b], inst.partition)
                for route, code in (("oracle", oracle), ("theorem", theorem)):
                    if code == harness._CAPPED:
                        txp.capped += 1
                        break
                    if specialized != (code != harness._UNRELATED):
                        txp.fail(f"{rel}: specialized={specialized} {route}={not specialized}",
                                 f=members[a], g=members[b])
                        break
        tallies = [(GREENS_PAIR_SUITES[0], agree), (GREENS_PAIR_SUITES[1], replay)]
        if entry.si_label == "full":
            tallies.append((GREENS_PAIR_SUITES[2], txp))
        _keep(out, failures, entry, tallies)
    return out, failures


class _KeptTally(harness._Tally):
    """A tally that also keeps every failure it is told of, in order, as a
    payload without the instance."""

    def __init__(self, entry):
        super().__init__(entry)
        self.kept = []

    def fail(self, detail, count=1, **elements):
        super().fail(detail, count, **elements)
        self.kept.append({"detail": detail, **{
            key: list(value.images if isinstance(value, finite_maps.FiniteMap) else value)
            for key, value in elements.items()}})


def _keep(out, failures, entry, tallies):
    for name, tally in tallies:
        out[name] += _untimed([harness._record(name, entry.label, 0.0, tally)])
        failures[(name, entry.label)] = tally.kept


def _row_hits(members, start, hits, *details):
    """A payload per failure that ``_fail_rows`` counts: each position of its
    mask, row-major."""
    return [{"detail": details[i], "f": list(members[start + a].images),
             "g": list(members[b].images)}
            for a, b, i in np.argwhere(hits.reshape(*hits.shape[:2], len(details))).tolist()]


def _pair_hits(sweep, hits, detail):
    """A payload per failure that ``fail_at`` counts: each index of its mask,
    row-major."""
    out = []
    for index in np.argwhere(hits).tolist():
        a, b = sweep.pairs[index[0]].tolist()
        out.append({"detail": detail(*index), "f": list(sweep.members[a].images),
                    "g": list(sweep.members[b].images)})
    return out


def _keep_failures(monkeypatch):
    """Every failure the suites count from now on, by (suite, entry label):
    each position of each mask handed to ``_fail_rows`` and ``fail_at``
    (which record only its first) and each other ``tally.fail``."""
    kept = {}
    real_rows, real_at, real_record = (
        harness._fail_rows, harness._GreensSweep.fail_at, harness._record)

    def fail_rows(tally, *args):
        told = len(tally.kept)
        real_rows(tally, *args)
        tally.kept[told:] = _row_hits(*args)

    def fail_at(sweep, tally, *args):
        told = len(tally.kept)
        real_at(sweep, tally, *args)
        tally.kept[told:] = _pair_hits(sweep, *args)

    def record(suite, label, started, tally):
        kept[(suite, label)] = tally.kept
        return real_record(suite, label, started, tally)

    monkeypatch.setattr(harness, "_Tally", _KeptTally)
    monkeypatch.setattr(harness, "_fail_rows", fail_rows)
    monkeypatch.setattr(harness._GreensSweep, "fail_at", fail_at)
    monkeypatch.setattr(harness, "_record", record)
    return kept


def _assert_same_records(report, names, expected, expected_failures, kept):
    for name in names:
        assert _untimed(r for r in report.records if r.suite == name) == expected[name], name
    assert {key: kept[key] for key in expected_failures} == expected_failures


def _pick(f, g):
    """Which spoil of the mixed sweep a pair gets; every (f, f) pair gets 0."""
    return (sum(f.images) + 2 * sum(g.images)) % 3


class TestSweepReaders:
    """The pair suites count the sweep's codes with NumPy, and fail where the
    pair-by-pair readers did, in the same order."""

    def test_a_mixed_sweep_reads_as_the_row_loops_read_it(self, monkeypatch):
        """L oracle verdicts flipped on some pairs (with the L theorem search
        also capped on each (f, f) pair), the R theorem search capped on
        others and D witnesses that fail replay on others, all in one
        catalog."""
        def flip_l(data, fk, gk, mode, found):
            if _pick(data.members[fk], data.members[gk]) != 0:
                return found
            if mode == "oracle":
                # on an unrelated pair, a row of member 0 cannot replay
                return None if found is not None else (0, 0)
            if fk == gk:
                raise ResourceLimitError("spoiled cap")
            return found

        def cap_r(data, fk, gk, mode, found):
            if mode == "theorem" and _pick(data.members[fk], data.members[gk]) == 1:
                raise ResourceLimitError("spoiled cap")
            return found

        def tamper_d(data, fk, gk, mode, found):
            if found is None or _pick(data.members[fk], data.members[gk]) != 2:
                return found
            return ((found[0] + 1) % len(data.members), *found[1:])

        for rel, spoil in (("L", flip_l), ("R", cap_r), ("D", tamper_d)):
            _spoil(monkeypatch, rel, spoil)
        catalog = build_catalog(3, seed=7)
        expected, expected_failures = _reader_loops(catalog)
        kept = _keep_failures(monkeypatch)
        report = run_all(catalog, names=list(GREENS_PAIR_SUITES))
        _assert_same_records(report, GREENS_PAIR_SUITES, expected, expected_failures, kept)
        for name in GREENS_PAIR_SUITES:
            records = [r for r in report.records if r.suite == name]
            assert any(r.failures for r in records) and any(r.capped for r in records), name
        details = {r.counterexample["detail"] for r in report.records if r.failures}
        assert {"L: oracle=False but theorem=True", "L: specialized=True oracle=False",
                "D witness (oracle) fails to replay"} <= details
        assert any(r.observations for r in report.records)

    def test_txp_covers_are_built_at_most_once_per_instance(self, monkeypatch):
        built = Counter()
        real = greens._txp_j_covers

        def spy(geometry, b):
            built[(id(geometry), b)] += 1
            return real(geometry, b)

        monkeypatch.setattr(greens, "_txp_j_covers", spy)
        owners = _spy_on_derived(monkeypatch)
        catalog = build_catalog(3, seed=7)
        assert run_all(catalog).failures == 0
        _assert_one_each(owners, [e.instance for e in catalog.entries])
        full = {id(geometry) for (_, geometry), e in zip(owners, catalog.entries)
                if e.si_label == "full"}
        assert {key for key, _ in built} == full
        assert set(built.values()) == {1}

    def test_txp_one_sided_j_is_decided_at_most_once_per_entry(self, monkeypatch):
        decided = Counter()
        real = greens._txp_j_one_sided

        def spy(geometry, a, covers):
            decided[(id(geometry), a, covers)] += 1
            return real(geometry, a, covers)

        monkeypatch.setattr(greens, "_txp_j_one_sided", spy)
        owners = _spy_on_derived(monkeypatch)
        catalog = build_catalog(3, seed=7)
        assert run_all(catalog).failures == 0
        _assert_one_each(owners, [e.instance for e in catalog.entries])
        full = {id(geometry) for (_, geometry), e in zip(owners, catalog.entries)
                if e.si_label == "full"}
        assert {key for key, _, _ in decided} == full
        assert set(decided.values()) == {1}


GATHERED_SUITES = ("character-homomorphism", "member-closure", "unit-set-identity")


def _tuple_loops(catalog, names=GATHERED_SUITES):
    """The three suites as the tuple loops that compose every pair, reading
    the members through ``harness.enumerate_elements``: untimed payloads by
    suite, in catalog order.  Closure is tested against the members' own
    tuples, not against ``member_index``.  Every
    failure is kept by (suite, entry label) too."""
    out, failures = {name: [] for name in GATHERED_SUITES}, {}
    for entry in catalog.entries:
        inst = entry.instance
        p = inst.partition
        members = harness.enumerate_elements(inst)
        tuples = [m.images for m in members]
        lookup = [p.block_of(x) for x in range(p.n)]
        firsts = [b[0] for b in p.blocks]
        chars = [tuple(lookup[t[x]] for x in firsts) for t in tuples]
        homomorphism, closure, units = (_KeptTally(entry) for _ in GATHERED_SUITES)
        index = set(tuples)
        for ft, cf in zip(tuples, chars):
            for gt, cg in zip(tuples, chars):
                composite = tuple(gt[ft[x]] for x in range(p.n))
                direct = tuple(lookup[composite[x]] for x in firsts)
                homomorphic = tuple(cg[cf[i]] for i in range(p.degree))
                homomorphism.check(direct == homomorphic,
                                   "character of composite differs from composed characters",
                                   f=ft, g=gt)
                closure.check(composite in index, "composite escapes the member set", f=ft, g=gt)
        tallies = [(GATHERED_SUITES[0], homomorphism), (GATHERED_SUITES[1], closure)]
        if inst.si.has_identity and GATHERED_SUITES[2] in names:
            ident = finite_maps.FiniteMap.identity(p.n)
            compose = finite_maps.compose
            by_definition = [
                f for f in members
                if any(compose(f, g) == ident and compose(g, f) == ident for g in members)
            ]
            by_formula = [f for f in members if harness.is_unit_bijection(f, p)]
            units.checks = len(members)
            if by_definition != by_formula:
                units.fail("two-sided-invertible members differ from the S(X,P) intersection")
            tallies.append((GATHERED_SUITES[2], units))
        _keep(out, failures, entry, tallies)
    return out, failures


def _drop_last(p, members):
    return members[:-1]


def _break_last(p, members):
    """The last member with the second point of a multi-point block sent to
    another block than the first point's image: its character, read at the
    first points, no longer describes it."""
    block = next((b for b in p.blocks if len(b) > 1), None)
    if block is None or p.degree < 2:
        return members
    images = list(members[-1].images)
    images[block[1]] = next(x for x in range(p.n) if p.block_of(x) != p.block_of(images[block[0]]))
    return (*members[:-1], finite_maps.FiniteMap(p.n, p.n, tuple(images)))


class TestGatheredSuites:
    """character-homomorphism composes by gathering on the member image array,
    member-closure reads the product table and unit-set-identity the units
    oracle; the three record what the tuple loops, which compose every pair,
    did."""

    @pytest.mark.parametrize("seed", [7, 11, 12, 13])
    def test_n3_catalogs(self, seed):
        catalog = build_catalog(3, seed=seed)
        expected, _ = _tuple_loops(catalog)
        report = run_all(catalog, names=list(GATHERED_SUITES))
        assert report.failures == 0
        for name in GATHERED_SUITES:
            assert _untimed(r for r in report.records if r.suite == name) == expected[name]

    @pytest.mark.parametrize("one_row", [False, True], ids=["blocks", "one-row"])
    @pytest.mark.parametrize("spoil,names,failing", [
        (None, GATHERED_SUITES, set()),
        (_drop_last, GATHERED_SUITES, {"member-closure", "unit-set-identity"}),
        # a member that does not preserve the partition has no unit test to
        # run: ``is_unit_bijection`` refuses it
        (_break_last, GATHERED_SUITES[:2], {"character-homomorphism", "member-closure"}),
    ], ids=["clean", "drop-a-member", "wrong-character"])
    def test_spoiled_members_and_row_blocks(self, spoil, names, failing, one_row, monkeypatch):
        if spoil is not None:
            real = harness.enumerate_elements
            monkeypatch.setattr(harness, "enumerate_elements",
                                lambda inst: spoil(inst.partition, real(inst)))

            def spoiled_array(geometry):
                """The members' image array, spoiled as the members are: the
                suites gather on it."""
                n = geometry.p.n
                maps = [finite_maps.FiniteMap(n, n, t) for t in geometry.images]
                images = [m.images for m in spoil(geometry.p, maps)]
                return np.array(images, dtype=np.intp).reshape(len(images), n)

            monkeypatch.setattr(_Geometry, "image_array", property(spoiled_array))
        block_rows = Counter()
        if one_row:
            monkeypatch.setattr(ensemble, "ROW_BLOCK_BYTES", 1)
            real_then = harness._then

            def then(maps, rows):
                block_rows[len(rows)] += 1
                return real_then(maps, rows)

            monkeypatch.setattr(harness, "_then", then)
        catalog = build_catalog(3, seed=7)
        expected, expected_failures = _tuple_loops(catalog, names)
        kept = _keep_failures(monkeypatch)
        report = run_all(catalog, names=list(names))
        _assert_same_records(report, names, expected, expected_failures, kept)
        assert {r.suite for r in report.records if r.failures} == failing
        if one_row:
            assert set(block_rows) == {1}

    def test_member_closure_reads_a_dict_path_table(self):
        """16 singleton blocks with the identity and one constant character:
        16**16 codes exceed ``ensemble.DENSE_CODE_LIMIT``, so the product
        table is built through its dict of image tuples, and member-closure
        reads its four entries as closed."""
        p = harness.Partition(16, tuple((x,) for x in range(16)))
        si = harness.IndexSemigroup(16, (finite_maps.FiniteMap.identity(16),
                                         finite_maps.FiniteMap(16, 16, (15,) * 16)))
        entry = harness.CatalogEntry(harness.Instance(p, si), "n16", "id+const15")
        catalog = harness.Catalog(16, 0, (entry,))
        assert 16**16 > ensemble.DENSE_CODE_LIMIT
        for name in GATHERED_SUITES:
            (record,) = run_suite(name, catalog).records
            assert record.verdict == "pass"
        assert run_suite("member-closure", catalog).records[0].checks == 4

    def test_a_unit_missing_from_the_units_oracle_fails_unit_set_identity(self, monkeypatch):
        """unit-set-identity reads ``DerivedData.unit_ids``: with its last
        unit dropped, every entry with the identity fails, once."""
        real = ensemble.DerivedData.__dict__["unit_ids"].func
        _spy_cached(monkeypatch, ensemble.DerivedData, "unit_ids", lambda data: real(data)[:-1])
        report = run_suite("unit-set-identity", build_catalog(2, seed=7))
        assert report.records and all(r.failures == 1 for r in report.records)
        assert {r.counterexample["detail"] for r in report.records} == {
            "two-sided-invertible members differ from the S(X,P) intersection"}

    def test_an_escaping_table_entry_fails_member_closure_at_its_pair(self, monkeypatch):
        """member-closure reads the product table: one entry set to -1 is its
        one failure, and that pair is its counterexample."""
        real = ensemble.DerivedData.__dict__["table"].func

        def table(data):
            out = real(data)
            out[2, 1] = -1
            return out

        _spy_cached(monkeypatch, ensemble.DerivedData, "table", table)
        inst = Instance(Partition.of([[0, 1], [2]]), IndexSemigroup.full(2))
        catalog = harness.Catalog(3, 0, (harness.CatalogEntry(inst, "n3:[0,1][2]", "full"),))
        (record,) = run_suite("member-closure", catalog).records
        members = enumerate_elements(inst)
        assert (record.checks, record.failures) == (len(members) ** 2, 1)
        assert record.counterexample["detail"] == "composite escapes the member set"
        assert (record.counterexample["f"], record.counterexample["g"]) == (
            list(members[2].images), list(members[1].images))

    def test_image_array_holds_points_past_255(self):
        """257 singleton blocks with the identity and the constant character
        256: one byte a point would wrap the constant member's images to 0."""
        p = harness.Partition(257, tuple((x,) for x in range(257)))
        si = harness.IndexSemigroup(257, (finite_maps.FiniteMap.identity(257),
                                          finite_maps.FiniteMap(257, 257, (256,) * 257)))
        entry = harness.CatalogEntry(harness.Instance(p, si), "n257", "id+const256")
        catalog = harness.Catalog(257, 0, (entry,))
        assert entry.instance.derived.geometry.image_array.max() == 256
        for name in GATHERED_SUITES:
            (record,) = run_suite(name, catalog).records
            assert record.verdict == "pass"

    def test_every_gather_reads_the_geometry_s_image_array(self, monkeypatch):
        """Over a whole run, each array the sweep replays on and each
        character-homomorphism gathers on is the entry's
        ``geometry.image_array`` itself, built once per entry;
        character-homomorphism gathers on the members' characters besides,
        and no other suite gathers.  member-closure reads the entry's
        ``derived.table`` and unit-set-identity its ``unit_ids``: each is
        built once per entry, in that suite, the table from that same array."""
        built, made, tables, units = [], [], [], []
        real_array = _Geometry.__dict__["image_array"].func
        real_table, real_units = (ensemble.DerivedData.__dict__[name].func
                                  for name in ("table", "unit_ids"))
        real_product = ensemble.product_table

        def image_array(geometry):
            built.append(geometry)
            return real_array(geometry)

        def product_table(images):
            made.append(images)
            return real_product(images)

        def table(data):
            told = len(made)
            out = real_table(data)
            (images,) = made[told:]
            tables.append((suite[0], data.geometry, images is data.geometry.image_array))
            return out

        def unit_ids(data):
            units.append((suite[0], data.geometry))
            return real_units(data)

        _spy_cached(monkeypatch, _Geometry, "image_array", image_array)
        _spy_cached(monkeypatch, ensemble.DerivedData, "table", table)
        _spy_cached(monkeypatch, ensemble.DerivedData, "unit_ids", unit_ids)
        monkeypatch.setattr(ensemble, "product_table", product_table)
        owners = _spy_on_derived(monkeypatch)
        read, suite = Counter(), [None]

        def assert_the_entry_s_array(images):
            geometry = owners[-1][1]  # the entry's: its derived data is the last built
            assert built[-1] is geometry and images is geometry.image_array

        real_replay, real_then = greens._replay_rows, harness._then

        def replay(rel, images, rows):
            assert_the_entry_s_array(images)
            read["replay"] += 1
            return real_replay(rel, images, rows)

        def then(maps, rows):
            geometry = owners[-1][1]
            if maps is not geometry.image_array:
                assert suite[0] == "character-homomorphism"
                assert maps.tolist() == [list(c) for c in geometry.chars]
            else:
                assert_the_entry_s_array(maps)
                read[suite[0]] += 1
            return real_then(maps, rows)

        monkeypatch.setattr(greens, "_replay_rows", replay)
        monkeypatch.setattr(harness, "_then", then)
        for name in GATHERED_SUITES:
            def body(entry, tally, sweep, real=SUITES[name].body, name=name):
                suite[0] = name
                try:
                    real(entry, tally, sweep)
                finally:
                    suite[0] = None

            monkeypatch.setitem(SUITES, name, harness._Suite(name, SUITES[name].admits, body))
        catalog = build_catalog(3, seed=7)
        assert run_all(catalog).failures == 0
        _assert_one_each(owners, [e.instance for e in catalog.entries])
        assert built == [geometry for _, geometry in owners]
        assert set(read) == {"replay", "character-homomorphism"}
        assert tables == [("member-closure", geometry, True) for _, geometry in owners]
        assert units == [("unit-set-identity", geometry) for inst, geometry in owners
                         if inst.si.has_identity]


LABEL_SUITES = ("character-descent", "greens-tx-specialization", "greens-necessary-conditions")


def _label_loops(catalog):
    """character-descent, greens-tx-specialization and
    greens-necessary-conditions as the pair-by-pair loops over the Green's
    data they replaced: untimed payloads by suite, in catalog order, and every
    failure by (suite, entry label)."""
    out, failures = {name: [] for name in LABEL_SUITES}, {}
    for entry in catalog.entries:
        inst = entry.instance
        if not inst.si.has_identity:
            continue
        data = greens._greens_data(inst)
        members, char_ids = data.members, data.char_ids
        images, kernels = data.geometry.sorted_images, data.geometry.kernels
        r_of, l_of = data.classes[:2]
        d_label = data.d_label
        l_below, r_below = preorders(data)
        si_l_below, si_r_below = map(unpack_below, (data.si_l_ideals, data.si_r_ideals))
        descent, tx, necessary = (_KeptTally(entry) for _ in LABEL_SUITES)
        for a, b in itertools.product(range(len(members)), repeat=2):
            f, g = members[a], members[b]
            descent.checks += 1
            ca, cb = char_ids[a], char_ids[b]
            if l_below[a, b] and not si_l_below[ca, cb]:
                descent.fail("L-inequality does not descend to characters", f=f, g=g)
            if r_below[a, b] and not si_r_below[ca, cb]:
                descent.fail("R-inequality does not descend to characters", f=f, g=g)
            tx.checks += 1
            rank_eq = len(images[a]) == len(images[b])
            l_eq, r_eq = l_of[a] == l_of[b], r_of[a] == r_of[b]
            if l_eq != (images[a] == images[b]):
                tx.fail("L disagrees with image equality", f=f, g=g)
            elif r_eq != (kernels[a] == kernels[b]):
                tx.fail("R disagrees with kernel equality", f=f, g=g)
            elif (d_label[a] == d_label[b]) != rank_eq:
                tx.fail("D disagrees with rank equality", f=f, g=g)
            elif data.j_below[r_of[a]][l_of[b]] != (len(images[a]) <= len(images[b])):
                tx.fail("≤_J disagrees with the rank order", f=f, g=g)
            necessary.checks += 1
            if l_eq and images[a] != images[b]:
                necessary.fail("L-related pair with different images", f=f, g=g)
            if r_eq and kernels[a] != kernels[b]:
                necessary.fail("R-related pair with different kernels", f=f, g=g)
        tallies = [(LABEL_SUITES[0], descent), (LABEL_SUITES[2], necessary)]
        if inst.partition.degree == 1:
            tallies.insert(1, (LABEL_SUITES[1], tx))
        _keep(out, failures, entry, tallies)
    return out, failures


def _spoil_labels(data):
    """Every member L- and R-related to every other (so J-related to every
    other), every member alone in its D-class, and each character's
    L-descent to itself dropped."""
    size = len(data.members)
    first, one_class = np.zeros(1, dtype=np.intp), np.zeros(size, dtype=np.intp)
    data.classes = (one_class, one_class, np.zeros((1, 1), dtype=np.intp), first, first)
    data.d_label = np.arange(size)
    si_l_below = unpack_below(data.si_l_ideals)
    np.fill_diagonal(si_l_below, False)
    data.si_l_ideals = pack_below(si_l_below)


class TestLabelSuites:
    """The three pair suites over the Green's data test whole blocks of rows
    with NumPy and record what their pair loops did."""

    @pytest.mark.parametrize("one_row", [False, True], ids=["blocks", "one-row"])
    @pytest.mark.parametrize("spoiled", [False, True], ids=["clean", "spoiled-labels"])
    def test_records_match_the_pair_loops(self, spoiled, one_row, monkeypatch):
        if spoiled:
            real = greens._greens_data

            def spoiling(inst):
                data = real(inst)
                if not getattr(data, "spoiled", False):
                    _spoil_labels(data)
                    data.spoiled = True
                return data

            monkeypatch.setattr(greens, "_greens_data", spoiling)
        if one_row:
            monkeypatch.setattr(ensemble, "ROW_BLOCK_BYTES", 1)
        catalog = build_catalog(3, seed=7)
        expected, expected_failures = _label_loops(catalog)
        kept = _keep_failures(monkeypatch)
        report = run_all(catalog, names=list(LABEL_SUITES))
        _assert_same_records(report, LABEL_SUITES, expected, expected_failures, kept)
        failing = {r.suite for r in report.records if r.failures}
        assert failing == (set(LABEL_SUITES) if spoiled else set())
        details = {f["detail"] for failures in kept.values() for f in failures}
        assert details == (set() if not spoiled else {
            "L-inequality does not descend to characters",
            "L disagrees with image equality", "R disagrees with kernel equality",
            "D disagrees with rank equality",
            "L-related pair with different images", "R-related pair with different kernels"})


class TestClassRelations:
    """The harness's one-sided ≤_J, D and R∘L, gathered from the class
    quotient, against the N×N×N boolean products of the preorders."""

    @staticmethod
    def _assert_match_the_boolean_products(inst):
        data = greens._greens_data(inst)
        j_below, l_then_r, r_then_l = boolean_products(*preorders(data))
        d_label, size = np.array(data.d_label), len(data.members)
        r_of, l_of = map(np.array, data.classes[:2])
        assert np.array_equal(
            harness._class_relations(np.array(data.j_below), r_of, l_of, 0, size), j_below)
        assert np.array_equal(d_label[:, None] == d_label, l_then_r)
        h = np.array(data.classes[2]) >= 0
        assert np.array_equal(harness._class_relations(h, r_of, l_of, 0, size), r_then_l)

    def test_match_on_every_identity_entry_of_max_n_4(self):
        entries = [e for e in build_catalog(4, seed=7).entries if e.instance.si.has_identity]
        assert len(entries) == 159
        for entry in entries:
            self._assert_match_the_boolean_products(entry.instance)

    def test_match_on_an_875_member_instance(self):
        """``n5:[0,1][2][3][4]/full``."""
        inst = Instance(Partition.of([[0, 1], [2], [3], [4]]), IndexSemigroup.full(4))
        assert len(enumerate_elements(inst)) == 875
        self._assert_match_the_boolean_products(inst)

    def test_a_dropped_r_edge_fails_greens_d_subset_j(self):
        """≤_J is built from the preorders, not from the D labels it is
        checked against, so a broken ≤_R shows.  An edge between two distinct
        R-classes cannot show in D ⊆ J or J ⊆ D (in a finite semigroup, f ≤_R
        g and f J g give f R g), so the edge dropped is the one the class
        quotient reads for D-related pairs: from an R-class to itself, at its
        first member, after the class labels are taken, and ≤_J on classes
        is built again from the spoiled preorder."""
        entry = harness.CatalogEntry(
            Instance(Partition.of([[0, 1], [2]]), IndexSemigroup.full(2)), "n3:[0,1][2]", "full")
        catalog = harness.Catalog(3, 7, (entry,))
        [record] = run_suite("greens-d-subset-j", catalog).records
        assert record.verdict == "pass"
        # the run dropped the entry's Green's data: this one is built afresh
        # and builds ≤_J on classes on first ask, from the spoiled preorder
        data = greens._greens_data(entry.instance)
        first = int(data.classes[3][-1])
        drop_edge(data.r_ideals, first, first)
        assert "j_below" not in vars(data)
        [record] = run_suite("greens-d-subset-j", catalog).records
        assert record.verdict == "fail"
        assert record.counterexample["detail"] == "a D-related pair is not J-related"
        assert record.counterexample["f"] == list(data.members[first].images)
        # ≤_J read at the classes' first members, as a boolean product over
        # the members, against D from the labels taken before the spoil
        r_of, l_of, _, r_first, l_first = data.classes
        at_r, at_l = r_first[r_of], l_first[l_of]
        l_below, r_below = preorders(data)
        j_below = r_below[np.ix_(at_r, at_r)] @ l_below[np.ix_(at_l, at_l)]
        j_rel = j_below & j_below.T
        d_label = np.array(data.d_label)
        d_rel = d_label[:, None] == d_label
        assert record.failures == np.count_nonzero(d_rel != j_rel) > 1

    def test_the_d_suites_take_a_block_of_rows_at_a_time(self, monkeypatch):
        """With one-row blocks, greens-d-composition-commutes and
        greens-d-subset-j each peak under 64 bytes a member on
        n5:[0,1][2][3][4]/full (875 members; their whole N×N masks took 2.3
        and 3.1 MB), the Green's data built beforehand.  With ≤_R spoiled as
        in ``test_a_dropped_r_edge_fails_greens_d_subset_j`` and every member
        alone in its D-class, both fail and record what whole blocks record:
        the counts, and a D ⊄ J counterexample before the J ⊄ D pairs of
        earlier rows."""
        inst = Instance(Partition.of([[0, 1], [2], [3], [4]]), IndexSemigroup.full(4))
        entry = harness.CatalogEntry(inst, "n5:[0,1][2][3][4]", "full")
        catalog = harness.Catalog(5, 7, (entry,))
        data = greens._greens_data(inst)
        data.classes, data.j_below, data.d_label
        names = ("greens-d-composition-commutes", "greens-d-subset-j")
        monkeypatch.setattr(ensemble, "ROW_BLOCK_BYTES", 1)
        for name in names:
            tracemalloc.start()
            try:
                record = harness.SUITES[name](entry, harness._GreensSweep(entry, catalog))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (record.checks, record.failures) == (875 ** 2, 0)
            assert peak < 64 * 875, name

        def spoiled_run():
            entry = harness.CatalogEntry(Instance(Partition.of([[0, 1], [2]]),
                                                  IndexSemigroup.full(2)), "n3:[0,1][2]", "full")
            data = greens._greens_data(entry.instance)
            first = int(data.classes[3][-1])
            drop_edge(data.r_ideals, first, first)
            data.d_label = np.arange(len(data.members))
            return _untimed(run_all(harness.Catalog(3, 7, (entry,)), list(names)).records)

        one_row = spoiled_run()
        monkeypatch.undo()
        assert spoiled_run() == one_row
        assert [record["verdict"] for record in one_row] == ["fail", "fail"]
        assert one_row[1]["counterexample"]["detail"] == "a D-related pair is not J-related"

    def test_the_descent_and_necessity_suites_size_their_blocks_by_a_row(self, monkeypatch):
        """At the default budget, character-descent and
        greens-necessary-conditions each peak within ROW_BLOCK_BYTES, the
        iterator buffers NumPy takes for a broadcast comparison of two intp
        operands (``np.getbufsize()`` elements each) and 64 bytes a member,
        on n5:[0,1][2][3][4]/full (875 members, the Green's data and the
        geometry lists built beforehand; sized at 2 bytes a pair they peaked
        at 0.79 and 0.81 MB).  With the labels spoiled as in
        ``TestLabelSuites``, on n4:[0][1][2][3]/full (256 members, two blocks
        at the default budget), both fail and record what one-row blocks and
        one whole block record."""
        names = ["character-descent", "greens-necessary-conditions"]
        inst = Instance(Partition.of([[0, 1], [2], [3], [4]]), IndexSemigroup.full(4))
        entry = harness.CatalogEntry(inst, "n5:[0,1][2][3][4]", "full")
        catalog = harness.Catalog(5, 7, (entry,))
        data = greens._greens_data(inst)
        data.classes, data.geometry.sorted_images, data.geometry.kernels
        buffers = 2 * np.getbufsize() * np.dtype(np.intp).itemsize
        for name in names:
            tracemalloc.start()
            try:
                record = harness.SUITES[name](entry, harness._GreensSweep(entry, catalog))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (record.checks, record.failures) == (875 ** 2, 0)
            assert peak <= ensemble.ROW_BLOCK_BYTES + buffers + 64 * 875, name

        real = greens._greens_data

        def spoiling(inst):
            data = real(inst)
            if not getattr(data, "spoiled", False):
                _spoil_labels(data)
                data.spoiled = True
            return data

        monkeypatch.setattr(greens, "_greens_data", spoiling)
        inst = Instance(Partition.of([[0], [1], [2], [3]]), IndexSemigroup.full(4))
        entry = harness.CatalogEntry(inst, "n4:[0][1][2][3]", "full")
        runs = []
        for budget in (1, ensemble.ROW_BLOCK_BYTES, 1 << 40):
            monkeypatch.setattr(ensemble, "ROW_BLOCK_BYTES", budget)
            runs.append(_untimed(run_all(harness.Catalog(4, 7, (entry,)), names).records))
        assert runs[0] == runs[1] == runs[2]
        assert [record["verdict"] for record in runs[0]] == ["fail", "fail"]

    def test_the_d_suites_size_their_blocks_by_a_row(self):
        """At the default budget, greens-d-composition-commutes and
        greens-d-subset-j each peak within ROW_BLOCK_BYTES and 64 bytes a
        member on n5:[0,1][2][3][4]/full (875 members, the Green's data built
        beforehand), with no allowance for NumPy's iterator buffers: their
        row bytes count the block before's masks, and their keys are
        compared in the narrowest dtype that holds them (with intp keys and
        the held masks uncounted they peaked at 0.41 and 0.36 MB)."""
        inst = Instance(Partition.of([[0, 1], [2], [3], [4]]), IndexSemigroup.full(4))
        entry = harness.CatalogEntry(inst, "n5:[0,1][2][3][4]", "full")
        catalog = harness.Catalog(5, 7, (entry,))
        data = greens._greens_data(inst)
        data.classes, data.j_below, data.d_label
        for name in ("greens-d-composition-commutes", "greens-d-subset-j"):
            tracemalloc.start()
            try:
                record = harness.SUITES[name](entry, harness._GreensSweep(entry, catalog))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (record.checks, record.failures) == (875 ** 2, 0)
            assert peak <= ensemble.ROW_BLOCK_BYTES + 64 * 875, name

    @pytest.mark.parametrize("n", [3, 4], ids=["T_3", "T_4"])
    def test_dropped_strict_edges_fail_only_the_rank_order(self, n, monkeypatch):
        """Every strict edge of ≤_R and of ≤_L dropped, only the edges within
        a class kept, after the class labels are taken and before ≤_J on
        classes is built.  ``j_below`` then holds exactly where H(R(f),
        L(g)) is nonempty, so symmetric J stays D and the D suites pass,
        while f ≤_J g is lost on every pair with rank f < rank g: only the
        rank-order test of greens-tx-specialization sees it."""
        inst = Instance(Partition.of([list(range(n))]), IndexSemigroup.trivial(1))
        catalog = harness.Catalog(n, 7, (harness.CatalogEntry(inst, f"n{n}", "full"),))
        data = greens._greens_data(inst)
        assert data.classes
        data.l_ideals, data.r_ideals = (pack_below(below & below.T) for below in preorders(data))
        kept = _keep_failures(monkeypatch)
        # one run, so the three suites read the one spoiled Green's data
        report = run_all(catalog, ["greens-d-subset-j", "greens-d-composition-commutes",
                                   "greens-tx-specialization"])
        *passing, record = report.records
        assert [r.verdict for r in passing] == ["pass", "pass"]
        ranks = Counter(len(set(m.images)) for m in data.members)
        below = sum(ranks[a] * ranks[b] for a in ranks for b in ranks if a < b)
        assert (record.checks, record.failures) == (len(data.members) ** 2, below)
        assert {f["detail"] for f in kept[("greens-tx-specialization", f"n{n}/full")]} == {
            "≤_J disagrees with the rank order"}


class TestFailingRuns:
    """A failing suite counts every failing check but builds the payload,
    and the instance's JSON, of its first failure only."""

    def test_spoiled_l_classes_of_an_875_member_instance(self, monkeypatch):
        """``n5:[0,1][2][3][4]/full`` with its first 24 members moved into the
        L-class of the first: a few hundred L-related pairs with different
        images, and one ``instance_to_json`` call for the one record."""
        inst = Instance(Partition.of([[0, 1], [2], [3], [4]]), IndexSemigroup.full(4))
        data = greens._greens_data(inst)
        r_of, l_of, *rest = data.classes
        l_of = [0] * 24 + l_of[24:].tolist()
        data.classes = (r_of, np.array(l_of), *rest)
        size, images = len(data.members), [frozenset(m.images) for m in data.members]
        # L-related pairs with different images, counted per L-class
        in_class, with_image = Counter(l_of), Counter(zip(l_of, images))
        expected = sum(k * k for k in in_class.values()) - sum(k * k for k in with_image.values())
        assert (size, expected) == (875, 520)
        a, b = next((a, b) for a in range(size) for b in range(size)
                    if l_of[a] == l_of[b] and images[a] != images[b])
        made = Counter()
        real = harness.instance_to_json

        def spy(instance):
            made[id(instance)] += 1
            return real(instance)

        monkeypatch.setattr(harness, "instance_to_json", spy)
        entry = harness.CatalogEntry(inst, "n5:[0,1][2][3][4]", "full")
        [record] = run_suite("greens-necessary-conditions", harness.Catalog(5, 7, (entry,))).records
        assert (record.checks, record.failures) == (size ** 2, expected)
        assert made == {id(inst): 1}
        assert record.counterexample == {
            "instance": real(inst), "detail": "L-related pair with different images",
            "f": list(data.members[a].images), "g": list(data.members[b].images)}
