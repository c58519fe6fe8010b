import dataclasses
import gc
import json
import weakref
from collections import Counter
from functools import cached_property

import pytest

from partsem import (
    InvalidArgumentError,
    ResourceLimitError,
    SUITES,
    build_catalog,
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

GEOMETRY_LISTS = ("block_masks", "kernels", "class_meets", "meet_masks", "j_geometry")


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
        """A tracer may rebind a suite in ``SUITES``; both runners call the rebound one."""
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

        def counting(catalog):
            calls.append(catalog)
            return original(catalog)

        monkeypatch.setitem(SUITES, name, counting)
        expected = original(catalog2)
        assert len(run_all(catalog2).records) > len(expected)
        assert calls == [catalog2]
        records = run_suite(name, catalog2).records
        assert calls == [catalog2, catalog2]
        assert [r.instance for r in records] == [r.instance for r in expected]

    def test_all_suites_pass_at_small_scale(self, catalog2):
        report = run_all(catalog2)
        assert report.failures == 0
        assert set(r.suite for r in report.records) == set(SUITES)


class TestReport:
    def test_machine_lines_follow_schema(self, catalog2):
        report = run_suite("element-counting", catalog2)
        for line in report.to_machine_lines():
            payload = json.loads(line)
            assert {"suite", "instance", "verdict", "checks", "failures", "millis"} <= set(payload)
            assert payload["verdict"] in ("pass", "fail")

    def test_untimed_serialization_is_reproducible(self, catalog2):
        one = run_all(build_catalog(2, seed=7)).to_machine_lines(include_timing=False)
        two = run_all(build_catalog(2, seed=7)).to_machine_lines(include_timing=False)
        assert one == two

    def test_text_report_mentions_every_suite(self, catalog2):
        text = run_all(catalog2).to_text()
        for name in SUITES:
            assert name in text
        assert "0 failures" in text

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
    return [r.to_payload(include_timing=False) for r in records]


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
        pairs = [(members[a], members[b]) for a, b in harness._pairs(entry, catalog)]
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
            out[name].append(harness._record(name, entry.label, 0.0, tally).to_payload(False))
    return out


def _spoil(monkeypatch, name, spoil):
    """Rebind ``greens.<name>`` to return ``spoil(f, g, inst, mode, w)`` for
    the witness or None ``w`` of the real checker."""
    real = getattr(greens, name)

    def checker(f, g, inst, mode="oracle", cap=greens.DEFAULT_PHI_CAP):
        return spoil(f, g, inst, mode, real(f, g, inst, mode=mode, cap=cap))

    monkeypatch.setattr(greens, name, checker)


class TestGreensSweep:
    """One sweep per entry decides each Green's pair once; the agreement,
    replay and T(X, P) suites read its codes."""

    def test_each_verdict_is_decided_once(self, monkeypatch):
        catalog = build_catalog(3, seed=7)
        calls = Counter()
        for rel, checker in greens.checkers().items():
            def spy(f, g, inst, mode="oracle", _rel=rel, _checker=checker, **kwargs):
                calls[(id(inst), f.images, g.images, _rel, mode)] += 1
                return _checker(f, g, inst, mode=mode, **kwargs)

            monkeypatch.setattr(greens, checker.__name__, spy)
        assert run_all(catalog).failures == 0
        expected = set()
        for entry in catalog.entries:
            if entry.instance.si.has_identity:
                members = enumerate_elements(entry.instance)
                for a, b in harness._pairs(entry, catalog):
                    for rel in "LRDJ":
                        for mode in ("oracle", "theorem"):
                            expected.add((id(entry.instance), members[a].images,
                                          members[b].images, rel, mode))
        assert set(calls) == expected
        assert set(calls.values()) == {1}

    def test_sweep_looks_up_and_composes_no_map(self, monkeypatch):
        """The sweep hands the checkers the members' own maps, found by
        identity, and its replays run on image tuples: no member lookup and
        no ``compose``.  The public route looks f up once and composes no
        map either; greens does not import ``compose`` at all."""
        assert not hasattr(greens, "compose")
        calls = Counter()

        def spy(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted

        monkeypatch.setattr(greens, "require_member", spy("require_member", greens.require_member))
        for module in (finite_maps, harness):
            monkeypatch.setattr(module, "compose", spy("compose", module.compose))
        catalog = build_catalog(3, seed=7)
        assert run_suite("greens-mode-agreement", catalog).failures == 0
        assert calls == Counter()
        inst = next(e.instance for e in catalog.entries if e.instance.si.has_identity)
        f = enumerate_elements(inst)[0]
        w = greens.l_related(greens.FiniteMap(f.domain_size, f.codomain_size, f.images), f, inst)
        assert w is not None and greens.verify_witness(w, f, f)
        assert calls == Counter({"require_member": 1})

    def test_records_match_the_per_suite_checker_loops(self):
        catalog = build_catalog(3, seed=7)
        expected = _checker_loops(catalog)
        report = run_all(build_catalog(3, seed=7))
        for name in GREENS_PAIR_SUITES:
            assert _untimed(r for r in report.records if r.suite == name) == expected[name]

    def test_flipped_j_theorem_verdict_fails_where_it_did(self, monkeypatch):
        def flip(f, g, inst, mode, w):
            if mode != "theorem":
                return w
            return None if w is not None else greens.GreenWitness("J")

        _spoil(monkeypatch, "j_related", flip)
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
        def cap_out(f, g, inst, mode, w):
            if mode == "theorem" and f is g:
                raise ResourceLimitError("spoiled cap")
            return w

        _spoil(monkeypatch, "j_related", cap_out)
        catalog = build_catalog(2, seed=7)
        expected = {}
        for entry in catalog.entries:
            if entry.instance.si.has_identity:
                diagonal = sum(a == b for a, b in harness._pairs(entry, catalog))
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

    def test_swapped_witness_factors_fail_replay_only(self, monkeypatch):
        def swap(f, g, inst, mode, w):
            if w is None or mode != "oracle":
                return w
            factors = dict(w.factors)
            factors["fg1"], factors["fg2"] = factors["fg2"], factors["fg1"]
            return dataclasses.replace(w, factors=tuple(factors.items()))

        _spoil(monkeypatch, "j_related", swap)
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
        to the next member: the sweep's replay fails where the per-suite
        checker loops' ``verify_witness`` does, and nothing else."""
        def tamper(f, g, inst, mode, w):
            if w is None or mode != "oracle":
                return w
            members = enumerate_elements(inst)
            (name, h), *rest = w.factors
            moved = members[(members.index(h) + 1) % len(members)]
            return dataclasses.replace(w, factors=((name, moved), *rest))

        _spoil(monkeypatch, greens.checkers()[rel].__name__, tamper)
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

            prop = cached_property(spy)
            prop.__set_name__(_Geometry, name)
            monkeypatch.setattr(_Geometry, name, prop)
        return made, built

    def test_each_geometry_list_is_built_at_most_once_per_instance(self, monkeypatch):
        """A whole run makes one geometry per instance, the members', and
        builds each of its lists at most once; the ``full`` entries, which
        ``txp-specialization`` reads, have all of them built."""
        made, built = self._spy_on_geometries(monkeypatch)
        catalog = build_catalog(3, seed=7)
        assert run_all(catalog).failures == 0
        members = {id(e.instance.derived.geometry): e.instance.derived.geometry
                   for e in catalog.entries}
        assert sorted(map(id, made)) == sorted(members)
        assert set(built.values()) == {1}
        assert all((e.instance.derived.geometry, name) in built
                   for e in catalog.entries if e.si_label == "full" for name in GEOMETRY_LISTS)

    def test_txp_specialization_builds_no_geometry_of_its_own(self, monkeypatch):
        """Alone on a fresh catalog, the suite's only geometries are those of
        the members of the ``full`` entries it admits."""
        made, _ = self._spy_on_geometries(monkeypatch)
        catalog = build_catalog(3, seed=7)
        assert sum(r.checks for r in run_suite("txp-specialization", catalog).records) > 0
        full = [e.instance for e in catalog.entries if e.si_label == "full"]
        assert len(full) == 8
        assert sorted(map(id, made)) == sorted(id(inst.derived.geometry) for inst in full)

    def test_class_labels_are_computed_once_per_relation_and_instance(self, monkeypatch):
        """A whole run computes the L-labels and the R-labels of every
        identity instance once each, and an egg-box afterwards reuses them."""
        catalog = build_catalog(3, seed=7)
        built = Counter()
        real = greens._class_labels

        def spy(below):
            built[id(below)] += 1
            return real(below)

        monkeypatch.setattr(greens, "_class_labels", spy)
        assert run_all(catalog).failures == 0
        instances = [e.instance for e in catalog.entries if e.instance.si.has_identity]
        expected = Counter()
        for inst in instances:
            data = greens._greens_data(inst)
            expected[id(data.l_below)] += 1
            expected[id(data.r_below)] += 1
        assert set(expected.values()) == {1}
        assert built == expected
        for inst in instances:
            greens.eggbox(inst)
        assert built == expected

    def test_sweeps_are_released_with_their_catalog(self):
        catalog = build_catalog(2, seed=7)
        run_suite("txp-specialization", catalog)
        full = [e.label for e in catalog.entries if e.si_label == "full"]
        assert list(catalog.greens_sweeps) == full
        refs = [weakref.ref(sweep) for sweep in catalog.greens_sweeps.values()]
        del catalog
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(full)
