import json

import pytest

from partsem import (
    InvalidArgumentError,
    SUITES,
    build_catalog,
    instance_to_json,
    run_all,
    run_suite,
)
from partsem.cli import parse_instance


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
