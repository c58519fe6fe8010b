"""Acceptance criteria: every structural theorem verified over the full catalog.

Each test runs one criterion at its stated tolerance (zero violations, plus
the timing budgets) over the deterministic max_n=4 catalog and prints one
pass/fail line.  Suite reports are shared across criteria through a session
fixture so the whole module stays inside the time budget.
"""

import time

import pytest

from partsem import SUITES, build_catalog, run_all
from partsem.harness import Report
from untimed_digest import untimed_digest

SEED = 7


@pytest.fixture(scope="session")
def catalog4():
    return build_catalog(4, seed=SEED)


@pytest.fixture(scope="session")
def run4(catalog4):
    """The report of one run of every suite on the max_n=4 catalog, with its
    wall-clock seconds."""
    started = time.perf_counter()
    report = run_all(catalog4)
    return report, time.perf_counter() - started


@pytest.fixture(scope="session")
def results4(catalog4, run4):
    """Every suite report on the max_n=4 catalog, with the seconds its
    records timed."""
    records = run4[0].records
    out = {}
    for name in SUITES:
        report = Report(catalog4.max_n, catalog4.seed, [r for r in records if r.suite == name])
        out[name] = (report, sum(r.millis for r in report.records) / 1000.0)
    return out


def _criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def _suite_failures(results4, *names):
    total = 0
    for name in names:
        report, _ = results4[name]
        total += report.failures
    return total


def test_01_character_homomorphism(results4):
    report, seconds = results4["character-homomorphism"]
    checks = sum(r.checks for r in report.records)
    _criterion(
        1,
        "character homomorphism",
        report.failures == 0 and seconds < 60.0,
        f"{checks} pairs, {seconds:.1f}s",
    )


def test_02_regular_element_equivalence(results4):
    fails = _suite_failures(results4, "regular-element-equivalence",
                            "inner-inverse-construction")
    _criterion(2, "regular-element equivalence", fails == 0)


def test_03_regular_semigroup_equivalence(results4):
    fails = _suite_failures(results4, "regular-semigroup-equivalence",
                            "subgroup-regularity")
    _criterion(3, "regular-semigroup equivalence", fails == 0)


def test_04_idempotent_equivalence(results4):
    _criterion(4, "idempotent equivalence",
               _suite_failures(results4, "idempotent-equivalence") == 0)


def test_05_inverse_semigroup_equivalence(results4):
    _criterion(5, "inverse-semigroup equivalence",
               _suite_failures(results4, "inverse-semigroup-equivalence") == 0)


def test_06_unit_regular_element_equivalence(results4):
    fails = _suite_failures(results4, "unit-regular-element-equivalence",
                            "unit-inverse-construction")
    _criterion(6, "unit-regular element equivalence", fails == 0)


def test_07_unit_regular_semigroup_equivalence(results4):
    _criterion(7, "unit-regular semigroup equivalence",
               _suite_failures(results4, "unit-regular-semigroup-equivalence") == 0)


def test_08_greens_relations(results4):
    agreement, _ = results4["greens-mode-agreement"]
    pair_checks = sum(r.checks for r in agreement.records)
    capped = sum(r.capped for r in agreement.records)
    cap_fraction = capped / pair_checks if pair_checks else 0.0
    others = _suite_failures(results4, "greens-d-composition-commutes",
                             "greens-d-subset-j", "greens-tx-specialization")
    ok = agreement.failures == 0 and cap_fraction < 0.05 and others == 0
    _criterion(8, "Green's equivalences", ok,
               f"{pair_checks} relation checks, cap fraction {cap_fraction:.3f}")


def test_09_unit_set_identity(results4):
    _criterion(9, "unit-set identity",
               _suite_failures(results4, "unit-set-identity") == 0)


def test_10_counting(results4):
    _criterion(10, "counting", _suite_failures(results4, "element-counting") == 0)


def test_11_transversal_lemma(results4):
    _criterion(11, "transversal lemma",
               _suite_failures(results4, "transversal-lemma") == 0)


def test_untimed_report_is_pinned(run4):
    """The max_n=4 report with its timings removed, as a digest: the report
    ``partsem verify --max-n 4 --seed 7 --format machine`` prints."""
    report, _ = run4
    assert untimed_digest(report.to_machine_lines()) == (len(report.records), "e4eae713153abeca")


def test_timing_full_catalog_under_ten_minutes(run4):
    report, total = run4
    _criterion("T1", "full verification budget",
               total < 600.0 and report.failures == 0, f"{total:.1f}s for all suites")


def test_timing_small_catalog_under_thirty_seconds():
    started = time.perf_counter()
    report = run_all(build_catalog(3, seed=SEED))
    elapsed = time.perf_counter() - started
    _criterion("T2", "max_n=3 verification budget",
               report.failures == 0 and elapsed < 30.0, f"{elapsed:.1f}s")
