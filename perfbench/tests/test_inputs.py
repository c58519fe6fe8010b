"""Seeded inputs: verify-n3's catalog mix, and query-mix's one-sided J draws and audit."""

import run
from partsem.harness import build_catalog


def test_verify_n3_runs_hold_one_heavy_catalog_each():
    workload = run.WORKLOADS["verify-n3"]()
    for seed in (1, 2):
        seeds = [spec["seed"] for spec in workload.specs(seed, 1)]
        assert len(set(seeds)) == workload.repeats
        heavy = [run._is_heavy(build_catalog(3, s)) for s in seeds]
        assert heavy == [True] + [False] * (workload.repeats - 1)
        assert seeds == [spec["seed"] for spec in workload.specs(seed, 1)]


def test_leq_j_draws_skip_the_wrap_pairs_and_the_audit_holds_them():
    workload = run.QueryMix()
    spec = workload.spec(seed=3, seconds=1)
    leq_j = workload.kinds.index("leq.J")
    drawn = [(i, f, g) for i, k, f, g in spec["queries"] if k == leq_j]
    assert len(drawn) == workload.rounds * len(workload.labels)
    assert not any(workload.refs[i].j_wrap[f, g] for i, f, g in drawn)
    assert len(spec["audit"]) == workload.audit_per_instance * len(workload.labels)
    assert all(workload.refs[i].j_wrap[f, g] for i, f, g in spec["audit"])
    assert spec == run.QueryMix().spec(seed=3, seconds=1)


def test_audit_counts_the_known_answer_and_checks_any_other():
    workload = run.QueryMix()
    workload.spec(seed=3, seconds=1)
    (i, f, g), *rest = workload.audit
    ref = workload.refs[i]
    factors = None
    for h1 in range(ref.size):
        for h2 in range(ref.size):
            if ref.product(h1, g, h2) == f:
                factors = [list(ref.members[h1]), list(ref.members[h2])]
                break
        if factors:
            break
    checks = run.Checks()
    workload.check_audit([["ok", factors]] + [["ok", None]] * len(rest), checks)
    assert workload.known_wrong == len(rest)
    assert (checks.attempted, checks.failed) == (1, 0)
    checks = run.Checks()
    not_a_member = [ref.n] * ref.n
    workload.check_audit([["ok", [not_a_member] * 2], ["error:ValueError: x", None]]
                         + [["ok", None]] * (len(rest) - 1), checks)
    assert checks.failed == 2


def test_query_f_covers_each_d_class_in_proportion():
    workload = run.QueryMix()
    spec = workload.spec(seed=5, seconds=1)
    ref = workload.refs[2]
    rounds = 100
    fs = [f for i, k, f, _ in spec["queries"][: rounds * workload.per_round] if (i, k) == (2, 0)]
    assert len(fs) == rounds
    for members in ref.d_classes.values():
        share = sum(ref.d_label[f] == ref.d_label[members[0]] for f in fs) / rounds
        assert abs(share - len(members) / ref.size) < 0.03
