"""partsem benchmark: one command, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0

Every measured run happens in a fresh interpreter (``child.py``) whose
environment pins BLAS/OpenMP to one thread, so partsem's module-level caches
start empty.  This process generates the inputs from the seed, builds the
independent reference tables (``reference.py``, no partsem import) and
checks every answer the child returns.  The last line of standard output is
one JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics
from a traced child (plus an untraced twin for the overhead) with
``--trace 1``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 175
GOLDEN = (5**0.5 - 1) / 2

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class ChildFailed(RuntimeError):
    pass


def reference_s(result: dict, start: float, end: float) -> float:
    """A child's clock interval in reference seconds (see speed.py)."""
    from speed import reference_seconds

    return reference_seconds(result["speed"]["at"], result["speed"]["took"], start, end)


def run_child(spec: dict) -> tuple[float, dict | None]:
    """Run child.py on a spec; returns (set-up time, result).

    The set-up time runs from spawning the child until it reports ready, less
    the child's speed kernel, in reference seconds.  Lines the child streams
    between ``ready`` and its result are parsed into ``result["stream"]``.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=env, text=True,
    )
    try:
        proc.stdin.write(json.dumps(spec))
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.wait()
        if not ready.startswith("ready ") or proc.returncode != 0:
            raise ChildFailed(f"child exited with {proc.returncode}: {err.strip()[-2000:]}")
        speed = json.loads(ready[len("ready "):])
        setup_s = (setup_s - speed["kernel_s"]) * speed["speed_factor"]
        if spec.get("setup_only"):
            return setup_s, None
        *stream, last = out.splitlines()
        result = json.loads(last)
        result["stream"] = [json.loads(line) for line in stream]
        return setup_s, result
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated between the nearest samples
    (verify-n4 has only one)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Checks:
    """Counts attempted checks and collects wrong answers per operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.capped = 0
        self.wrong: Counter = Counter()
        self.examples: dict[str, str] = {}

    def expect(self, op: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.wrong[op] += 1
            self.examples.setdefault(op, detail)

    def tally(self, op: str, attempted: int, wrong: int, detail: str) -> None:
        self.attempted += attempted
        if wrong:
            self.wrong[op] += wrong
            self.examples.setdefault(op, detail)

    @property
    def failed(self) -> int:
        return sum(self.wrong.values())

    def lines(self) -> list[str]:
        out = [f"checks: {self.attempted} attempted, {self.failed} wrong, {self.capped} capped"]
        for op, count in sorted(self.wrong.items()):
            out.append(f"  WRONG {op}: {count} (first: {self.examples[op]})")
        return out


# --- workloads -------------------------------------------------------------------


class Workload:
    """Defaults shared by the workloads; each sets ``kind`` (the child's workload)."""

    kind = ""
    setup_runs = 2  # extra set-up-only children per run
    limit_s = RUN_LIMIT_S
    labels: tuple[str, ...] = ()

    def instances(self) -> list[dict]:
        """Build the reference for each instance; return the child's instance specs."""
        from reference import Reference, full_index_set, parse_label

        self.refs, specs = [], []
        for label in self.labels:
            blocks, _ = parse_label(label)
            self.refs.append(Reference(blocks, full_index_set(len(blocks))))
            specs.append({"label": label, "blocks": blocks})
        return specs

    def specs(self, seed: int, seconds: int) -> list[dict]:
        """The spec of each measured child of one run."""
        return [self.spec(seed, seconds)]

    def layer_extras(self, result: dict) -> dict[str, float]:
        return {}

    def same_work(self, twin: dict) -> dict:
        """Spec additions that make a traced child repeat its untraced twin's work."""
        return {}


class Verify(Workload):
    """``partsem verify --max-n N --seed <s> --format machine`` via run_command,
    on ``repeats`` catalogs.

    Without ``heavy`` the catalog seeds are s = seed * repeats + j for j below
    repeats.  With it, each run holds exactly ``heavy`` catalogs with a large
    random index semigroup (see ``_is_heavy``) and ``repeats - heavy``
    without, drawn from the run's seed in that order.
    """

    kind = "verify"
    max_draws = 400

    def __init__(self, max_n: int, repeats: int, setup_runs: int, limit_s: int,
                 heavy: int | None = None) -> None:
        self.max_n = max_n
        self.repeats = repeats
        self.setup_runs = setup_runs
        self.limit_s = limit_s
        self.heavy = heavy

    def specs(self, seed: int, seconds: int) -> list[dict]:
        # The catalog changes with the seed, and so do the record latencies;
        # pooling several catalogs evens that out.
        if self.heavy is None:
            seeds = [seed * self.repeats + j for j in range(self.repeats)]
        else:
            seeds = self.stratified_seeds(seed)
        return [{"kind": self.kind, "max_n": self.max_n, "seed": s} for s in seeds]

    def stratified_seeds(self, seed: int) -> list[int]:
        """About one 3-point catalog in eleven has a random index semigroup of
        24 maps (every other has at most 13) and takes 25 % longer to verify.
        Drawn freely, a run of five had none or one or two of them, which
        made the slowest of five bimodal across seeds; a fixed share per
        run keeps that draw out of the spread."""
        sys.path.insert(0, str(ROOT / "src"))
        from partsem.harness import build_catalog

        rng = random.Random(seed)
        heavy, light = [], []
        for _ in range(self.max_draws):
            s = rng.randrange(1 << 30)
            (heavy if _is_heavy(build_catalog(self.max_n, s)) else light).append(s)
            if len(heavy) >= self.heavy and len(light) >= self.repeats - self.heavy:
                break
        seeds = heavy[: self.heavy] + light[: self.repeats - self.heavy]
        rest = heavy[self.heavy:] + light[self.repeats - self.heavy:]
        return seeds + rest[: self.repeats - len(seeds)]

    def check(self, result: dict, checks: Checks) -> list[str]:
        checks.capped += result["capped"]
        checks.expect("verify.exit_code", result["exit_code"] == 0, str(result["exit_code"]))
        checks.tally("verify.record", result["records"], result["failed_records"],
                     "failed suite records; rerun `partsem verify` to see them")
        return [
            f"verify --max-n {self.max_n} --seed {result['seed']}: {result['records']} records, "
            f"{result['checks']} checks, {result['suites']} suites, "
            f"{result['failed_records']} failed records, {result['capped']} capped, untimed digest sha256:{result['digest'][:16]}, "
            f"wall {reference_s(result, *result['span']):.3f} s"
        ]

    def metrics(self, results: list[dict]) -> dict[str, float]:
        walls = [reference_s(r, *r["span"]) for r in results]
        # The operation is one verify command.  The harness's own per-record
        # and per-suite times swing by 20 % between runs of one catalog here,
        # in a way the speed kernel does not follow, so they are not used.
        millis = [wall * 1000.0 for wall in walls]
        return {
            "wall_s": statistics.fmean(walls),
            "op_p50_ms": statistics.median(millis),
            "op_p95_ms": percentile(millis, 95),
            "samples": len(millis),
            "throughput": f"{sum(r['checks'] for r in results) / sum(walls):.1f} "
                          "harness checks per second of verify wall",
        }

    def layer_extras(self, result: dict) -> dict[str, float]:
        return {"harness.checks": result["checks"], "harness.records": result["records"]}


def _is_heavy(catalog) -> bool:
    """Whether a catalog holds a random index semigroup of at least 20 maps."""
    return any(e.si_label.startswith("rand") and len(e.instance.si.elements) >= 20
               for e in catalog.entries)


class QueryMix(Workload):
    """Closed loop, one client, over the library calls behind ``greens`` and
    ``check-element`` on three fixed instances."""

    kind = "query"
    labels = ("n4:[0][1][2][3]/full", "n4:[0,1,2,3]/full", "n5:[0,1][2,3][4]/full")
    kinds = tuple(
        [f"greens.{r}.{m}" for r in "LRDJ" for m in ("oracle", "theorem")]
        + [f"leq.{r}" for r in "LRJ"]
        + ["element.regular", "element.unit", "element.idempotent"]
    )
    rounds = 800  # more than a fast machine finishes in the run time
    per_round = len(labels) * len(kinds)
    audit_per_instance = 8

    def spec(self, seed: int, seconds: int) -> dict:
        """Seeded query rounds, plus the untimed audit of the known defect.

        One-sided J is wrong on the pairs ``Reference.j_wrap`` predicts
        (ROADMAP item 1).  The timed ``leq.J`` draws skip those pairs, so
        that a run's verdicts are all expected to be right; instead, every
        run asks one-sided J on a seeded sample of them after the timed loop
        and reports what it says.
        """
        instances = self.instances()
        rng = random.Random(seed)
        queries = []
        combos = [(i, k) for i in range(len(self.labels)) for k in range(len(self.kinds))]
        # A query's cost depends mostly on f's D-class, so f is not drawn
        # independently: per (instance, operation, draw) it walks the
        # members sorted by D-class along a golden-ratio sequence from a
        # seeded start, which covers every class in proportion to its size
        # in any number of rounds.  Independent draws left wall_s, a sum of
        # per-pair medians, spreading by 0.11 over ten seeds.
        by_class = [sorted(range(ref.size), key=lambda m, ref=ref: (int(ref.d_label[m]), m))
                    for ref in self.refs]
        starts = {(i, k, d): rng.random() for i, k in combos for d in (0, 1)}
        leq_j = self.kinds.index("leq.J")
        for r in range(self.rounds):
            rng.shuffle(combos)
            for i, k in combos:
                ref, members = self.refs[i], by_class[i]
                step = (starts[i, k, r % 2] + (r // 2) * GOLDEN) % 1.0
                f = members[int(step * ref.size)]
                while True:
                    if r % 2 == 0:
                        g = rng.randrange(ref.size)
                    else:
                        g = rng.choice(ref.d_classes[int(ref.d_label[f])])
                    if k != leq_j or not ref.j_wrap[f, g]:
                        break
                queries.append([i, k, f, g])
        self.queries = queries
        self.audit = []
        for i, ref in enumerate(self.refs):
            pairs = list(zip(*(axis.tolist() for axis in ref.j_wrap.nonzero())))
            for f, g in rng.sample(pairs, min(self.audit_per_instance, len(pairs))):
                self.audit.append([i, f, g])
        return {
            "kind": self.kind,
            "instances": instances,
            "kinds": list(self.kinds),
            "queries": queries,
            "audit": self.audit,
            "seconds": seconds,
        }

    def check(self, result: dict, checks: Checks) -> list[str]:
        for i, ref in enumerate(self.refs):
            label = self.labels[i]
            checks.expect("enumerate", [tuple(m) for m in result["members"][i]] == ref.members, label)
            errors = ref.eggbox_errors(result["eggbox"][i])
            checks.expect("eggbox", not errors, f"{label}: {errors[:3]}")
        answers = result["stream"]
        for (i, k, f, g), (_, _, status, answer) in zip(self.queries, answers):
            kind = self.kinds[k]
            where = f"{self.labels[i]} f={self.refs[i].members[f]} g={self.refs[i].members[g]}"
            if status == "capped":
                checks.capped += 1
                checks.attempted += 1
                continue
            if status != "ok":
                checks.expect(kind, False, f"{where}: {status}")
                continue
            _check_query(self.refs[i], kind, f, g, answer, checks, where)
        per_kind = Counter(self.kinds[k] for _, k, _, _ in self.queries[: len(answers)])
        return [
            f"query-mix: {len(answers)} queries in {len(answers) // self.per_round} "
            f"complete rounds; per op: "
            + ", ".join(f"{k}={per_kind[k]}" for k in self.kinds),
            self.check_audit(result["audit"], checks),
        ]

    def check_audit(self, audit: list, checks: Checks) -> str:
        """Count the audit pairs on which one-sided J gives the known wrong
        answer, "not below"; any other wrong answer fails like a query's."""
        self.known_wrong = 0
        example = ""
        for (i, f, g), (status, answer) in zip(self.audit, audit, strict=True):
            ref = self.refs[i]
            where = f"{self.labels[i]} f={ref.members[f]} g={ref.members[g]}"
            if status == "ok" and answer is None:
                self.known_wrong += 1
                example = example or where
            elif status == "capped":
                checks.capped += 1
                checks.attempted += 1
            elif status != "ok":
                checks.expect("leq.J.audit", False, f"{where}: {status}")
            else:
                _check_query(ref, "leq.J", f, g, answer, checks, where)
        predicted = ", ".join(f"{int(ref.j_wrap.sum())} on {label}"
                              for label, ref in zip(self.labels, self.refs))
        return (f"KNOWN DEFECT (ROADMAP item 1, uint8 J-preorder overflow): one-sided J "
                f"says 'not below' on {self.known_wrong} of {len(self.audit)} audited pairs "
                f"that are below (first: {example or 'none'}); the reference predicts such "
                f"pairs ({predicted}), and the timed leq.J draws skip them")

    def layer_extras(self, result: dict) -> dict[str, float]:
        return {"greens.leq_J_known_wrong": self.known_wrong}

    def metrics(self, results: list[dict]) -> dict[str, float]:
        (result,) = results
        lat = [reference_s(result, start, end) for start, end, _, _ in result["stream"]]
        by_combo: dict[tuple[int, int], list[float]] = {}
        for (i, k, _, _), took in zip(self.queries, lat):
            by_combo.setdefault((i, k), []).append(took)
        ms = [x * 1000.0 for x in lat]
        return {
            # One round holds every (instance, operation) pair once.  Medians,
            # because a few J searches cost up to 20 times their pair's median
            # and which of them a seed draws would move a mean by 10 %.
            "wall_s": sum(statistics.median(v) for v in by_combo.values()),
            "op_p50_ms": statistics.median(ms),
            "op_p95_ms": percentile(ms, 95),
            "samples": len(lat),
            "throughput": f"{len(lat) / sum(lat):.2f} queries per second of query time",
        }

    def same_work(self, twin: dict) -> dict:
        return {"max_queries": len(twin["stream"])}


def _check_query(ref, kind, f, g, answer, checks: Checks, where: str) -> None:
    table = ref.table
    if kind.startswith("greens."):
        rel = kind.split(".")[1]
        related, replayed = answer
        expected = bool(ref.rel[rel][f, g])
        checks.expect(kind, related == expected, f"{where}: said {related}, reference {expected}")
        if related:
            checks.expect(f"{kind}.replay", bool(replayed), f"{where}: witness does not replay")
    elif kind.startswith("leq."):
        rel = kind.split(".")[1]
        expected = bool(ref.below[rel][f, g])
        if answer is None:
            checks.expect(kind, not expected, f"{where}: said not below, reference below")
            return
        if rel == "J":
            h1, h2 = (ref.index(h) for h in answer)
            ok = min(h1, h2) >= 0 and ref.product(h1, g, h2) == f
        else:
            h = ref.index(answer)
            ok = h >= 0 and (table[h, g] if rel == "L" else table[g, h]) == f
        checks.expect(kind, ok, f"{where}: factors {answer} do not replay")
    elif kind == "element.idempotent":
        expected = bool(ref.idempotent[f])
        checks.expect(kind, answer == expected, f"{where}: said {answer}, reference {expected}")
    else:
        first, count, built = answer
        if kind == "element.regular":
            expected = bool(ref.regular[f])
            fits = (lambda images: ref.is_inner_inverse(f, ref.index(images)))
        else:
            expected = bool(ref.unit_regular[f])
            fits = (lambda images: ref.is_inner_inverse(f, ref.index(images))
                    and bool(ref.units[ref.index(images)]))
        checks.expect(f"{kind}.oracle", (first is not None) == expected,
                      f"{where}: oracle said {first}, reference {expected}")
        if first is not None:
            checks.expect(f"{kind}.oracle", fits(first), f"{where}: {first} is no inverse")
        checks.expect(f"{kind}.criterion", (count > 0) == expected,
                      f"{where}: {count} witnesses, reference {expected}")
        if count:
            checks.expect(f"{kind}.built", built is not None and fits(built),
                          f"{where}: built {built} is no inverse")


class Scale(Workload):
    """Whole-instance pipeline on the two largest 5-point instances short of T_5."""

    kind = "scale"
    labels = ("n5:[0,1][2][3][4]/full", "n5:[0,1,2,3][4]/full")

    def spec(self, seed: int, seconds: int) -> dict:
        instances = self.instances()
        rng = random.Random(seed)
        orders = []
        for ref in self.refs:
            order = list(range(ref.size))
            rng.shuffle(order)
            orders.append(order)
        return {
            "kind": self.kind,
            "instances": instances,
            "orders": orders,
        }

    def check(self, result: dict, checks: Checks) -> list[str]:
        lines = []
        for label, ref, res, times in zip(self.labels, self.refs, result["instances"], result["stages"]):
            checks.expect("enumerate", [tuple(m) for m in res["members"]] == ref.members, label)
            checks.expect("predicted_size", res["predicted_size"] == ref.size, label)
            unit_ids = {ref.index(u) for u in res["units"]}
            checks.expect("units", unit_ids == set(map(int, ref.units.nonzero()[0])), label)
            errors = ref.eggbox_errors(res["eggbox"])
            checks.expect("eggbox", not errors, f"{label}: {errors[:3]}")
            expected = {
                "regular": ref.is_regular_semigroup(),
                "inverse": ref.is_inverse_semigroup(),
                "unit-regular": ref.is_unit_regular_semigroup(),
            }
            for name, verdict in res["semigroup"].items():
                want = expected[name.split(".")[0]]
                checks.expect(f"semigroup.{name}", verdict == want,
                              f"{label}: said {verdict}, reference {want}")
            for k, inner, n_reg, unit, n_unit, idem, idem_c in res["elements"]:
                where = f"{label} f={ref.members[k]}"
                reg, ureg = bool(ref.regular[k]), bool(ref.unit_regular[k])
                checks.expect("regular.oracle", (inner is not None) == reg
                              and (inner is None or ref.is_inner_inverse(k, ref.index(inner))), where)
                checks.expect("regular.criterion", (n_reg > 0) == reg, where)
                checks.expect("unit_regular.oracle", (unit is not None) == ureg and (
                    unit is None or (ref.is_inner_inverse(k, ref.index(unit))
                                     and bool(ref.units[ref.index(unit)]))), where)
                checks.expect("unit_regular.criterion", (n_unit > 0) == ureg, where)
                checks.expect("idempotent.oracle", idem == bool(ref.idempotent[k]), where)
                checks.expect("idempotent.criterion", idem_c == bool(ref.idempotent[k]), where)
            names = ("enumerate", "units", "eggbox", "semigroup", "sweeps")
            stages = [reference_s(result, a, b) for a, b in zip(times, times[1:])]
            lines.append(f"scale-n5 {label} ({ref.size} members): "
                         + ", ".join(f"{n} {s:.3f} s" for n, s in zip(names, stages)))
        return lines

    def metrics(self, results: list[dict]) -> dict[str, float]:
        (result,) = results
        ms = [reference_s(result, start, end) * 1000.0 for start, end in result["ops"]]
        return {
            "wall_s": reference_s(result, *result["span"]),
            "op_p50_ms": statistics.median(ms),
            "op_p95_ms": percentile(ms, 95),
            "samples": len(ms),
            "throughput": f"{len(ms) / (sum(ms) / 1000.0):.1f} elements swept per second of sweep time",
        }


WORKLOADS = {
    "verify-n3": lambda: Verify(max_n=3, repeats=4, setup_runs=4, limit_s=RUN_LIMIT_S, heavy=1),
    "query-mix": QueryMix,
    "scale-n5": Scale,
    # The ROADMAP headline run: too slow (70-90 s on 2 cores) to repeat in
    # every benchmark run, so not listed in BENCHMARK.json, but measured and
    # checked the same way on request.
    "verify-n4": lambda: Verify(max_n=4, repeats=1, setup_runs=2, limit_s=900),
}


# --- runs ----------------------------------------------------------------------


def untraced(name: str, workload, seed: int, seconds: int) -> dict:
    specs = workload.specs(seed, seconds)
    setups = [run_child({**specs[0], "setup_only": True})[0] for _ in range(workload.setup_runs)]
    results = []
    for spec in specs:
        setup_s, result = run_child(spec)
        setups.append(setup_s)
        results.append(result)
    checks = Checks()
    for result in results:
        for line in workload.check(result, checks):
            print(line)
    values = workload.metrics(results)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
    print(f"{name} seed {seed}: set-up runs {', '.join(f'{s:.3f}' for s in setups)} s; "
          f"{values['samples']} timed operations; {values['throughput']}")
    for line in checks.lines():
        print(line)
    print(f"failed_frac {checks.failed / checks.attempted:.6f}, "
          f"capped_frac {checks.capped / checks.attempted:.6f}")
    return summary(checks, values, END_TO_END)


def traced(name: str, workload, seed: int, seconds: int) -> dict:
    from layers import PER_LAYER

    spec = workload.specs(seed, seconds)[0]
    _, twin = run_child(spec)
    spans_dir = ROOT / ".perfbench"
    spans_dir.mkdir(exist_ok=True)
    spans_path = f".perfbench/spans-{name}-seed{seed}.npz"
    _, result = run_child({**spec, **workload.same_work(twin), "trace": True,
                           "spans_path": spans_path})
    checks = Checks()
    for line in workload.check(result, checks):
        print(line)
    for line in checks.lines():
        print(line)
    values = dict.fromkeys((m for m, _, _ in PER_LAYER), 0)
    values.update(result["trace"])
    # Every time in reference seconds, at the mean speed of the traced region.
    start, end = result["region"]
    for metric, unit, _ in PER_LAYER:
        if unit in ("s", "ms"):
            values[metric] *= reference_s(result, start, end) / (end - start)
    values.update(workload.layer_extras(result))
    values["trace.untraced_wall_s"] = reference_s(twin, *twin["region"])
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["failed_frac"] = checks.failed / checks.attempted
    values["capped_frac"] = checks.capped / checks.attempted
    print(f"{name} seed {seed}: traced {values['trace.wall_s']:.3f} s, untraced "
          f"{values['trace.untraced_wall_s']:.3f} s; the layers' self times cover all but "
          f"{values['bench.self_s']:.3f} s ({bench_share(values):.2%}) of the traced wall, "
          f"which is the benchmark's own code; {values['trace.spans']} spans in {spans_path} "
          f"({result['spans_dropped']} more over the cap, counted but not kept)")
    return summary(checks, values, [(name, unit) for name, unit, _ in PER_LAYER])


def bench_share(values: dict) -> float:
    """The share of the traced wall time spent outside every wrapped call."""
    return values["bench.self_s"] / values["trace.wall_s"]


def summary(checks: Checks, values: dict, names) -> dict:
    """Print each metric by name and unit; return the result object."""
    metrics = {}
    for metric, unit in names:
        metrics[metric] = {"value": values[metric], "unit": unit}
        print(f"{metric} = {values[metric]:.6g} {unit}")
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "partsem" / "__init__.py").is_file():
        print(f"error: no partsem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    def timeout(signum, frame):
        raise TimeoutError(f"run exceeded {workload.limit_s} s")

    signal.signal(signal.SIGALRM, timeout)
    signal.alarm(workload.limit_s)
    run = traced if args.trace else untraced
    try:
        summary = run(args.workload, workload, args.seed, args.seconds)
    except (ChildFailed, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
