"""Call tracing for the per-layer metrics, installed from outside the program.

``Tracer.install`` replaces every public function of each partsem layer
module at every import site (the defining module, every module that imported
it by name, and the package namespace), plus a few constructors and private
entry points that cross layers.  ``uninstall`` puts every original binding
back.

Each wrapped call pushes a frame, so a call's self time is its duration minus
the time of the wrapped calls it made.  Calls to hot leaf functions are folded
into per-function counts and totals; every other call is also kept as a span
(parent span id, function, start, duration) up to a fixed cap, and the spans
are written out when the run ends.  Times come from ``SPEED.clock``, which
stops while the speed kernel runs.

Route categories (oracle, criterion, witness build, ...) are disjoint: a
categorized call owns its duration minus the categorized calls nested in it,
and uncategorized callees count toward their nearest categorized caller.
"""

from __future__ import annotations

import inspect
import statistics
import sys
from array import array

import numpy as np

from speed import SPEED

LAYERS = (
    "finite_maps",
    "partition_action",
    "ensemble",
    "regularity",
    "unit_regularity",
    "greens",
    "harness",
    "cli",
)

# Private callables that other layers reach, or that mark a metric boundary.
EXTRA_FUNCTIONS = {"greens": ("_greens_data",)}
EXTRA_METHODS = {
    "finite_maps": (("FiniteMap", "__init__"),),
    "ensemble": (("IndexSemigroup", "__init__"),),
    "greens": (("_GreensData", "__init__"),),
    "harness": (("Report", "to_machine_lines"), ("Report", "to_text")),
}

# Functions split into one key per value of an argument.
SPLIT_ARGUMENT = {
    "regularity.is_regular_semigroup": "mode",
    "regularity.is_inverse_semigroup": "mode",
    "unit_regularity.is_unit_regular_semigroup": "mode",
    "greens.l_related": "mode",
    "greens.r_related": "mode",
    "greens.d_related": "mode",
    "greens.j_related": "mode",
    "greens.principal_leq_oracle": "rel",
}

HOT_LAYERS = ("finite_maps", "partition_action")
HOT_FUNCTIONS = {
    "ensemble.require_member",
    "ensemble.is_member",
    "ensemble.member_index",
    "ensemble.enumerate_elements",
    "ensemble.predicted_size",
    "greens._greens_data",
}

CATEGORIES = {
    "ensemble.enumerate_elements": "ensemble.enumerate",
    "ensemble.predicted_size": "ensemble.enumerate",
    "ensemble.units": "ensemble.units",
    "ensemble.index_units": "ensemble.units",
    "ensemble.index_idempotents": "ensemble.units",
    "ensemble.require_member": "ensemble.require_member",
    "ensemble.is_member": "ensemble.require_member",
    "ensemble.member_index": "ensemble.require_member",
    "ensemble.IndexSemigroup.__init__": "ensemble.index_semigroup",
    "ensemble.closure_from_generators": "ensemble.index_semigroup",
    "regularity.is_regular_oracle": "regularity.oracle",
    "regularity.idempotents": "regularity.oracle",
    "regularity.is_regular_semigroup[oracle]": "regularity.oracle",
    "regularity.is_inverse_semigroup[oracle]": "regularity.oracle",
    "regularity.regular_character_witnesses": "regularity.criterion",
    "regularity.is_idempotent_characterized": "regularity.criterion",
    "regularity.is_regular_semigroup[theorem]": "regularity.criterion",
    "regularity.is_inverse_semigroup[theorem]": "regularity.criterion",
    "regularity.si_is_regular": "regularity.criterion",
    "regularity.si_is_inverse": "regularity.criterion",
    "regularity.build_inner_inverse": "regularity.witness_build",
    "unit_regularity.is_unit_regular_oracle": "unit_regularity.oracle",
    "unit_regularity.is_unit_regular_semigroup[oracle]": "unit_regularity.oracle",
    "unit_regularity.unit_regular_witnesses": "unit_regularity.criterion",
    "unit_regularity.is_unit_regular_semigroup[theorem]": "unit_regularity.criterion",
    "unit_regularity.fg_image_is_kernel_transversal": "unit_regularity.criterion",
    "unit_regularity.make_c_neq_d_map": "unit_regularity.criterion",
    "unit_regularity.build_unit_inverse": "unit_regularity.witness_build",
    "greens._GreensData.__init__": "greens.preorder_build",
    "greens.principal_leq_oracle[L]": "greens.oracle",
    "greens.principal_leq_oracle[R]": "greens.oracle",
    "greens.principal_leq_oracle[J]": "greens.oracle",
    "greens.txp_green": "greens.criterion",
    "greens.full_tx_green": "greens.criterion",
    "greens.build_left_factor": "greens.witness_build",
    "greens.build_right_factor": "greens.witness_build",
    "greens.build_d_middle": "greens.witness_build",
    "greens.build_j_factors": "greens.witness_build",
    "greens.verify_witness": "greens.replay",
    "greens.eggbox": "greens.eggbox",
}
for _rel in "lrdj":
    CATEGORIES[f"greens.{_rel}_related[oracle]"] = "greens.oracle"
    CATEGORIES[f"greens.{_rel}_related[theorem]"] = "greens.criterion"

RELATION_FUNCTIONS = tuple(f"greens.{r}_related" for r in "lrdj")

SPAN_CAP = 300_000


class _Stats:
    """Aggregates of one key: calls, inclusive and self seconds, results."""

    __slots__ = ("calls", "total", "self_time", "not_none", "errors", "durations")

    def __init__(self, keep_durations: bool) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.not_none = 0
        self.errors: dict[str, int] = {}
        self.durations = array("d") if keep_durations else None


class Tracer:
    """Wraps partsem's layer functions between ``install`` and ``uninstall``."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stats] = {}
        self.category_time: dict[str, float] = {}
        self.span_keys: list[str] = []
        self._span_key_ids: dict[str, int] = {}
        self.span_parent = array("i")
        self.span_key = array("i")
        self.span_start = array("d")
        self.span_duration = array("d")
        self.spans_dropped = 0
        self._restore: list[tuple[object, str, object, bool]] = []
        self._stack: list[list] = []
        self._origin = 0.0

    # -- installation -------------------------------------------------------

    def _targets(self, modules: dict[str, object]) -> dict[int, tuple[object, str]]:
        """id(original) -> (original, key) for every public layer function."""
        targets: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            mod = modules[layer]
            names = [n for n in vars(mod) if not n.startswith("_")]
            names += list(EXTRA_FUNCTIONS.get(layer, ()))
            for name in names:
                obj = getattr(mod, name)
                if inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                targets[id(obj)] = (obj, f"{layer}.{name}")
        return targets

    def install(self) -> "Tracer":
        import partsem

        modules = {layer: sys.modules[f"partsem.{layer}"] for layer in LAYERS}
        targets = self._targets(modules)
        wrappers = {
            ident: self._wrap(fn, key) for ident, (fn, key) in targets.items()
        }
        sites = [partsem] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith("partsem.")
        ]
        for mod in sites:
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and targets[id(value)][0] is value:
                    self._bind(mod, name, wrapper, value)
        for layer, methods in EXTRA_METHODS.items():
            for cls_name, attr in methods:
                cls = getattr(modules[layer], cls_name)
                original = cls.__dict__[attr]
                key = f"{layer}.{cls_name}.{attr}"
                self._bind(cls, attr, self._wrap(original, key), original)
        suites = modules["harness"].SUITES
        for name, fn in list(suites.items()):
            wrapper = self._wrap(fn, f"harness.suite.{name}")
            self._restore.append((suites, name, fn, True))
            suites[name] = wrapper
        self._stack[:] = [[0.0, 0.0, -1]]
        self._origin = SPEED.clock()
        return self

    def _bind(self, owner, name: str, wrapper, original) -> None:
        self._restore.append((owner, name, original, False))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, is_dict in reversed(self._restore):
            if is_dict:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore.clear()

    # -- wrappers -------------------------------------------------------------

    def _stats_for(self, key: str) -> _Stats:
        stats = self.stats.get(key)
        if stats is None:
            keep = key.startswith(RELATION_FUNCTIONS) or key.startswith(
                "greens.principal_leq_oracle"
            )
            stats = self.stats[key] = _Stats(keep)
        return stats

    def _span_key_id(self, key: str) -> int:
        ident = self._span_key_ids.get(key)
        if ident is None:
            ident = self._span_key_ids[key] = len(self.span_keys)
            self.span_keys.append(key)
        return ident

    def _wrap(self, fn, key: str):
        layer = key.split(".", 1)[0]
        hot = layer in HOT_LAYERS or key in HOT_FUNCTIONS
        split = SPLIT_ARGUMENT.get(key)
        resolve = None
        if split is not None:
            params = list(inspect.signature(fn).parameters.values())
            names = [p.name for p in params]
            position = names.index(split)
            default = params[position].default

            def resolve(args, kwargs, _k=key, _p=position, _n=split, _d=default):
                if len(args) > _p:
                    value = args[_p]
                else:
                    value = kwargs.get(_n, _d)
                return f"{_k}[{value}]"

        stack = self._stack
        clock = SPEED.clock
        stats_for = self._stats_for
        category_time = self.category_time
        categories = CATEGORIES
        tracer = self

        def wrapper(*args, **kwargs):
            k = key if resolve is None else resolve(args, kwargs)
            parent = stack[-1]
            if hot:
                span = -1
                frame = [0.0, 0.0, parent[2]]
            else:
                span = tracer._open_span(k, parent[2])
                frame = [0.0, 0.0, span if span >= 0 else parent[2]]
            stack.append(frame)
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                d = clock() - t0
                stack.pop()
                stats = stats_for(k)
                stats.calls += 1
                stats.total += d
                stats.self_time += d - frame[0]
                if stats.durations is not None:
                    stats.durations.append(d)
                if error is not None:
                    stats.errors[error] = stats.errors.get(error, 0) + 1
                elif result is not None:
                    stats.not_none += 1
                parent[0] += d
                category = categories.get(k)
                if category is None:
                    parent[1] += frame[1]
                else:
                    parent[1] += d
                    category_time[category] = category_time.get(category, 0.0) + d - frame[1]
                if span >= 0:
                    tracer.span_duration[span] = d

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _open_span(self, key: str, parent: int) -> int:
        if len(self.span_key) >= SPAN_CAP:
            self.spans_dropped += 1
            return -1
        self.span_parent.append(parent)
        self.span_key.append(self._span_key_id(key))
        self.span_start.append(SPEED.clock() - self._origin)
        self.span_duration.append(0.0)
        return len(self.span_key) - 1

    # -- results --------------------------------------------------------------

    def top_level_seconds(self) -> float:
        """Time spent inside wrapped calls made directly by untraced code."""
        return self._stack[0][0]

    def layer_self_seconds(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, stats in self.stats.items():
            out[key.split(".", 1)[0]] += stats.self_time
        return out

    def calls(self, key: str) -> int:
        stats = self.stats.get(key)
        return stats.calls if stats else 0

    def median_ms(self, key: str) -> float:
        stats = self.stats.get(key)
        if stats is None or not stats.durations:
            return 0.0
        return statistics.median(stats.durations) * 1000.0

    def errors(self, name: str, prefix: str = "") -> int:
        return sum(
            s.errors.get(name, 0) for k, s in self.stats.items() if k.startswith(prefix)
        )

    def write_spans(self, path) -> None:
        np.savez_compressed(
            path,
            keys=np.array(self.span_keys, dtype=str),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            key=np.frombuffer(self.span_key, dtype=np.int32),
            start_s=np.frombuffer(self.span_start, dtype=np.float64),
            duration_s=np.frombuffer(self.span_duration, dtype=np.float64),
        )
