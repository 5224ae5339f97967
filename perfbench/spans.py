"""Per-layer tracing of circlelab from outside the package.

Every public function of the eight layer modules is wrapped in a span, and
the wrapper is bound wherever a caller looks the function up: the modules
import each other's functions by name (``from .circlemap import
derivative``), so each module namespace holding the original object gets
the wrapper.  A few methods stand for operations of their own
(``AnalyticCircleMap.__post_init__`` is map construction, the
``LevelReal`` arithmetic is the level-index kernel) and are wrapped on
their class.  Spans nest on one stack: a span's self time is its duration
minus the durations of the spans it encloses.

Counters come from arguments and returned objects, and from two counting
wrappers around private helpers of ``rotation`` that carry no span, so the
scalar orbit loop runs with no per-step cost.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("rotation", "circlemap", "kam", "geometry", "arithmetic",
          "contfrac", "levelindex", "cli")

# methods wrapped on their class: (module, class, method, span name)
METHOD_SPANS = (
    ("circlemap", "AnalyticCircleMap", "__post_init__", "circlemap.map_construct"),
    ("contfrac", "ContinuedFraction", "convergent", "contfrac.convergent"),
    ("contfrac", "ContinuedFraction", "log_inverse_interval",
     "contfrac.log_inverse_interval"),
)
LEVELREAL_OPS = ("from_float", "to_float", "exp", "log", "add", "add_float",
                 "diff", "scale", "mul_exp_neg", "ratio_to", "nudge_up",
                 "is_zero", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")

# (name, unit, better) of every per-layer metric, in print order.  Counts
# and times are per completed operation of the timed phase.
PER_LAYER = (
    ("rotation.tune_parameter.self_s", "s", "lower"),
    ("rotation.tune_parameter.probes", "count", "lower"),
    ("rotation.rho_interval.calls", "count", "lower"),
    ("rotation.rho_interval.self_s", "s", "lower"),
    ("rotation.rotation_number_closest_return.calls", "count", "lower"),
    ("rotation.rotation_number_closest_return.self_s", "s", "lower"),
    ("rotation.orbit_steps", "count", "lower"),
    ("rotation.us_per_step", "us", "lower"),
    ("rotation.estimates", "count", "lower"),
    ("rotation.certified_share", "ratio", "higher"),
    ("circlemap.derivative.calls", "count", "lower"),
    ("circlemap.derivative.self_s", "s", "lower"),
    ("circlemap.derivative.mode_points", "count", "lower"),
    ("circlemap.derivative.ns_per_mode_point", "ns", "lower"),
    ("circlemap.derivative.bytes_computed", "bytes", "lower"),
    ("circlemap.inverse.calls", "count", "lower"),
    ("circlemap.inverse.self_s", "s", "lower"),
    ("circlemap.conjugate_project.self_s", "s", "lower"),
    ("circlemap.compose_project.self_s", "s", "lower"),
    ("circlemap.strip_norm.self_s", "s", "lower"),
    ("circlemap.log_derivative_variation.self_s", "s", "lower"),
    ("circlemap.map_construct.calls", "count", "lower"),
    ("circlemap.map_construct.self_s", "s", "lower"),
    ("kam.kam_iterate.self_s", "s", "lower"),
    ("kam.kam_step.calls", "count", "lower"),
    ("kam.kam_step.self_s", "s", "lower"),
    ("kam.solve_homological.self_s", "s", "lower"),
    ("kam.linearization_defect.self_s", "s", "lower"),
    ("kam.herman_average.self_s", "s", "lower"),
    ("geometry.geometry_report.self_s", "s", "lower"),
    ("geometry.build_partition.calls", "count", "lower"),
    ("geometry.build_partition.self_s", "s", "lower"),
    ("geometry.build_partition.grid_points", "count", "lower"),
    ("geometry.uncertified_levels", "count", "lower"),
    ("geometry.denjoy_checks.self_s", "s", "lower"),
    ("geometry.derivative_growth_check.self_s", "s", "lower"),
    ("geometry.beta_recursion_check.self_s", "s", "lower"),
    ("arithmetic.classify.self_s", "s", "lower"),
    ("arithmetic.diophantine_estimate.self_s", "s", "lower"),
    ("arithmetic.brjuno_sum.self_s", "s", "lower"),
    ("arithmetic.condition_h_check.self_s", "s", "lower"),
    ("arithmetic.brjuno_interval.calls", "count", "lower"),
    ("arithmetic.brjuno_interval.self_s", "s", "lower"),
    ("arithmetic.nondiverging", "count", "lower"),
    ("arithmetic.decided_share", "ratio", "higher"),
    ("contfrac.log_inverse_interval.calls", "count", "lower"),
    ("contfrac.log_inverse_interval.self_s", "s", "lower"),
    ("contfrac.convergent.self_s", "s", "lower"),
    ("levelindex.ops", "count", "lower"),
    ("levelindex.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.tongue_cell.calls", "count", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
)


class Tracer:
    """Span statistics keyed by name: [calls, total seconds, self seconds]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[float] = []

    def reset(self):
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.counts.clear()

    @contextlib.contextmanager
    def paused(self):
        """Leave the statistics as they were for the duration of the block."""
        stats = {k: list(v) for k, v in self.stats.items()}
        counts = dict(self.counts)
        try:
            yield
        finally:
            for k, v in stats.items():
                self.stats[k][:] = v
            self.counts.clear()
            self.counts.update(counts)

    def span(self, name, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result, exc) runs on exit."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = exc = None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if after is not None:
                    after(args, kwargs, result, exc)
        return wrapper

    @staticmethod
    def counter(fn, after):
        """fn with after(args, kwargs, result, exc) run on exit, no span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                after(args, kwargs, result, exc)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap circlelab's layer functions in every namespace that binds them."""
        mods = {layer: importlib.import_module(f"circlelab.{layer}")
                for layer in LAYERS}
        hooks = self._hooks()
        replace = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    key = f"{layer}.{name}"
                    replace[obj] = self.span(key, obj, hooks.get(key))
        rot, cli = mods["rotation"], mods["cli"]
        replace[rot._scan_returns] = self.counter(rot._scan_returns,
                                                  self._count_steps)
        replace[rot._probe] = self.counter(rot._probe, self._count_probe)
        replace[cli._tongue_cell] = self.span("cli.tongue_cell", cli._tongue_cell)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "circlelab" or n.startswith("circlelab.")]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(ns, name, replace[obj])
        for layer, cls_name, meth, key in METHOD_SPANS:
            cls = getattr(mods[layer], cls_name)
            setattr(cls, meth, self.span(key, getattr(cls, meth)))
        level_real = mods["levelindex"].LevelReal
        for meth in LEVELREAL_OPS:
            raw = level_real.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span(f"levelindex.{meth}", raw.__func__))
            else:
                wrapped = self.span(f"levelindex.{meth}", raw)
            setattr(level_real, meth, wrapped)

    def _hooks(self):
        counts = self.counts

        def derivative(args, kwargs, result, exc):
            f = args[0]
            x = args[1] if len(args) > 1 else kwargs["x"]
            mp = f.degree * int(np.size(x))
            counts["derivative.mode_points"] += mp
            counts["derivative.bytes"] += 16 * mp  # complex128 phase matrix

        def estimate(args, kwargs, result, exc):
            if result is not None:
                counts["rotation.estimates"] += 1
                counts["rotation.certified"] += result.method == "closest_return"

        def partition(args, kwargs, result, exc):
            if result is not None:
                counts["geometry.grid_points"] += result.grid.size
                counts["geometry.uncertified"] += not result.certified

        def classify(args, kwargs, result, exc):
            if result is not None and not result.brjuno.diverging:
                counts["arithmetic.nondiverging"] += 1
                h = result.condition_h
                counts["arithmetic.decided"] += (
                    h is not None and h.kind in ("pass_to_depth", "fail_at"))

        return {"circlemap.derivative": derivative,
                "rotation.rho_interval": estimate,
                "rotation.rotation_number_closest_return": estimate,
                "geometry.build_partition": partition,
                "arithmetic.classify": classify}

    def _count_probe(self, args, kwargs, result, exc):
        self.counts["rotation.probes"] += 1

    def _count_steps(self, args, kwargs, result, exc):
        """Scalar orbit steps one return scan walked, read off its outcome:
        the scan stops at a recorded return that satisfies its stop rule, at
        a detected periodic orbit, or at the orbit cap / stall guard."""
        f, _, n_max, stop = args[:4]
        stall_factor = args[5] if len(args) > 5 else kwargs.get("stall_factor")
        if f.degree == 0:
            return  # rotations take the vectorized branch, no scalar steps
        if exc is not None:
            steps = getattr(exc, "q", 0)
        elif result.returns and stop(result):
            steps = result.returns[-1].q
        else:
            q_last = result.returns[-1].q if result.returns else 1
            steps = n_max if stall_factor is None else min(
                n_max, stall_factor * q_last + 4096)
        self.counts["rotation.orbit_steps"] += steps

    # -- report --------------------------------------------------------------

    def metrics(self, ops: int, output_bytes: int) -> dict:
        """Every PER_LAYER metric, per completed operation."""
        st = self.stats
        c = self.counts
        per = 1.0 / max(ops, 1)

        def calls(name):
            return st.get(name, [0])[0]

        def self_s(name):
            return st.get(name, [0, 0.0, 0.0])[2]

        def layer_self(layer):
            return sum(v[2] for k, v in st.items() if k.startswith(layer + "."))

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "rotation.tune_parameter.probes": c["rotation.probes"] * per,
            "rotation.orbit_steps": c["rotation.orbit_steps"] * per,
            "rotation.us_per_step": 1e6 * ratio(layer_self("rotation"),
                                                c["rotation.orbit_steps"]),
            "rotation.estimates": c["rotation.estimates"] * per,
            "rotation.certified_share": ratio(c["rotation.certified"],
                                              c["rotation.estimates"]),
            "circlemap.derivative.mode_points": c["derivative.mode_points"] * per,
            "circlemap.derivative.ns_per_mode_point": 1e9 * ratio(
                self_s("circlemap.derivative"), c["derivative.mode_points"]),
            "circlemap.derivative.bytes_computed": c["derivative.bytes"] * per,
            "geometry.build_partition.grid_points": c["geometry.grid_points"] * per,
            "geometry.uncertified_levels": c["geometry.uncertified"] * per,
            "arithmetic.nondiverging": c["arithmetic.nondiverging"] * per,
            "arithmetic.decided_share": ratio(c["arithmetic.decided"],
                                              c["arithmetic.nondiverging"]),
            "levelindex.ops": sum(v[0] for k, v in st.items()
                                  if k.startswith("levelindex.")) * per,
            "levelindex.self_s": layer_self("levelindex") * per,
            "cli.output_bytes": output_bytes * per,
        }
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in values:
                v = values[name]
            elif name.endswith(".calls"):
                v = calls(name[:-len(".calls")]) * per
            else:
                v = self_s(name[:-len(".self_s")]) * per
            out[name] = {"value": v, "unit": unit}
        return out

    def totals(self) -> dict:
        """Total seconds per span name."""
        return {k: v[1] for k, v in self.stats.items()}

    def table(self) -> list:
        """Raw span statistics, busiest first, for the run record."""
        rows = [(k, v[0], v[1], v[2]) for k, v in self.stats.items() if v[0]]
        return sorted(rows, key=lambda r: -r[3])
