"""Timing taken from outside the package.

Nothing under ``src/`` knows about this module.  It replaces functions of
the package with timing wrappers by rebinding every name that refers to
them, in every loaded ``choimetric`` module, and puts the originals back
afterwards.  ``experiments`` imports ``delta_distance``, ``prepare_ball`` and
``kasparov_product`` by name, so patching the defining module alone would
miss those calls.

``SolveTimer`` is the light wrapper of the untraced run: it times the three
solve entry points only, and runs the machine-speed probe between solves.  ``Tracer`` is the traced run: it wraps every public
function of every layer module and keeps, per wrapped function, the call
count, the total time and the self time (duration minus the wrapped
children inside it).  ``layer_metrics`` turns that into the named per-layer
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import defaultdict
from time import perf_counter

PACKAGE = "choimetric"

# Layers are the package's modules.  `cli` and `io` only parse arguments and
# write files; no workload reaches them.
LAYERS = ("sdp", "metrics", "geometry", "algebra", "channels", "groups",
          "experiments", "generate", "oracles")

SOLVE_ENTRY_POINTS = ("delta_distance", "mk_between", "wasserstein_dual")


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Patch:
    """Rebinds functions everywhere the package holds them, and undoes it.

    `functions` maps an original function to its replacement; every module
    attribute of the package that is that function is rebound.  `methods`
    is a list of (class, attribute, replacement).
    """

    def __init__(self, functions: dict, methods=()):
        self._by_id = {id(orig): (orig, new) for orig, new in functions.items()}
        self._methods = list(methods)
        self._undo = []

    def apply(self):
        if self._undo:
            raise RuntimeError("patch already applied")
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                hit = self._by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value, hit[1]))
        for cls, attr, new in self._methods:
            self._undo.append((cls, attr, vars(cls)[attr], new))
            setattr(cls, attr, new)
        return self

    def undo(self):
        """Restore the originals, except where something else has rebound
        the name since."""
        for owner, attr, original, new in reversed(self._undo):
            if getattr(owner, attr) is new:
                setattr(owner, attr, original)
        self._undo = []

    @property
    def originals(self):
        return [orig for orig, _ in self._by_id.values()]

    def __enter__(self):
        return self.apply()

    def __exit__(self, *exc):
        self.undo()


# ---------------------------------------------------------------------------
# untraced run: solve latencies only
# ---------------------------------------------------------------------------

class SolveTimer:
    """Start and end time and status of each call to a solve entry point.

    With a speed probe, the probe runs before a solve when it is due, outside
    the solve's timed span."""

    def __init__(self, metrics_module, probe=None):
        self.spans: list[tuple[float, float]] = []
        self.statuses: dict[str, int] = defaultdict(int)
        self._probe = probe
        self.patch = Patch({getattr(metrics_module, name):
                            self._wrap(getattr(metrics_module, name))
                            for name in SOLVE_ENTRY_POINTS})

    def _wrap(self, fn):
        spans, statuses, probe = self.spans, self.statuses, self._probe

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if probe is not None:
                probe.measure_if_due()
            status = "raised"
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                status = result.status
                return result
            finally:
                spans.append((t0, perf_counter()))
                statuses[status] += 1

        return timed


# ---------------------------------------------------------------------------
# traced run: every public function of every layer
# ---------------------------------------------------------------------------

def _observe_sdp(counters, args, result):
    b, blocks = args[0], args[1]
    m = len(b)
    sizes = [len(c) for c, _ in blocks]
    counters["sdp.iterations"] += result.iterations
    counters["sdp.block_rows"] += sum(sizes)
    # Schur build per iteration and block: L^H A_i L for m matrices (two
    # n x n complex products each) and the m x m Gram of the results;
    # 8 real flops per complex multiply-add.
    counters["sdp.schur_flops_computed"] += result.iterations * sum(
        8 * (2 * m * n ** 3 + m * m * n * n) for n in sizes)
    if result.status != "optimal":
        counters["sdp.nonoptimal"] += 1


def _observe_solve(counters, args, result):
    if result.status == "infinite":
        counters["metrics.solve.infinite"] += 1


def _observe_tensor_algebra(counters, args, result):
    mb = result.structure.nbytes / 1e6
    counters["algebra.structure_mb_max"] = max(
        counters["algebra.structure_mb_max"], mb)


OBSERVERS = {
    "sdp.solve_sdp": _observe_sdp,
    "metrics._maximize_linear": _observe_solve,
    "algebra.tensor_algebra": _observe_tensor_algebra,
}

# Private functions that are a layer's own stage and so get a span too.
EXTRA_SPANS = {"metrics": ("_maximize_linear",)}

SEMINORM_EVAL = "geometry.seminorm_eval"


class Tracer:
    """Call count, total time and self time per wrapped function."""

    def __init__(self, package):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)
        self._children: list[float] = []
        functions, methods = {}, []
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            names = [n for n in vars(mod) if not n.startswith("_")]
            names += EXTRA_SPANS.get(layer, ())
            for name in names:
                fn = vars(mod)[name]
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    key = f"{layer}.{name}"
                    functions[fn] = self._wrap(key, fn, OBSERVERS.get(key))
        geometry = importlib.import_module(f"{package.__name__}.geometry")
        for cls in vars(geometry).values():
            if (isinstance(cls, type) and issubclass(cls, geometry.Seminorm)
                    and "eval_coords" in vars(cls)):
                methods.append((cls, "eval_coords",
                                self._wrap(SEMINORM_EVAL, vars(cls)["eval_coords"])))
        self.patch = Patch(functions, methods)

    def _wrap(self, key, fn, observe=None):
        children = self._children
        calls, total_s, self_s, counters = (self.calls, self.total_s,
                                            self.self_s, self.counters)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = children.pop()
                if children:
                    children[-1] += dt
                calls[key] += 1
                total_s[key] += dt
                self_s[key] += dt - inner
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced


def _sum(table, keys):
    return sum(table.get(k, 0) for k in keys)


# (metric prefix, wrapped keys it sums); each gets `.calls` and `.self_s`
SPAN_GROUPS = (
    ("sdp.solve_sdp", ("sdp.solve_sdp",)),
    ("metrics.prepare_ball", ("metrics.prepare_ball",)),
    ("metrics.solve", ("metrics._maximize_linear",)),
    ("geometry.kasparov_product", ("geometry.kasparov_product",)),
    ("geometry.seminorm_eval", (SEMINORM_EVAL,)),
    ("algebra.tensor_algebra", ("algebra.tensor_algebra",)),
    ("channels.cp_tests", ("channels.is_completely_positive",
                           "channels.cp_oracle_npositivity")),
    ("channels.omega_tau", ("channels.omega_tau",)),
    ("groups.multiplier_channel", ("groups.multiplier_channel",)),
    ("groups.contraction_check", ("groups.multiplier_contraction_check",)),
    ("experiments.context", ("experiments.group_context",
                             "experiments.stability_context")),
)

COUNTERS = ("sdp.iterations", "sdp.block_rows", "sdp.schur_flops_computed",
            "sdp.nonoptimal", "metrics.solve.infinite", "algebra.structure_mb_max")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics, each as (value, unit)."""
    out = {}
    for prefix, keys in SPAN_GROUPS:
        out[f"{prefix}.calls"] = (_sum(tracer.calls, keys), "count")
        out[f"{prefix}.self_s"] = (_sum(tracer.self_s, keys), "s")
    generate_keys = [k for k in tracer.self_s if k.startswith("generate.")]
    out["generate.self_s"] = (_sum(tracer.self_s, generate_keys), "s")
    out["oracles.grid.self_s"] = (tracer.self_s.get("oracles.grid_ball_maximize", 0.0), "s")
    units = {"sdp.schur_flops_computed": "flop", "algebra.structure_mb_max": "MB"}
    for name in COUNTERS:
        out[name] = (tracer.counters.get(name, 0), units.get(name, "count"))
    iterations = tracer.counters.get("sdp.iterations", 0)
    solve_s = tracer.total_s.get("sdp.solve_sdp", 0.0)
    out["sdp.iter_ms"] = (1000.0 * solve_s / iterations if iterations else 0.0, "ms")
    return out
