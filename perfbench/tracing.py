"""Per-layer spans for toepcond, attached from outside the package.

`attach` wraps every public function defined in a layer module (plus the
few private functions whose calls the per-layer metrics count) and puts
the wrapper under every name in the package that refers to the original:
`bounds` imports `reciprocal_series` by name, so the wrapper must replace
`bounds.reciprocal_series` as well as `core.reciprocal_series`.

Spans are aggregated as they close instead of being kept as a list, so
the memory cost does not grow with the call count. A span's layer self
time is its duration minus the time covered by spans of *other* layers
nested under it; nested calls within the same layer count as self time,
so `cli.main.self_s` is all the time the CLI spends outside the library.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter

LAYERS = ("cli", "bounds", "core", "blaschke", "model", "linalg")

# private functions traced because the metrics count their calls
PRIVATE = {"linalg": ("_power_hermitian",), "bounds": ("_objective",)}


class Tracer:
    """Aggregates nested spans: calls, total time and layer self time per name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._open = []  # [name, layer, start, time in other layers' spans]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.sizes: dict[tuple, list] = {}  # (name, n) -> per-call seconds
        self.counts: Counter = Counter()

    def enter(self, name: str) -> None:
        self._open.append([name, name.split(".", 1)[0], self.clock(), 0.0])

    def exit(self) -> float:
        name, layer, start, foreign = self._open.pop()
        duration = self.clock() - start
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - foreign
        if self._open:
            parent = self._open[-1]
            # a same-layer parent inherits only the other-layer time below us
            parent[3] += duration if parent[1] != layer else foreign
        return duration


def _record_size(tracer: Tracer, name: str, args, duration: float) -> None:
    tracer.sizes.setdefault((name, len(args[0])), []).append(duration)


def _observe_spectral(tracer: Tracer, args, result, exc, duration: float) -> None:
    _record_size(tracer, "linalg.spectral_norm", args, duration)


def _observe_inverse(tracer: Tracer, args, result, exc, duration: float) -> None:
    _record_size(tracer, "linalg.inverse_norm", args, duration)
    if type(exc).__name__ == "SingularMatrixError":
        tracer.counts["linalg.inverse_norm.singular"] += 1


def _observe_power(tracer: Tracer, args, result, exc, duration: float) -> None:
    # _power_hermitian returns (eigenvalue, vector, steps) or raises
    # PowerIterationError at its step cap
    if exc is None:
        tracer.counts["linalg.power_steps"] += result[2]
    elif type(exc).__name__ == "PowerIterationError":
        tracer.counts["linalg.power_steps"] += exc.iterations
        tracer.counts["linalg.power_caps"] += 1


def _observe_quadrature(tracer: Tracer, args, result, exc, duration: float) -> None:
    # one round of model_operator's doubling loop: n basis functions at m points
    tracer.counts["model.quadrature_rounds"] += 1
    tracer.counts["model.samples"] += len(args[0]) * int(args[1])


OBSERVERS = {
    "linalg.spectral_norm": _observe_spectral,
    "linalg.inverse_norm": _observe_inverse,
    "linalg._power_hermitian": _observe_power,
    "model.malmquist_walsh_samples": _observe_quadrature,
}


def _wrap(tracer: Tracer, name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        result, exc = None, None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            duration = tracer.exit()
            if observe is not None:
                observe(tracer, args, result, exc, duration)

    return traced


def attach(tracer: Tracer, package: str = "toepcond") -> None:
    """Wrap the layer functions of `package` for the rest of the process."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                continue
            wrappers[obj] = _wrap(tracer, f"{layer}.{attr}", obj)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])


_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


def layer_value(name: str, trace: dict) -> float:
    """A per-layer metric from one traced sample's stats, counts and sizes.

    `<layer>.<function>.{calls,s,self_s}` read the span totals,
    `<layer>.<function>.n<size>.us_p50` the median call at that matrix
    size, anything else a counter or a ratio of two of them. A function
    that was never called reads 0.
    """
    stats, counts = trace["stats"], trace["counts"]

    def calls(fn: str) -> int:
        return stats.get(fn, [0])[0]

    if name == "model.useful_round_ratio":
        # the last round of each doubling loop is the one kept
        rounds = counts.get("model.quadrature_rounds", 0)
        return calls("model.model_operator") / rounds if rounds else 0.0
    if name == "bounds.search.feasible_ratio":
        # candidates that pass the |f(0)| >= r test go on to reciprocal_series
        evaluations = calls("bounds._objective")
        return calls("core.reciprocal_series") / evaluations if evaluations else 0.0
    base, _, field = name.rpartition(".")
    if field in _FIELDS:
        return stats.get(base, [0, 0.0, 0.0])[_FIELDS[field]]
    if field == "us_p50":
        fn, _, size = base.rpartition(".")
        durations = [d for f, n, ds in trace["sizes"] if f == fn and n == int(size[1:]) for d in ds]
        return statistics.median(durations) * 1e6 if durations else 0.0
    return counts.get(name, 0)
