"""Span tracing around halfspacedecay's public functions, from outside the package.

`install` replaces each traced public function, in every halfspacedecay
module namespace that binds it, with a wrapper that records a span (layer,
start, end, parent) and the layer's counts. Spans stay in memory until the
iteration ends; `Tracer.summary` reduces them to per-layer self times.

A call from a layer into the same layer (medium.overlap_i2 calling
medium.overlap_c, say) is not a layer boundary and opens no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time

# layer -> (module, traced functions; None means every function in __all__)
LAYERS = {
    "mcvalidate.rsa": ("mcvalidate", ("sample_configuration",)),
    "mcvalidate.estimators": (
        "mcvalidate",
        ("estimate_filling", "estimate_pair_overlap", "estimate_surface_moment_i2"),
    ),
    "mcvalidate.born": ("mcvalidate", ("born_first_order_average",)),
    "mcvalidate.slab": ("mcvalidate", ("analytic_first_order",)),
    "medium": ("medium", None),
    "decay": ("decay", None),
    "specfun": ("specfun", None),
    "mie": ("mie", None),
    "cli": ("cli", ("main",)),
}
ROOT = "harness"  # the benchmark's own span around one iteration
RSS_LAYERS = ("mcvalidate.born", "mcvalidate.slab")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1]
        self._stack = []
        self.counts = {}
        self.rss_mb = {}

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        if span[0] in RSS_LAYERS:
            self.rss_mb[span[0]] = _maxrss_mb()

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def add(self, key: str, value: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def summary(self) -> dict:
        """Per-layer calls and self time; self time excludes direct child spans."""
        if self._stack:
            raise RuntimeError("spans left open")
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers = {}
        for (layer, start, end, _), child in zip(self.spans, covered):
            entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child
        walls = [end - start for layer, start, end, parent in self.spans if parent < 0]
        rsa_ms = [
            (end - start) * 1e3 for layer, start, end, _ in self.spans if layer == "mcvalidate.rsa"
        ]
        return {
            "layers": layers,
            "wall_s": sum(walls),
            "counts": self.counts,
            "rss_mb": self.rss_mb,
            "rsa_ms": rsa_ms,
        }


def _counting(configs, tracer: Tracer, key: str, spheres: bool):
    for config in configs:
        tracer.add(key, len(config.centers) if spheres else 1)
        yield config


def _wrap(tracer: Tracer, layer: str, fn):
    counted = {
        "mcvalidate.estimators": ("mcvalidate.estimators.config_visits", False),
        "mcvalidate.born": ("mcvalidate.born.spheres", True),
    }.get(layer)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.innermost() == layer:
            return fn(*args, **kwargs)
        index = tracer.open(layer)
        try:
            if counted is not None:
                args = (_counting(args[0], tracer, *counted),) + args[1:]
            result = fn(*args, **kwargs)
            if layer == "mcvalidate.rsa":
                tracer.add("mcvalidate.rsa.spheres", len(result.centers))
            return result
        finally:
            tracer.close(index)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever a halfspacedecay module binds it."""
    for module_name, _ in LAYERS.values():
        importlib.import_module(f"halfspacedecay.{module_name}")
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "halfspacedecay"]
    for layer, (module_name, names) in LAYERS.items():
        module = sys.modules[f"halfspacedecay.{module_name}"]
        for name in names or module.__all__:
            fn = getattr(module, name)
            if not inspect.isfunction(fn):
                continue
            wrapped = _wrap(tracer, layer, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)
