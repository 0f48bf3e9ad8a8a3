"""Spans around the calls into trusskit's modules, recorded in-process.

A Tracer swaps every public function of the layer modules for a wrapper
that times the call, in every module namespace that refers to it, so
calls made through ``from .x import f`` bindings are seen too. The time
between two span boundaries is charged to the module on top of the span
stack, which gives each module's self time; the inclusive time of each
function and the time each function spent under each ancestor are kept
as well. The totals stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("graphs", "triangles", "peel", "witness", "generators", "checks", "cli")

# Per-edge helpers called inside the peel and witness loops: a span around
# each call would cost more than the call itself.
UNTRACED = frozenset(
    {"triangles.ordered_endpoints", "witness.enumerate_residual", "witness.remove_edge"}
)

# Calls whose first arguments and result the metrics read afterwards.
CAPTURED = frozenset(
    {
        "graphs.parse_edge_list",
        "peel.instrumented_truss_decomposition",
        "witness.init_witness",
        "checks.is_k_truss",
    }
)


class Tracer:
    def __init__(self):
        self.package = importlib.import_module("trusskit")
        self.modules = {
            name: importlib.import_module(f"trusskit.{name}") for name in LAYERS
        }
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.under: dict[tuple[str, str], float] = defaultdict(float)
        self.module_self: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.first: dict[str, tuple[tuple, object]] = {}
        self._stack: list[tuple[str, str]] = []
        self._last = 0.0

    def _wrap(self, qualname: str, layer: str, fn):
        def span(*args, **kwargs):
            self._enter(qualname, layer)
            t0 = self._last
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(qualname, t0)
            if qualname in CAPTURED and qualname not in self.first:
                self.first[qualname] = (args, result)
            return result

        return span

    def _enter(self, qualname: str, layer: str) -> None:
        now = time.perf_counter()
        if self._stack:
            self.module_self[self._stack[-1][1]] += now - self._last
        self._stack.append((qualname, layer))
        self._last = now

    def _exit(self, qualname: str, t0: float) -> None:
        now = time.perf_counter()
        _, layer = self._stack.pop()
        self.module_self[layer] += now - self._last
        self._last = now
        self.calls[qualname] += 1
        outer = {name for name, _ in self._stack}
        if qualname in outer:
            return  # recursive call, already inside an outer span
        self.inclusive[qualname] += now - t0
        for name in outer:
            self.under[(name, qualname)] += now - t0

    def install(self) -> None:
        wrappers = {}
        for layer, mod in self.modules.items():
            for attr, fn in vars(mod).items():
                qualname = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or qualname in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrappers[fn] = self._wrap(qualname, layer, fn)
        for mod in (self.package, *self.modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)
