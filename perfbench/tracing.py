"""Runtime call tracing for the per-layer run, installed from outside the library.

Each layer is a module of `nilflow`.  A module-level function is wrapped in
the namespaces of the *other* modules that imported it, so a span marks a
call into the layer and calls inside one module stay part of its caller's
self time.  Names imported by value (`pet` takes `substitute` from
`poly_maps`, `averaging` takes `act_array` from `dynamics`, ...) are found by
identity and wrapped where they are looked up.  A few hot methods are
wrapped on their class instead, so every caller is seen.

Spans nest on a stack: a call's self time is its duration minus the time
of the traced calls it made.  Counters live in memory and `uninstall`
restores every patched attribute.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable, Dict, List, Tuple

LAYERS = ("multipoly", "lie_core", "poly_maps", "pet", "zariski", "dynamics", "averaging", "cli")

# (module, class, methods) wrapped on the class, so every caller is counted
CLASS_METHODS = (
    (
        "multipoly",
        "MultiPoly",
        (
            "substitute", "variable", "eval",
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__",
        ),
    ),
    ("poly_maps", "PolyMap", ("eval",)),
)


class Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Call counts and self/total time per traced function, named layer.function."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self._child = [0.0]
        self._patches: List[Tuple[object, str, object]] = []
        self.observers: Dict[str, Callable] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        child = self._child
        clock = time.perf_counter
        observers = self.observers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                child[-1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - inner
                stat.total_s += elapsed
            observe = observers.get(name)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def root(self, fn: Callable, *args):
        """Run fn as the root span of one CLI run, named cli.main."""
        return self.wrap("cli.main", fn)(*args)

    # ------------------------------------------------------------------

    def install(self, package) -> None:
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        home = {mod.__name__: layer for layer, mod in modules.items()}
        wrapped: Dict[int, Callable] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = home.get(obj.__module__)
                if owner is None or owner == layer:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self.wrap(f"{owner}.{obj.__name__}", obj)
                self._patch(mod, attr, wrapped[id(obj)])
        for layer, cls_name, methods in CLASS_METHODS:
            cls = getattr(modules[layer], cls_name)
            for attr in methods:
                raw = cls.__dict__[attr]
                name = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self.wrap(name, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------

    def get(self, *names: str) -> Stat:
        """Sum of the stats of the given names (missing ones count as 0)."""
        out = Stat()
        for name in names:
            s = self.stats.get(name)
            if s is not None:
                out.calls += s.calls
                out.self_s += s.self_s
                out.total_s += s.total_s
        return out

    def layer(self, layer: str) -> Stat:
        return self.get(*(n for n in self.stats if n.startswith(layer + ".")))
