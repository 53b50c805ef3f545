"""Spans around foggame's public functions, recorded from outside the package.

install() wraps every public function defined in the traced modules, plus
the hot methods named in METHODS, and rebinds each wrapper in every loaded
`foggame.*` namespace that holds the original: equilibrium, model, bounds
and scenario import names directly, so patching only the defining module
would miss their calls.

Spans are aggregated in memory per (name, parent name) as calls, total
time and self time, where self time is the span's duration minus the
durations of its child spans.  A poa run makes several hundred thousand
calls, so no per-call record is kept.  `cache_info()` is read from the
original `lru_cache` objects, since the wrappers sit in front of them.
"""

from __future__ import annotations

import json
import sys
import time
import types

TRACED_MODULES = ("graph", "model", "equilibrium", "scenario", "serialize", "cli")
METHODS = {
    "graph": {"Graph": ("adjacency",)},
    "model": {"GameState": ("with_level1_strategy", "with_level2_strategy")},
}
CACHED = (("graph", "all_pairs_distances"), ("model", "build_level1_graph"))

ROOT = "<root>"


class Spans:
    """Per-(name, parent) aggregates plus the lru_cache readers."""

    def __init__(self) -> None:
        # stack of [name, start_ns, child_ns]; the root frame collects
        # time spent in top-level spans so that its children sum correctly.
        self.stack: list[list] = [[ROOT, 0, 0]]
        self.agg: dict[tuple[str, str], list[int]] = {}
        self.caches: dict[str, object] = {}

    def wrap(self, name: str, fn):
        stack = self.stack
        agg = self.agg
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                parent = stack[-1]
                parent[2] += elapsed
                key = (name, parent[0])
                entry = agg.get(key)
                if entry is None:
                    agg[key] = [1, elapsed, elapsed - frame[2]]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[2]

        return traced

    def write(self, path: str) -> None:
        spans = [
            [name, parent, calls, total / 1e9, self_ns / 1e9]
            for (name, parent), (calls, total, self_ns) in sorted(self.agg.items())
        ]
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "caches": caches}, handle)


def _public_functions(module: types.ModuleType):
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, type):
            continue
        if callable(value):
            yield attr, value


def install() -> Spans:
    """Wrap the traced functions and return the live span aggregator."""
    import foggame  # noqa: F401  (load the package before walking sys.modules)

    spans = Spans()
    replaced: dict[int, tuple] = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"foggame.{short}"]
        for attr, fn in _public_functions(module):
            name = f"{short}.{attr}"
            replaced[id(fn)] = (fn, spans.wrap(name, fn))
            if (short, attr) in CACHED:
                spans.caches[name] = fn
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(module, cls_name)
            for method in methods:
                fn = cls.__dict__[method]
                setattr(cls, method, spans.wrap(f"{short}.{cls_name}.{method}", fn))
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "foggame" or module_name.startswith("foggame.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return spans
