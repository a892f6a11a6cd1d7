"""Timing shims around the public functions of every pfkern module.

`Tracer.install` wraps each public function (name without a leading
underscore, defined in that module) of each given module and rebinds the
wrapper in every module namespace that holds the original, so calls between
pfkern modules are seen too.  A public function's private helpers are not
wrapped: their time is part of the caller's self time.  `restore` puts the
originals back.

Spans are kept in memory as [name, start, end, parent index, request] and
reduced by `layer_stats` to per-function self time and call counts.
"""
from __future__ import annotations

import functools
import json
import os
import time
import types


def _traceable(obj, module) -> bool:
    is_fn = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
    return is_fn and getattr(obj, "__module__", None) == module.__name__


def _layer(module) -> str:
    return module.__name__.rpartition(".")[2]


def _lattice_sites(stats, args, kwargs, result):
    x_max = getattr(result, "meta", {}).get("lattice_x_max")
    if x_max is not None:
        stats["kernels.oracle_block.lattice_sites"] += int(x_max) + 1


def _bytes_written(stats, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    if path and os.path.exists(path):
        stats["reports.bytes_written"] += os.path.getsize(path)


# counters read from a call's arguments and result, by wrapped function
COUNTERS = ("kernels.oracle_block.lattice_sites", "reports.bytes_written")
HOOKS = {
    "kernels.oracle_block": _lattice_sites,
    "reports.write_kernel_csv": _bytes_written,
    "reports.write_json": _bytes_written,
    "reports.write_table_csv": _bytes_written,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._cached: dict[str, object] = {}
        self._cache_before: dict[str, tuple] = {}

    def _shim(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return shim

    def install(self, modules) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        shims = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and _traceable(obj, mod):
                    name = f"{_layer(mod)}.{attr}"
                    shims[id(obj)] = (obj, self._shim(name, obj))
                    if hasattr(obj, "cache_info"):
                        self._cached[name] = obj
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = shims.get(id(obj))
                if hit is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        self._cache_before = {n: tuple(f.cache_info()[:2]) for n, f in self._cached.items()}

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def cache_hit_ratios(self) -> dict[str, float]:
        """hits / calls of each lru-cached public function since install."""
        out = {}
        for name, fn in self._cached.items():
            h0, m0 = self._cache_before[name]
            h1, m1 = fn.cache_info()[:2]
            calls = (h1 - h0) + (m1 - m0)
            out[f"{name}.hit_ratio"] = (h1 - h0) / calls if calls else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": req}) + "\n")


def layer_stats(spans) -> dict[str, float]:
    """`<layer>.<function>.self_s` and `.calls` for every traced function,
    plus `wavefunctions.get_table.hit_ratio` (a hit opens no wave_table)."""
    child = [0.0] * len(spans)
    builds_table = set()
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
            if name == "wavefunctions.wave_table":
                builds_table.add(parent)
    out: dict[str, float] = {}
    table_calls = table_hits = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start) - child[i]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        if name == "wavefunctions.get_table":
            table_calls += 1
            table_hits += i not in builds_table
    out["wavefunctions.get_table.hit_ratio"] = table_hits / table_calls if table_calls else 0.0
    return out
