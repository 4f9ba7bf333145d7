"""Fold a cProfile profile into the layers of the simulated stack.

A layer is a set of ``repro`` modules (:data:`LAYER_RULES`); anything in
``repro`` that no rule names, and the benchmark's own code, is the
``driver`` layer.  Time spent in functions outside ``repro`` -- C
builtins, the standard library, numpy -- is charged to the layers of
their callers, split by pstats' per-caller ``tottime``, so the layers'
self times always add up to the whole profile.

Per layer the fold reports

* ``self_s``   -- cProfile self time (``tottime``), seconds;
* ``share``    -- ``self_s`` over the whole profile;
* ``calls``    -- calls to the layer's own functions;
* ``calls_in`` -- of those, calls made from another layer.

``calls`` and ``calls_in`` are counts of a deterministic simulation, so
they repeat exactly from run to run.
"""

from __future__ import annotations

import os
import pstats

__all__ = ["LAYERS", "LAYER_RULES", "fold_profile", "layer_of_module"]

#: Module prefix -> layer, most specific prefix first.
LAYER_RULES: tuple[tuple[str, str], ...] = (
    ("repro.symbiosys.monitor", "symbiosys.monitor"),
    ("repro.symbiosys.metrics", "symbiosys.monitor"),
    ("repro.symbiosys.analysis", "symbiosys.analysis"),
    ("repro.symbiosys.critical", "symbiosys.analysis"),
    ("repro.symbiosys.export", "symbiosys.analysis"),
    ("repro.symbiosys.perfetto", "symbiosys.analysis"),
    ("repro.symbiosys.zipkin", "symbiosys.analysis"),
    ("repro.symbiosys", "symbiosys"),
    ("repro.sim", "sim"),
    ("repro.argobots", "argobots"),
    ("repro.net", "net"),
    ("repro.mercury", "mercury"),
    ("repro.margo", "margo"),
    ("repro.validate", "validate"),
    ("repro.shard", "shard"),
    ("repro.ssg", "ssg"),
    ("repro.services", "services"),
    ("repro.workloads", "workloads"),
)

#: Every layer, in stack order; ``driver`` is ``repro.experiments``,
#: ``repro.cluster``, ``repro.config``, the benchmark and the rest.
LAYERS: tuple[str, ...] = (
    "sim",
    "argobots",
    "net",
    "mercury",
    "margo",
    "symbiosys",
    "symbiosys.monitor",
    "symbiosys.analysis",
    "validate",
    "shard",
    "ssg",
    "services",
    "workloads",
    "driver",
)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of_module(module: str) -> str:
    """The layer a dotted ``repro`` module name belongs to."""
    for prefix, layer in LAYER_RULES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "driver"


def _module_of_file(path: str, repro_dir: str) -> str | None:
    """Dotted ``repro`` module name of a source file, else None."""
    path = os.path.abspath(path)
    if not path.startswith(repro_dir + os.sep):
        return None
    rel = os.path.splitext(os.path.relpath(path, repro_dir))[0]
    parts = ["repro", *rel.split(os.sep)]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class _Fold:
    """One pstats table, folded into :data:`LAYERS`."""

    def __init__(self, stats: dict):
        import repro

        self.repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
        self.stats = stats
        self._own: dict = {}
        self._by_time: dict = {}
        self._by_count: dict = {}

    def own_layer(self, func) -> str | None:
        """Layer of a function defined in ``repro`` or the benchmark."""
        if func not in self._own:
            filename = func[0]
            module = _module_of_file(filename, self.repro_dir)
            if module is not None:
                layer = layer_of_module(module)
            elif os.path.abspath(filename).startswith(_BENCH_DIR + os.sep):
                layer = "driver"
            else:
                layer = None
            self._own[func] = layer
        return self._own[func]

    def weights(self, func, index: int, memo: dict, visiting: set) -> dict:
        """Layer fractions a function's cost is charged to.

        ``index`` picks the per-caller field the split follows: 2 for
        ``tottime``, 0 for the call count.
        """
        layer = self.own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = self.stats[func][4]
        if not callers or func in visiting:
            return {"driver": 1.0}
        visiting.add(func)
        total = sum(entry[index] for entry in callers.values())
        out: dict[str, float] = {}
        for caller, entry in sorted(callers.items()):
            part = entry[index] / total if total > 0 else 1.0 / len(callers)
            if part <= 0:
                continue
            for name, w in self.weights(caller, index, memo, visiting).items():
                out[name] = out.get(name, 0.0) + part * w
        visiting.discard(func)
        memo[func] = out
        return out

    def caller_layer(self, func) -> str:
        """The one layer a call made by ``func`` is charged to: its own,
        or for a foreign function the layer that made most of its calls
        (count-weighted, so the answer repeats exactly)."""
        weights = self.weights(func, 0, self._by_count, set())
        return max(sorted(weights), key=lambda name: weights[name])

    def fold(self, total_s: float) -> dict:
        self_s = {name: 0.0 for name in LAYERS}
        calls = {name: 0 for name in LAYERS}
        calls_in = {name: 0 for name in LAYERS}
        for func, (_cc, nc, tt, _ct, callers) in self.stats.items():
            layer = self.own_layer(func)
            if layer is None:
                for name, w in self.weights(func, 2, self._by_time, set()).items():
                    self_s[name] += tt * w
                continue
            self_s[layer] += tt
            calls[layer] += nc
            for caller, entry in callers.items():
                if self.caller_layer(caller) != layer:
                    calls_in[layer] += entry[0]
        return {
            "total_s": total_s,
            "layers": {
                name: {
                    "self_s": self_s[name],
                    "share": self_s[name] / total_s if total_s > 0 else 0.0,
                    "calls": calls[name],
                    "calls_in": calls_in[name],
                }
                for name in LAYERS
            },
        }


def fold_profile(profiler) -> dict:
    """Fold a finished ``cProfile.Profile`` into per-layer numbers;
    ``total_s`` is pstats' own total of every function's self time."""
    stats = pstats.Stats(profiler)
    return _Fold(stats.stats).fold(stats.total_tt)
