"""Per-layer host-time attribution from a stdlib profiler run.

A *layer* is a package of the program (``repro.<package>``) or the
benchmark itself (``bench``).  Each profiled function's self time goes
to the layer that owns its source file.  Builtins, the stdlib and any
other code own no layer: their self time is charged to whichever layer
called them, split in proportion to the time each caller spent in
them, recursively through chains of such functions.  The profiler's
caller graph also gives ``calls_in``: how many calls each layer
receives from code of another layer.
"""

from __future__ import annotations

import os

__all__ = ["PROGRAM_LAYERS", "LAYERS", "LayerMap", "attribute"]

#: The program packages reported as layers.
PROGRAM_LAYERS = (
    "sim",
    "net",
    "overlay",
    "kvstore",
    "vstore",
    "virt",
    "monitoring",
    "services",
    "cloud",
    "storage",
    "resilience",
    "telemetry",
    "cluster",
)
#: Every layer self time is reported for; ``bench`` is the benchmark's own cost.
LAYERS = PROGRAM_LAYERS + ("bench",)


class LayerMap:
    """Maps a profiled source file to its layer (None: charge the caller)."""

    def __init__(self, package_dir: str, bench_dir: str) -> None:
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self.bench_dir = os.path.realpath(bench_dir) + os.sep
        self._cache: dict[str, str | None] = {}

    def __call__(self, filename: str) -> str | None:
        layer = self._cache.get(filename, "?")
        if layer != "?":
            return layer
        layer = None
        if filename and not filename.startswith(("~", "<")):
            path = os.path.realpath(filename)
            if path.startswith(self.package_dir):
                package = path[len(self.package_dir):].split(os.sep, 1)[0]
                if package in PROGRAM_LAYERS:
                    layer = package
            elif path.startswith(self.bench_dir):
                layer = "bench"
        self._cache[filename] = layer
        return layer


def attribute(stats: dict, layer_of) -> tuple[dict[str, float], dict[str, int]]:
    """Bucket a ``pstats.Stats(...).stats`` table by layer.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)`` and ``callers`` maps a caller key to ``(cc, nc, tt,
    ct)`` for the calls it made.  Returns ``(self_s, calls_in)`` keyed
    by every name in :data:`LAYERS`.  Code that no caller chain leads
    back to a layer from is charged to ``bench``, the code that runs
    the profiler.
    """
    shares: dict = {}
    visiting: set = set()

    def share_of(func) -> dict[str, float]:
        """The layers ``func``'s time is charged to, as fractions."""
        known = shares.get(func)
        if known is not None:
            return known
        own = layer_of(func[0])
        if own is not None:
            shares[func] = {own: 1.0}
            return shares[func]
        visiting.add(func)
        mix: dict[str, float] = {}
        callers = stats[func][4] if func in stats else {}
        weights = {c: v[2] for c, v in callers.items() if c != func and c not in visiting}
        if not any(weights.values()):
            weights = {c: float(v[1]) for c, v in callers.items() if c != func and c not in visiting}
        total = sum(weights.values())
        if total > 0:
            for caller, weight in weights.items():
                for layer, part in share_of(caller).items():
                    mix[layer] = mix.get(layer, 0.0) + part * weight / total
        visiting.discard(func)
        if not mix:
            mix = {"bench": 1.0}
        shares[func] = mix
        return mix

    self_s = {layer: 0.0 for layer in LAYERS}
    calls_in = {layer: 0.0 for layer in PROGRAM_LAYERS}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        for layer, part in share_of(func).items():
            self_s[layer] += tt * part
        own = layer_of(func[0])
        if own not in calls_in:
            continue
        for caller, (_ccc, ncalls, _tt, _ct) in callers.items():
            foreign = sum(p for layer, p in share_of(caller).items() if layer != own)
            calls_in[own] += ncalls * foreign
    return self_s, {layer: int(round(n)) for layer, n in calls_in.items()}
