#!/usr/bin/env python3
"""How far the program's state moves the yardstick's speed reading.

    python3 perfbench/yardstick_bias.py --rounds 16

Two checks, each alternating quickly so that drift in host speed falls
on both sides alike.  *Heap* (``--rounds`` rounds): readings with a
small heap against readings with 1.2 million extra program-like dicts
alive.  *Caches* (four times as many rounds): a reading right after
the process touched 2, 8 or 128 MB against the reading just before it.
Each prints the median [quartiles] of the ratios (1.0 is no bias), for
``Yardstick.speed`` and for a single unguarded pass (GC on, no scrub).
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time

from run import _import_program


def _unguarded() -> float:
    from harness import YARDSTICK_NOMINAL_S, _yardstick_pass

    t0 = time.perf_counter()
    _yardstick_pass()
    return YARDSTICK_NOMINAL_S / (time.perf_counter() - t0)


def _print(title: str, ratios: dict) -> None:
    for name, values in ratios.items():
        q = statistics.quantiles(values, n=4)
        print(f"{title:14s} {name:10s} {statistics.median(values):.3f} [{q[0]:.3f}, {q[2]:.3f}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=16)
    args = parser.parse_args(argv)
    _import_program()
    from harness import Yardstick

    readers = {"guarded": Yardstick.speed, "unguarded": _unguarded}

    def read():
        return {name: statistics.median(f() for _ in range(4)) for name, f in readers.items()}

    heap = {name: [] for name in readers}
    for _ in range(args.rounds):
        small = read()
        junk = [{"id": i, "peers": [i, i + 1], "name": f"n{i}"} for i in range(1_200_000)]
        big = read()
        del junk
        gc.collect()
        after = read()
        for name in readers:
            heap[name].append(big[name] * 2 / (small[name] + after[name]))
    _print("heap", heap)

    pools = {mb: [{"id": i} for i in range(mb * 5243)] for mb in (2, 8, 128)}
    caches = {mb: {name: [] for name in readers} for mb in (2, 8, 128)}
    for _ in range(4 * args.rounds):
        for mb, pool in pools.items():
            for name, f in readers.items():
                base = f()
                sum(d["id"] for d in pool)
                caches[mb][name].append(f() / base)
    for mb, ratios in caches.items():
        _print(f"caches {mb} MB", ratios)
    return 0


if __name__ == "__main__":
    sys.exit(main())
