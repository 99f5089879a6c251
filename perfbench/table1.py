#!/usr/bin/env python3
"""The model's error against the paper's Table I rows.

Stores an object on one netbook of the paper's testbed and fetches it
through the guest API of another, for each Table I size and five
seeds, and prints the simulated median of each cost column beside the
paper's figure and the relative error.  Each fetch must also satisfy
the Table I decomposition and the LAN transfer floor.

Run from the repository root::

    python3 perfbench/table1.py
"""

from __future__ import annotations

import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

#: Paper Table I (ms): size MB -> (total, inter-node, inter-domain, DHT).
PAPER_MS = {
    1: (228, 103, 25, 12),
    2: (454, 190, 37, 13),
    5: (1160, 513, 57, 13),
    10: (2522, 1042, 189, 14),
    20: (2477, 2079, 386, 12),
    50: (5174, 4678, 480, 16),
    100: (15180, 13577, 1603, 12),
}
SEEDS = (1, 2, 3, 4, 5)


def fetch_costs(size_mb: int, seed: int) -> tuple[float, float, float, float]:
    from repro.cluster import Cloud4Home, paper_testbed

    from oracles import decomposition_gap_s, lan_fetch_floor_s

    c4h = Cloud4Home(paper_testbed(seed=seed))
    c4h.start(monitors=False)
    owner, reader = c4h.devices[0], c4h.devices[2]
    name = f"table1-{size_mb}.bin"
    c4h.run(owner.client.store_file(name, float(size_mb)))
    f = c4h.run(reader.client.fetch_object(name))
    lan = c4h.config.lan
    assert decomposition_gap_s(f.total_s, f.dht_lookup_s, f.inter_node_s, f.inter_domain_s) == 0
    assert f.inter_node_s >= lan_fetch_floor_s(size_mb, lan.bandwidth_mbps, lan.flow_cap_mb_s)
    return f.total_s, f.inter_node_s, f.inter_domain_s, f.dht_lookup_s


def main() -> int:
    columns = ("total", "inter-node", "inter-domain", "DHT")
    print("| MB | " + " | ".join(f"{c} model / paper ms (err)" for c in columns) + " |")
    print("|---:|" + "---:|" * len(columns))
    for size, paper in PAPER_MS.items():
        runs = [fetch_costs(size, seed) for seed in SEEDS]
        cells = []
        for i, expected in enumerate(paper):
            model = statistics.median(r[i] for r in runs) * 1000
            cells.append(f"{model:.0f} / {expected} ({(model - expected) / expected:+.0%})")
        print(f"| {size} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
