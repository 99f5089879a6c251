#!/usr/bin/env python3
"""Where kv-overlay-4k's open-loop load meets the in-flight knee.

    python3 perfbench/knee.py --seed 1 --cycles 8 --rates 250,500,1000,2000,4000,8000

For each arrival rate (per second of simulated time) it deploys the
workload afresh, runs ``--cycles`` cycles of its arrivals, and prints
the simulated get p50 and p99 and the mean number of KV operations in
flight, by Little's law: the rate times the mean simulated latency.
Below the knee the latencies stay flat and the in-flight mean grows in
step with the rate; past it, latency and in-flight mean climb faster.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import _import_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=8)
    parser.add_argument("--rates", default="250,500,1000,2000,4000,8000")
    args = parser.parse_args(argv)
    _import_program()
    from harness import Measurement
    from workloads import KvOverlay

    print(f"{'rate/s':>8} {'ops':>6} {'get p50 ms':>11} {'get p99 ms':>11} {'in flight':>10}")
    for rate in (float(r) for r in args.rates.split(",")):
        workload = KvOverlay()
        workload.rate_per_s = rate
        log = Measurement(workload, args.cycles).run([workload.deploy(args.seed, 0)]).log
        if log.problems or log.failed:
            print(f"rate {rate:g}: {log.failed} failed, problems {log.problems[:3]}")
            return 1
        gets = sorted(log.latency["kv.get"])
        every = gets + log.latency.get("kv.put", [])
        p99 = statistics.quantiles(gets, n=100)[98]
        in_flight = rate * statistics.fmean(every)
        print(
            f"{rate:8g} {len(every):6d} {statistics.median(gets) * 1e3:11.2f} "
            f"{p99 * 1e3:11.2f} {in_flight:10.2f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
