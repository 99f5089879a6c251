#!/usr/bin/env python3
"""The repository benchmark: three Cloud4Home workloads, end to end and
layer by layer.

One workload, one run (how an automated runner calls it)::

    python3 perfbench/run.py --workload kv-overlay-4k --seed 1 --seconds 12 --trace 0

Each loop of the workload runs a fixed number of cycles, worked out
from ``--seconds``, so a seed always gives the same operations.
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
gives the per-layer metrics from a separate run under ``cProfile``.
Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
full result (with the simulated-outcome fingerprint and the failure
reasons) is also written to ``perfbench/out/``.

Every workload, both modes, each in a fresh process, one at a time::

    python3 perfbench/run.py --seed 1 --seconds 12
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import pstats
import resource
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("kv-overlay-4k", "home-media", "durable-churn")


def _import_program():
    """Put the checkout's ``src`` on the path; exit 2 if it is absent."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


# -- result assembly --------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(log, counts, parts, self_s, calls_in, traced_s, untraced_s):
    from layers import LAYERS, PROGRAM_LAYERS

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _metric(self_s[layer], "s")
    for layer in PROGRAM_LAYERS:
        metrics[f"{layer}.calls_in"] = _metric(calls_in[layer], "count")
    metrics["cluster.build_s"] = _metric(parts["build_s"], "s")
    metrics["cluster.start_s"] = _metric(parts["start_s"], "s")
    metrics["bench.prepopulate_s"] = _metric(parts["prepopulate_s"], "s")
    kv_ops = counts.get("kv.ops", 0)
    kv_gets = counts.get("kv.gets", 0)
    metrics["net.messages"] = _metric(int(counts["net.messages"]), "count")
    metrics["net.mb_moved"] = _metric(counts["net.bytes"] / (1024 * 1024), "MB")
    metrics["kvstore.hops_per_op"] = _metric(
        counts["kv.forwards"] / kv_ops if kv_ops else 0.0, "hops/op"
    )
    metrics["kvstore.cache_hit_ratio"] = _metric(
        counts["kv.cache_hits"] / kv_gets if kv_gets else 0.0, "ratio"
    )
    metrics["kvstore.stale_reads"] = _metric(log.stale_reads, "count")
    metrics["resilience.repairs"] = _metric(int(counts["resilience.repairs"]), "count")
    metrics["resilience.resurrected_deletes"] = _metric(log.resurrected, "count")
    metrics["storage.wal_recoveries"] = _metric(log.wal_recoveries, "count")
    metrics["telemetry.spans"] = _metric(int(counts["telemetry.spans"]), "count")
    metrics["sim.orphaned_failures"] = _metric(len(log.orphans), "count")
    for name, kind in (
        ("kvstore.get_sim_p50_ms", "kv.get"),
        ("vstore.fetch_sim_p50_ms", "fetch"),
        ("vstore.store_sim_p50_ms", "store"),
        ("services.pipeline_sim_p50_ms", "pipeline"),
    ):
        metrics[name] = _metric(log.p50_ms(kind), "ms")
    metrics["bench.trace_overhead"] = _metric(traced_s / untraced_s if untraced_s else 0.0, "ratio")
    metrics["bench.traced_s"] = _metric(traced_s, "s")
    metrics["bench.untraced_s"] = _metric(untraced_s, "s")
    return metrics


def run_one(args) -> int:
    _import_program()
    from workloads import WORKLOADS

    from harness import Measurement, Yardstick, set_up

    workload = WORKLOADS[args.workload]
    quota = max(1, math.ceil(workload.cycles_per_s * args.seconds))

    handoff, setup_host_s, setup_s, parts = set_up(workload, args.seed)
    if args.trace:
        from layers import LayerMap, attribute

        yardstick = Yardstick()
        untraced = Measurement(workload, quota, yardstick=yardstick)
        untraced.run(handoff)
        gc.collect()
        handoff.append(workload.deploy(args.seed, 0))
        profiler = cProfile.Profile()
        traced = Measurement(workload, quota, profiler.disable, profiler.enable)
        traced.run(handoff)
        log, counts = untraced.log, untraced.counts
        stall = untraced.stall or traced.stall
        layer_of = LayerMap(os.path.join(ROOT, "src", "repro"), BENCH_DIR)
        self_s, calls_in = attribute(pstats.Stats(profiler).stats, layer_of)
        if traced.log.fingerprint() != log.fingerprint():
            log.problems.append("the traced run's simulated outcome differs from the untraced run's")
        log.problems.extend(traced.log.problems)
        metrics = layer_metrics(
            log, counts, parts, self_s, calls_in, traced.host_s, untraced.host_s
        )
        metrics["bench.host_speed"] = _metric(yardstick.median_speed(), "ratio")
        raw, epochs = {}, []
    else:
        measured = Measurement(workload, quota, yardstick=Yardstick()).run(handoff)
        log, stall = measured.log, measured.stall
        epochs = measured.epochs
        raw = {
            "host_ops_per_s": log.completed / measured.host_s if measured.host_s else 0.0,
            "host_setup_s": setup_host_s,
            "host_speed": measured.yardstick.median_speed(),
        }
        metrics = {
            "ops_per_s": _metric(log.completed / measured.ref_s if measured.ref_s else 0.0, "ops/s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
    result = {
        "correct": not log.problems,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "cycles_per_loop": quota,
        "trace": args.trace,
        "fingerprint": log.fingerprint(),
        "stall": stall,
        "epoch_ends_sim_s": log.epoch_ends,
        "epochs": epochs,
        "failures": log.failures,
        "orphaned_failures": log.orphans[:50],
        "host_seconds": raw,
        "problems": log.problems[:50],
        "host": {"cpus": os.cpu_count(), "platform": sys.platform},
        **result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for key in sorted(metrics):
        print(f"  {key:34s} {metrics[key]['value']:>16.6g} {metrics[key]['unit']}")
    for key, value in sorted(raw.items()):
        print(f"  ({key:32s} {value:>16.6g})")
    print(f"  attempted {log.attempted}  failed {log.failed}  correct {result['correct']}")
    for reason, count in sorted(log.failures.items()):
        print(f"    failed {count:6d}  {reason}")
    for problem in log.problems[:10]:
        print(f"    PROBLEM {problem}")
    for orphan in log.orphans[:10]:
        print(f"    ORPHANED FAILURE {orphan}")
    print(f"  fingerprint {detail['fingerprint']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            summary[f"{name}/trace{trace}"] = json.loads(done.stdout.strip().splitlines()[-1])
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"summary-seed{args.seed}.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    ok = all(r["correct"] for r in summary.values())
    print(json.dumps({"correct": ok, "runs": len(summary)}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
