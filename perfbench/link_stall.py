#!/usr/bin/env python3
"""Fault reproducer: a link flow that never completes past t = 2048 s.

``Link._reschedule`` schedules the next boundary ``remaining / rate``
seconds ahead.  When a flow's residue sits just above the link's
completion epsilon (1e-6 B) and the rate is LAN-like (8.39e6 B/s), that
delay is about 2e-13 s: below half the float spacing of ``now`` once
``now`` reaches 2048 s.  Then ``now + delay == now``, ``_advance``
credits no bytes, and the timer fires again at the same instant,
forever.  At t = 1000 s the spacing is finer and the flow completes.

Run from the repository root::

    python3 perfbench/link_stall.py

Prints one line per case and whether the flow completed within an
event budget; exits 0 either way.
"""

from __future__ import annotations

import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RATE_B_S = 8.39e6  # the LAN per-flow cap, 8 MiB/s
RESIDUE_B = 1.5e-6
EVENT_BUDGET = 100_000


def case(start_time: float, coalesce_timer: bool) -> dict:
    from repro.net import Link
    from repro.sim import Simulator

    sim = Simulator(start_time=start_time)
    flow = Link(sim, RATE_B_S, coalesce_timer=coalesce_timer).open_flow(RESIDUE_B)
    events = 0
    while not flow.done.triggered and events < EVENT_BUDGET:
        ran = sim.run_batch(1000)
        if ran == 0:
            break
        events += ran
    return {
        "start_time": start_time,
        "timer": "coalesced" if coalesce_timer else "process",
        "completed": flow.done.triggered,
        "events": events,
        "sim_now": sim.now,
        "delay_s": RESIDUE_B / RATE_B_S,
        "half_spacing_s": math.ulp(start_time) / 2,
    }


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for start_time in (1000.0, 2100.0):
        for coalesce in (True, False):
            r = case(start_time, coalesce)
            print(
                f"t0={r['start_time']:7.1f} s  {r['timer']:9s} timer  "
                f"completed={r['completed']!s:5s}  events={r['events']:6d}  "
                f"delay={r['delay_s']:.2e} s  half-spacing={r['half_spacing_s']:.2e} s"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
