"""Run machinery shared by the workloads: operation log, pump, yardstick.

A workload runs *loops* (closed-loop users, or the open-loop arrival
generator) inside the simulator.  Each loop works a fixed number of
whole *cycles*, each a fixed list of operations, so a seed always gives
the same operations, and every run attempts whole rounds of them.  The
pump drives the simulator in event batches from the host side: between
batches it reads host speed and checks the stall guard.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import statistics
import time
from dataclasses import dataclass, field

from repro.kvstore.errors import KvError
from repro.net.errors import NetworkError
from repro.overlay.errors import OverlayError
from repro.vstore.errors import VStoreError

__all__ = [
    "PROGRAM_ERRORS",
    "Failed",
    "Incorrect",
    "OpLog",
    "Pump",
    "StallError",
    "Measurement",
    "Yardstick",
    "set_up",
]

#: Exceptions by which the program reports that an operation failed.
PROGRAM_ERRORS = (VStoreError, KvError, NetworkError, OverlayError)

#: Events per pump batch: small enough that the stall guard and the
#: yardstick are looked at every few milliseconds of host time.
BATCH_EVENTS = 4096
#: Consecutive batches that leave the simulated clock where it was
#: before the stall guard ends the run.
STALL_BATCHES = 8


class Failed(Exception):
    """An operation completed but did not do what it must (counted)."""


class Incorrect(Exception):
    """An operation returned a wrong output (makes the run incorrect)."""


class StallError(Exception):
    """The simulated clock stopped advancing while work was outstanding."""


@dataclass
class OpLog:
    """Every operation's outcome, its simulated latency, and a fingerprint."""

    attempted: int = 0
    failed: int = 0
    completed: int = 0
    inflight: int = 0
    failures: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    latency: dict = field(default_factory=dict)
    #: Running hash of every outcome, in completion order (which the
    #: simulator makes deterministic for a seed).
    _digest: object = field(default_factory=hashlib.sha256)
    last_completion: float = 0.0
    #: Workload counters gathered by the epoch-end checks.
    stale_reads: int = 0
    wal_recoveries: int = 0
    resurrected: int = 0
    #: Simulated time at which each epoch's loops drained.
    epoch_ends: list = field(default_factory=list)
    #: Failed events no process consumed, which the simulator raised.
    orphans: list = field(default_factory=list)

    def op(self, sim, oid: str, kind: str, gen):
        """Process: run one operation; its checks raise Failed/Incorrect.

        ``gen`` returns a short summary of the result, which enters the
        fingerprint with the simulated completion time.
        """
        self.attempted += 1
        self.inflight += 1
        started = sim.now
        try:
            summary = yield from gen
        except Failed as exc:
            self._fail(sim, oid, kind, f"{kind}: {exc}")
            return None
        except Incorrect as exc:
            self.problems.append(f"{oid} {kind}: {exc}")
            self._fail(sim, oid, kind, f"{kind}: incorrect output")
            return None
        except PROGRAM_ERRORS as exc:
            self._fail(sim, oid, kind, f"{kind}: {type(exc).__name__}")
            return None
        finally:
            self.inflight -= 1
        self.completed += 1
        self.last_completion = time.perf_counter()
        self.sample(kind, sim.now - started)
        self._digest.update(f"{oid}|{kind}|{sim.now!r}|{summary}\n".encode())
        return summary

    def _fail(self, sim, oid: str, kind: str, reason: str) -> None:
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1
        self._digest.update(f"{oid}|{kind}|{sim.now!r}|failed:{reason}\n".encode())

    def stalled(self, unissued: int, reason: str) -> None:
        """A stall fails the operations in flight and those not issued."""
        count = self.inflight + unissued
        self.attempted += unissued
        self.failed += count
        self.inflight = 0
        self.failures[reason] = self.failures.get(reason, 0) + count

    def sample(self, kind: str, seconds: float) -> None:
        """One simulated latency sample of ``kind``."""
        self.latency.setdefault(kind, []).append(seconds)

    def p50_ms(self, kind: str) -> float:
        samples = self.latency.get(kind)
        return statistics.median(samples) * 1000.0 if samples else 0.0

    def fingerprint(self) -> str:
        return self._digest.hexdigest()[:16]


#: Duration of one yardstick pass at speed 1.0, a fixed unit.  The
#: reference host (2 vCPUs of a shared cloud VM) reads about 0.8.
YARDSTICK_NOMINAL_S = 0.009
#: Passes per speed reading; the reading takes their median.
YARDSTICK_PASSES = 3
#: Host seconds of measured work between two speed readings.
YARDSTICK_PERIOD_S = 0.5
#: A stretch is scaled by the median of its own reading and this many
#: neighbouring readings on each side, which smooths reading noise but
#: follows phases of host speed that last seconds.
YARDSTICK_NEIGHBOURS = 2
_YARDSTICK_TABLE = {i: (i, float(i), str(i)) for i in range(1 << 16)}
_YARDSTICK_KEYS = list(_YARDSTICK_TABLE)
#: Read through before each pass.  At 4 MB, twice the reference host's
#: per-core L2, it leaves the caches in the same state whatever ran
#: before, the program or nothing.
_YARDSTICK_SCRUB = bytes(range(256)) * (1 << 14)


def _yardstick_pass() -> int:
    """A fixed stand-in for the program's kind of work: generators
    resumed from a timer heap, passing records read from a large dict.
    It must never change: it is the unit host time is measured in."""
    heap: list = []
    inbox: dict = {}
    x = 1

    def proc(pid):
        total = 0
        while True:
            msg = yield
            total += msg[0]
            inbox[pid] = (msg, total)

    procs = [proc(i) for i in range(256)]
    for p in procs:
        next(p)
    for seq in range(4000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, ((x >> 8) & 0xFFFF, seq, x & 255))
        if len(heap) > 128:
            _, _, pid = heapq.heappop(heap)
            procs[pid].send(_YARDSTICK_TABLE[_YARDSTICK_KEYS[x & 0xFFFF]])
    return len(inbox)


class Yardstick:
    """Host speed, read with a fixed reference workload.

    A shared cloud host drifts in speed by about 20 % over minutes, for
    the program and any fixed workload alike.  Each measured stretch of
    host time is scaled by the speed read around it, which turns host
    seconds into *reference seconds*: what the stretch would have taken
    at speed 1.0.
    """

    def __init__(self) -> None:
        #: (start, end, speed) of each measured stretch of host time.
        self.segments: list[tuple[float, float, float]] = []

    @staticmethod
    def speed() -> float:
        """Host speed now, kept apart from the program's state.

        The cyclic GC is off during the passes, so no collection of the
        program's heap lands in them, and each pass starts after a read
        of the scrub buffer, so the caches the program left behind do
        not either.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(YARDSTICK_PASSES):
                _YARDSTICK_SCRUB.count(1)
                t0 = time.perf_counter()
                _yardstick_pass()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return YARDSTICK_NOMINAL_S / statistics.median(times)

    def segment(self, start: float, end: float) -> None:
        """Close one stretch of measured host time and read the speed."""
        self.segments.append((start, end, self.speed()))

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """Host and reference seconds of measured work within [start, end]."""
        speeds = [s for _, _, s in self.segments]
        k = YARDSTICK_NEIGHBOURS
        host = ref = 0.0
        for i, (a, b, _) in enumerate(self.segments):
            overlap = max(0.0, min(b, end) - max(a, start))
            host += overlap
            ref += overlap * statistics.median(speeds[max(0, i - k): i + k + 1])
        return host, ref

    def median_speed(self) -> float:
        return statistics.median(s for _, _, s in self.segments) if self.segments else 0.0


class Pump:
    """Drives a simulator from the host with a stall guard.

    The simulator raises a failed event that no process consumed after
    running its callbacks, so its state is whole: the pump records the
    failure in ``log.orphans`` and keeps going.  With a ``yardstick``
    the pump reads host speed every :data:`YARDSTICK_PERIOD_S`.
    """

    def __init__(self, log: OpLog, yardstick=None) -> None:
        self.log = log
        self.yardstick = yardstick

    def run(self, sim, finished) -> None:
        """Run events until ``finished()``; StallError if the clock sticks."""
        still = 0
        stretch = time.perf_counter()
        try:
            while not finished():
                before = sim.now
                try:
                    ran = sim.run_batch(BATCH_EVENTS)
                except PROGRAM_ERRORS as exc:
                    self.log.orphans.append(f"t={sim.now!r} {type(exc).__name__}: {exc}")
                    continue
                if ran == 0:
                    raise StallError(
                        f"event queue empty at t={sim.now:.6f} with work outstanding"
                    )
                if self.yardstick is not None:
                    now = time.perf_counter()
                    if now - stretch >= YARDSTICK_PERIOD_S:
                        self.yardstick.segment(stretch, now)
                        stretch = time.perf_counter()
                still = still + 1 if sim.now == before else 0
                if still >= STALL_BATCHES:
                    raise StallError(
                        f"simulated clock stuck at t={sim.now!r} for "
                        f"{STALL_BATCHES * BATCH_EVENTS} events"
                    )
        finally:
            if self.yardstick is not None:
                self.yardstick.segment(stretch, time.perf_counter())


# -- one measured phase -----------------------------------------------------------


def _loop_process(sim, loop, stop, horizon_s, cycles):
    while cycles[loop.name] < stop and sim.now < horizon_s:
        loop.issued = 0
        yield from loop.cycle(cycles[loop.name])
        cycles[loop.name] += 1
    loop.running = False


class Measurement:
    """One measured phase: each loop runs ``quota`` cycles, epoch after
    epoch.  An epoch ends once its loops ran the workload's
    ``epoch_cycles`` or reached its ``horizon_s``.

    Host time counts from each epoch's first operation to its last
    completion; re-deployments, epoch-end checks and yardstick passes
    are excluded.  ``resume``/``pause`` are called as each epoch's
    loops start and once they drained.
    ``host_s`` is that host time and ``ref_s`` the same in reference
    seconds (0 without a yardstick).  ``stall`` holds the stall
    guard's message if it ended the phase.
    """

    def __init__(self, workload, quota: int, pause=None, resume=None, yardstick=None):
        self.workload = workload
        self.quota = quota
        self.pause = pause or (lambda: None)
        self.resume = resume or (lambda: None)
        self.yardstick = yardstick
        self.log = OpLog()
        self.host_s = 0.0
        self.ref_s = 0.0
        self.counts: dict[str, float] = {}
        self.cycles: dict[str, int] = {}
        #: (operations completed, host seconds, reference seconds) per epoch.
        self.epochs: list[tuple[int, float, float]] = []
        self.stall = None

    def run(self, handoff: list):
        """Measure, starting on the deployment popped from ``handoff``
        (handed over this way so the caller keeps no reference and each
        epoch's cluster is freed before the next is built)."""
        dep = handoff.pop()
        while self._epoch(dep) and any(n < self.quota for n in self.cycles.values()):
            seed, epoch = dep.seed, dep.epoch + 1
            dep = None  # free this epoch's cluster before building the next
            gc.collect()
            dep = self.workload.deploy(seed, epoch)
        self.log.problems.extend(self.workload.run_problems(self.log))
        return self

    def _epoch(self, dep) -> bool:
        """Run one epoch's loops and checks; False once the phase ends."""
        workload, quota, log = self.workload, self.quota, self.log
        before = workload.counts(dep)
        loops = workload.loops(dep, log)
        dep.state["background"] = [dep.sim.process(g) for g in workload.background(dep)]
        for loop in loops:
            done = self.cycles.setdefault(loop.name, 0)
            stop = min(quota, done + workload.epoch_cycles)
            dep.sim.process(_loop_process(dep.sim, loop, stop, workload.horizon_s, self.cycles))
        self.resume()
        t0 = time.perf_counter()
        done0 = log.completed
        try:
            Pump(log, self.yardstick).run(
                dep.sim, lambda: log.inflight == 0 and not any(lp.running for lp in loops)
            )
        except StallError as exc:
            self.stall = str(exc)
        end = log.last_completion if log.completed > done0 else t0
        if self.yardstick is None:
            host, ref = max(0.0, end - t0), 0.0
        else:
            host, ref = self.yardstick.measure(t0, end)
        self.host_s += host
        self.ref_s += ref
        self.epochs.append((log.completed - done0, host, ref))
        log.epoch_ends.append(dep.sim.now)
        self.pause()
        if self.stall is not None:
            unissued = 0
            for loop in loops:
                if loop.running:
                    unissued += loop.ops_per_cycle - loop.issued
                started = self.cycles[loop.name] + loop.running
                unissued += max(0, quota - started) * loop.ops_per_cycle
            log.stalled(unissued, f"stall guard: {self.stall}")
            return False
        for key, value in workload.counts(dep).items():
            self.counts[key] = self.counts.get(key, 0.0) + value - before.get(key, 0.0)
        checks = dep.sim.process(workload.finish(dep, log))
        try:
            Pump(log).run(dep.sim, lambda: checks.triggered)
        except StallError as exc:
            self.stall = str(exc)
            log.problems.append(f"epoch-end checks stalled: {exc}")
            return False
        # Every injected operation is accounted for.
        issued = sum(self.cycles[lp.name] * lp.ops_per_cycle for lp in loops)
        if not issued == log.attempted == log.completed + log.failed:
            log.problems.append(
                f"operations unaccounted: {issued} issued, {log.attempted} attempted, "
                f"{log.completed} completed, {log.failed} failed"
            )
        return True


def set_up(workload, seed):
    """Deploy ``setup_repeats`` times; keep the last deployment.

    Returns it (in a one-item list, for :meth:`Measurement.run`), the
    median set-up time in host and in reference seconds (each set-up
    scaled by the mean speed read before and after it), and the median
    host seconds of each timed public call."""
    host, ref, parts = [], [], {}
    handoff = []
    for _ in range(workload.setup_repeats):
        handoff.clear()
        gc.collect()
        before = Yardstick.speed()
        t0 = time.perf_counter()
        handoff.append(workload.deploy(seed, 0))
        host.append(time.perf_counter() - t0)
        ref.append(host[-1] * (before + Yardstick.speed()) / 2)
        for key, value in handoff[0].timings.items():
            parts.setdefault(key, []).append(value)
    medians = {k: statistics.median(v) for k, v in parts.items()}
    return handoff, statistics.median(host), statistics.median(ref), medians
