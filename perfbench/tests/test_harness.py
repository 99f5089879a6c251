"""Stall guard, cycle quota, yardstick and operation log."""

import gc
import math

import pytest

from harness import Failed, Incorrect, OpLog, Pump, StallError, Yardstick, _loop_process
from repro.net import Link
from repro.sim import Simulator
from repro.vstore.errors import ObjectNotFoundError
from workloads import Loop


def _flow_at(start_time):
    sim = Simulator(start_time=start_time)
    flow = Link(sim, 8.39e6).open_flow(1.5e-6)
    return sim, flow


def test_stall_guard_ends_a_livelocked_run():
    sim, flow = _flow_at(2100.0)
    with pytest.raises(StallError):
        Pump(OpLog()).run(sim, lambda: flow.done.triggered)
    assert not flow.done.triggered


def test_pump_finishes_a_flow_before_the_boundary():
    sim, flow = _flow_at(1000.0)
    Pump(OpLog()).run(sim, lambda: flow.done.triggered)
    assert flow.done.triggered


def test_loops_stop_at_the_quota_or_the_horizon():
    sim = Simulator()
    done = []

    def cycle(index):
        yield sim.timeout(1.0)
        done.append(index)

    loop, cycles = Loop("a", 1, cycle), {"a": 0}
    sim.process(_loop_process(sim, loop, 3, math.inf, cycles))
    sim.run()
    assert done == [0, 1, 2] and cycles == {"a": 3} and not loop.running

    loop = Loop("a", 1, cycle)
    sim.process(_loop_process(sim, loop, 10, sim.now + 1.5, cycles))
    sim.run()
    assert done == [0, 1, 2, 3, 4] and cycles == {"a": 5} and not loop.running


def test_yardstick_scales_each_stretch_by_the_median_speed_around_it():
    yardstick = Yardstick()
    # One stray reading is smoothed away.
    yardstick.segments = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 10.0), (3, 4, 1.0), (4, 5, 1.0)]
    assert yardstick.measure(0, 5) == (5.0, 5.0)
    assert yardstick.measure(2.5, 3.5) == (1.0, 1.0)
    # A phase of another speed is followed.
    yardstick.segments = [(i, i + 1, 1.0 if i < 3 else 3.0) for i in range(6)]
    assert yardstick.measure(2, 4) == (2.0, 4.0)


def test_yardstick_reading_leaves_the_gc_as_it_was():
    assert Yardstick.speed() > 0 and gc.isenabled()
    gc.disable()
    try:
        assert Yardstick.speed() > 0 and not gc.isenabled()
    finally:
        gc.enable()


def test_pump_records_an_unconsumed_failure_and_goes_on():
    sim = Simulator()
    log = OpLog()
    orphan = sim.event()
    done = sim.timeout(5.0)
    sim.timeout(1.0).callbacks.append(lambda _: orphan.fail(ObjectNotFoundError("x")))
    Pump(log).run(sim, lambda: done.processed)
    assert len(log.orphans) == 1 and "ObjectNotFoundError" in log.orphans[0]
    assert sim.now == 5.0


def _run(sim, log, gen, oid="a"):
    proc = sim.process(log.op(sim, oid, "k", gen))
    sim.run()
    return proc.value


def _returns(value):
    return value
    yield  # pragma: no cover


def _raises(exc):
    raise exc
    yield  # pragma: no cover


def test_op_log_outcomes():
    sim = Simulator()
    log = OpLog()
    assert _run(sim, log, _returns("ok")) == "ok"
    _run(sim, log, _raises(Failed("leak")))
    _run(sim, log, _raises(ObjectNotFoundError("x")))
    _run(sim, log, _raises(Incorrect("wrong size")))
    assert (log.attempted, log.completed, log.failed, log.inflight) == (4, 1, 3, 0)
    assert log.failures == {
        "k: leak": 1,
        "k: ObjectNotFoundError": 1,
        "k: incorrect output": 1,
    }
    assert log.problems == ["a k: wrong size"]
    with pytest.raises(ValueError):
        _run(sim, log, _raises(ValueError("a bug in the benchmark")))


def test_fingerprint_covers_every_outcome():
    def fingerprint(*results):
        log = OpLog()
        sim = Simulator()
        for oid, result in results:
            _run(sim, log, _returns(result), oid)
        return log.fingerprint()

    assert fingerprint(("a", "x"), ("b", "y")) == fingerprint(("a", "x"), ("b", "y"))
    assert fingerprint(("a", "x"), ("b", "y")) != fingerprint(("a", "x"), ("b", "z"))
    assert fingerprint(("a", "x")) != fingerprint(("a", "x"), ("b", "y"))


def test_stall_fails_inflight_and_unissued():
    log = OpLog(attempted=5, inflight=2)
    log.stalled(3, "stall")
    assert (log.attempted, log.failed, log.inflight) == (8, 5, 0)
