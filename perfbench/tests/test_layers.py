"""Per-layer attribution on a synthetic profile."""

import os

import pytest

from layers import LAYERS, PROGRAM_LAYERS, LayerMap, attribute

PKG = os.path.join(os.sep, "co", "src", "repro")
BENCH = os.path.join(os.sep, "co", "perfbench")

RUN = (os.path.join(BENCH, "run.py"), 1, "main")
KERNEL = (os.path.join(PKG, "sim", "kernel.py"), 10, "run")
LINK = (os.path.join(PKG, "net", "link.py"), 20, "send")
HEAP = ("~", 0, "<built-in method _heapq.heappush>")
JSON = ("/usr/lib/python3.11/json/encoder.py", 5, "encode")
LEN = ("~", 0, "<built-in method builtins.len>")


def _stats():
    # (cc, nc, tt, ct, callers{caller: (cc, nc, tt, ct)})
    return {
        RUN: (1, 1, 0.5, 10.0, {}),
        KERNEL: (1, 1, 2.0, 9.5, {RUN: (1, 1, 2.0, 9.5)}),
        LINK: (10, 10, 3.0, 5.5, {KERNEL: (10, 10, 3.0, 5.5)}),
        # heappush: 1.0 s from the kernel, 2.0 s from the link.
        HEAP: (30, 30, 3.0, 3.0, {KERNEL: (20, 20, 1.0, 1.0), LINK: (10, 10, 2.0, 2.0)}),
        # json called by the link only; len called by json only.
        JSON: (4, 4, 0.25, 0.5, {LINK: (4, 4, 0.25, 0.5)}),
        LEN: (8, 8, 0.25, 0.25, {JSON: (8, 8, 0.25, 0.25)}),
    }


def _layer_of(filename):
    return LayerMap(PKG, BENCH)(filename)


def test_layer_map():
    assert _layer_of(KERNEL[0]) == "sim"
    assert _layer_of(LINK[0]) == "net"
    assert _layer_of(RUN[0]) == "bench"
    assert _layer_of(HEAP[0]) is None
    assert _layer_of(JSON[0]) is None
    # A package of the program that is not a reported layer: charge the caller.
    assert _layer_of(os.path.join(PKG, "lint", "engine.py")) is None


def test_self_time_charges_stdlib_to_the_caller():
    self_s, _ = attribute(_stats(), _layer_of)
    assert set(self_s) == set(LAYERS)
    assert self_s["bench"] == pytest.approx(0.5)
    assert self_s["sim"] == pytest.approx(2.0 + 1.0)
    # own 3.0 + heappush 2.0 + json 0.25 + len (via json) 0.25
    assert self_s["net"] == pytest.approx(5.5)
    assert sum(self_s.values()) == pytest.approx(sum(v[2] for v in _stats().values()))


def test_calls_in_counts_calls_from_other_layers():
    _, calls_in = attribute(_stats(), _layer_of)
    assert set(calls_in) == set(PROGRAM_LAYERS)
    assert calls_in["sim"] == 1  # from the bench
    assert calls_in["net"] == 10  # from the kernel
    assert calls_in["kvstore"] == 0


def test_callback_through_a_builtin_counts_for_the_builtins_caller():
    stats = _stats()
    # The kernel resumes a link generator through a builtin `send`.
    send = ("~", 0, "<method 'send' of 'generator' objects>")
    stats[send] = (5, 5, 0.1, 1.0, {KERNEL: (5, 5, 0.1, 1.0)})
    cc, nc, tt, ct, callers = stats[LINK]
    stats[LINK] = (cc + 5, nc + 5, tt, ct, {**callers, send: (5, 5, 0.0, 0.5)})
    self_s, calls_in = attribute(stats, _layer_of)
    assert calls_in["net"] == 15
    assert self_s["sim"] == pytest.approx(3.1)


def test_orphan_stdlib_time_goes_to_bench():
    stats = {HEAP: (1, 1, 0.75, 0.75, {})}
    self_s, _ = attribute(stats, _layer_of)
    assert self_s["bench"] == pytest.approx(0.75)
