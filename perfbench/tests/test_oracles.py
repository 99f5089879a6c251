"""Hand-computed cases for the independent oracles."""

import random

import pytest

from oracles import (
    SPACE,
    KvBook,
    RingOracle,
    closest_id,
    decomposition_gap_s,
    lan_fetch_floor_s,
    ring_id,
    s3_fetch_floor_s,
)


def test_ring_id_is_top_40_bits_of_sha1():
    # SHA-1("abc") = a9993e3647 06816aba3e25717850c26c9cd0d89d (FIPS 180 vector).
    assert ring_id("abc") == 0xA9993E3647
    assert 0 <= ring_id("anything") < SPACE


def test_closest_id_plain():
    assert closest_id([10, 20, 40], 24) == 20
    assert closest_id([10, 20, 40], 31) == 40


def test_closest_id_tie_goes_to_smaller_id():
    assert closest_id([10, 20], 15) == 10


def test_closest_id_wraps_around_zero():
    # key 2: SPACE-3 is 5 away across zero, 10 is 8 away.
    assert closest_id([10, SPACE - 3], 2) == SPACE - 3
    # key SPACE-1: 4 is 5 away across zero, SPACE-20 is 19 away.
    assert closest_id([4, SPACE - 20], SPACE - 1) == 4


def test_closest_id_tie_across_zero():
    # key 0 sits 5 from both 5 and SPACE-5: the smaller id wins.
    assert closest_id([5, SPACE - 5], 0) == 5


def test_ring_oracle_matches_brute_force():
    rng = random.Random(7)
    names = [f"n{rng.randrange(10**9)}" for _ in range(200)]
    ring = RingOracle(names)

    def brute(key):
        k = ring_id(key)

        def dist(n):
            cw = (ring_id(n) - k) % SPACE
            return min(cw, SPACE - cw)

        return min(names, key=lambda n: (dist(n), ring_id(n)))

    for i in range(500):
        assert ring.owner(f"key{i}") == brute(f"key{i}")


def test_lan_floor_uses_the_per_flow_cap():
    # 8 MiB at an 8 MiB/s cap on a 95.5 Mb/s LAN: the cap binds, 1 s.
    assert lan_fetch_floor_s(8.0, 95.5, 8.0) == pytest.approx(1.0)


def test_lan_floor_uses_the_lan_when_slower():
    # 10 MiB over an 80 Mb/s LAN (1e7 B/s) with a 20 MiB/s cap.
    assert lan_fetch_floor_s(10.0, 80.0, 20.0) == pytest.approx(10 * 1048576 / 1e7)


def test_lan_floor_of_parallel_flows_is_the_lan_rate():
    # 4 flows of 8 MiB/s exceed a 95.5 Mb/s LAN: 11.9375e6 B/s binds.
    assert lan_fetch_floor_s(8.0, 95.5, 8.0, flows=4) == pytest.approx(8 * 1048576 / 11.9375e6)
    # 2 flows of 1 MiB/s on the same LAN: 2 MiB/s binds.
    assert lan_fetch_floor_s(8.0, 95.5, 1.0, flows=2) == pytest.approx(4.0)


def test_s3_floor():
    assert s3_fetch_floor_s(5.2, 2.6) == pytest.approx(2.0)


def test_decomposition():
    assert decomposition_gap_s(3.0, 1.0, 1.0, 1.0) == 0.0
    assert decomposition_gap_s(3.0, 1.0, 1.0, 1.5) == pytest.approx(0.5)


def _book_with_two_puts():
    book = KvBook()
    a = book.issue_put("k", ["k", 1], 0.0)
    book.ack_put(a, 1, 1.0)
    b = book.issue_put("k", ["k", 2], 2.0)
    book.ack_put(b, 2, 3.0)
    return book


def test_written_values():
    book = _book_with_two_puts()
    assert book.written("k", ["k", 1])
    assert not book.written("k", ["k", 9])
    assert not book.written("other", ["k", 1])


def test_stale_read():
    book = _book_with_two_puts()
    # Issued at 4, after v2 was acked at 3: reading v1 is stale.
    assert book.is_stale("k", ["k", 1], 4.0)
    assert not book.is_stale("k", ["k", 2], 4.0)
    # Issued at 2.5, before v2 was acked: v1 is still current.
    assert not book.is_stale("k", ["k", 1], 2.5)


def test_final_record_must_be_the_last_version():
    book = _book_with_two_puts()
    assert book.final_problems("k", ["k", 2], 2) == []
    assert book.final_problems("k", ["k", 1], 1)
    assert book.final_problems("k", ["k", 7], 2)
    assert book.final_problems("never", ["x"], 1)


def test_concurrent_puts_final_is_highest_version():
    book = _book_with_two_puts()
    c = book.issue_put("k", ["k", 3], 5.0)
    d = book.issue_put("k", ["k", 4], 5.5)
    book.ack_put(d, 3, 6.0)  # applied first
    book.ack_put(c, 4, 7.0)
    assert book.final_problems("k", ["k", 3], 4) == []
    assert book.final_problems("k", ["k", 4], 3)


def test_duplicate_or_missing_versions_are_reported():
    book = KvBook()
    a = book.issue_put("k", 1, 0.0)
    b = book.issue_put("k", 2, 0.0)
    book.ack_put(a, 1, 1.0)
    book.ack_put(b, 1, 1.0)
    assert any("not 1..n" in p for p in book.final_problems("k", 2, 1))
    book.issue_put("k", 3, 2.0)
    assert any("never acknowledged" in p for p in book.final_problems("k", 2, 1))
