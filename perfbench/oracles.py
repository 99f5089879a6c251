"""Independent output checks for the benchmark workloads.

Nothing here imports the program: each oracle recomputes what the
program's answer must be (or a bound it must respect) from the inputs
the benchmark generated and the configuration it passed in.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = [
    "ID_BITS",
    "ring_id",
    "closest_id",
    "RingOracle",
    "lan_fetch_floor_s",
    "s3_fetch_floor_s",
    "decomposition_gap_s",
    "KvBook",
]

#: Width of the overlay identifier space (Chimera's 40-bit ring).
ID_BITS = 40
SPACE = 1 << ID_BITS
MB = 1024 * 1024
#: Slack for float sums of simulated times.
EPS_S = 1e-9


def ring_id(name: str) -> int:
    """SHA-1 of ``name``, its top 40 bits as an unsigned integer."""
    return int.from_bytes(hashlib.sha1(name.encode()).digest()[:5], "big")


def _distance(a: int, b: int) -> int:
    cw = (b - a) % SPACE
    return min(cw, SPACE - cw)


def closest_id(sorted_ids: list[int], key: int) -> int:
    """The id numerically closest to ``key`` in circular space, ties to
    the smaller id.  ``sorted_ids`` is ascending and not empty."""
    n = len(sorted_ids)
    i = bisect_left(sorted_ids, key)
    # Only the two ring neighbours of the key can be closest.
    candidates = {sorted_ids[i % n], sorted_ids[(i - 1) % n]}
    return min(candidates, key=lambda node: (_distance(node, key), node))


class RingOracle:
    """Key ownership on the ring: the node whose id is closest to the
    key's id (see :func:`closest_id`)."""

    def __init__(self, node_names) -> None:
        self._by_id = {ring_id(n): n for n in node_names}
        if not self._by_id:
            raise ValueError("a ring needs at least one node")
        self._ids = sorted(self._by_id)

    def owner(self, key_name: str) -> str:
        return self._by_id[closest_id(self._ids, ring_id(key_name))]


def lan_fetch_floor_s(
    size_mb: float, bandwidth_mbps: float, flow_cap_mb_s: float, flows: int = 1
) -> float:
    """Least time to move ``size_mb`` over the home LAN in ``flows``
    parallel flows: each runs at most at the per-flow cap, and together
    they run at most at the LAN rate."""
    rate_b_s = min(flows * flow_cap_mb_s * MB, bandwidth_mbps * 1e6 / 8)
    return size_mb * MB / rate_b_s


def s3_fetch_floor_s(size_mb: float, down_capacity_mb_s: float) -> float:
    """Least time to download ``size_mb`` from S3 over the WAN downlink."""
    return size_mb / down_capacity_mb_s


def decomposition_gap_s(total_s: float, *parts: float) -> float:
    """Table I's decomposition: the total covers the sum of its parts.

    Returns how far the parts overrun the total (0 when it holds).
    """
    return max(0.0, sum(parts) - total_s - EPS_S)


@dataclass
class _Put:
    value: object
    issued: float
    acked: float | None = None
    version: int | None = None


@dataclass
class _Key:
    puts: list[_Put] = field(default_factory=list)
    by_value: dict = field(default_factory=dict)


class KvBook:
    """Value and version bookkeeping for KV writes under OVERWRITE.

    Every put carries a value unique to it.  The owner numbers applied
    writes 1, 2, 3, ... per key, so once every put is acknowledged the
    acknowledged versions of a key are exactly ``1..n`` and the stored
    record is version ``n`` holding that put's value.
    """

    def __init__(self) -> None:
        self._keys: dict[str, _Key] = {}

    @staticmethod
    def _hashable(value):
        return repr(value)

    def issue_put(self, key: str, value, now: float) -> _Put:
        entry = self._keys.setdefault(key, _Key())
        put = _Put(value, now)
        entry.puts.append(put)
        entry.by_value[self._hashable(value)] = put
        return put

    def ack_put(self, put: _Put, version: int, now: float) -> None:
        put.acked = now
        put.version = version

    def written(self, key: str, value) -> bool:
        """Was ``value`` ever written under ``key`` (acked or not)?"""
        entry = self._keys.get(key)
        return entry is not None and self._hashable(value) in entry.by_value

    def is_stale(self, key: str, value, issued: float) -> bool:
        """A read issued at ``issued`` is stale when it returns a version
        older than a put acknowledged before the read was issued.

        Call after every put of ``key`` is acknowledged."""
        entry = self._keys[key]
        got = entry.by_value[self._hashable(value)]
        newest = max(
            (p.version for p in entry.puts if p.acked is not None and p.acked <= issued),
            default=0,
        )
        return got.version is not None and got.version < newest

    def final_problems(self, key: str, value, version: int) -> list[str]:
        """Check the record a key's owner holds once all writes drained."""
        entry = self._keys.get(key)
        if entry is None:
            return [f"{key}: record held but never written"]
        problems = []
        versions = sorted(p.version for p in entry.puts if p.version is not None)
        if len(versions) != len(entry.puts):
            problems.append(f"{key}: {len(entry.puts) - len(versions)} puts never acknowledged")
        if versions != list(range(1, len(versions) + 1)):
            problems.append(f"{key}: acknowledged versions {versions[:6]}... are not 1..n")
        if not self.written(key, value):
            return problems + [f"{key}: holds a value never written: {value!r}"]
        got = entry.by_value[self._hashable(value)]
        last_issue = max(p.issued for p in entry.puts)
        floor = max(
            (p.version for p in entry.puts if p.acked is not None and p.acked <= last_issue),
            default=0,
        )
        if got.version is not None and got.version < floor:
            problems.append(f"{key}: holds version {got.version}, older than acked {floor}")
        if versions and (version != versions[-1] or got.version != versions[-1]):
            problems.append(
                f"{key}: holds version {version} (value of v{got.version}), "
                f"expected v{versions[-1]}"
            )
        return problems
