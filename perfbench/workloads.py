"""The benchmark's three workloads, each driven through public APIs only:
``Cloud4Home``, ``Device.kv``, ``Device.client``, ``deploy_service`` and
``ChaosSchedule``.

A workload deploys a fresh cluster per *epoch* and runs its loops on it.
Every input is drawn from ``random.Random`` streams named after the
seed, the epoch and the purpose, so one seed always gives the same
inputs.  Home-media and durable-churn keep each epoch below about
1,800 s of simulated time: past 2,048 s a LAN flow can livelock the
simulator (see ``link_stall.py``), on some seeds only.  A home-media
epoch ends at its horizon; a durable-churn epoch after 20 cycles per
loop, with the horizon as a guard.  The next epoch starts on a new
deployment.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from dataclasses import dataclass, field

from repro.cluster import ChaosSchedule, Cloud4Home, large_home, paper_testbed, scale_overlay
from repro.kvstore.errors import KeyNotFoundError
from repro.services import FaceDetection, FaceRecognition
from repro.vstore import Placement, PlacementTarget, StorePolicy, tag_rule
from repro.vstore.errors import ObjectNotFoundError
from repro.vstore.node import object_key

from harness import PROGRAM_ERRORS, Failed, Incorrect, OpLog
from oracles import (
    KvBook,
    RingOracle,
    decomposition_gap_s,
    lan_fetch_floor_s,
    ring_id,
    s3_fetch_floor_s,
)

__all__ = ["WORKLOADS", "Deployment", "Workload"]

PIPELINE = ["face-detect#v1", "face-recognize#v1"]


def stream(seed: int, *purpose) -> random.Random:
    """An input stream named by the seed and its purpose."""
    return random.Random(":".join(str(p) for p in (seed, *purpose)))


def config_seed(seed: int, epoch: int) -> int:
    digest = hashlib.sha256(f"{seed}:{epoch}:cluster".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class Deployment:
    """One epoch: a started cluster and the workload's state on it."""

    c4h: Cloud4Home
    epoch: int
    seed: int
    timings: dict
    state: dict = field(default_factory=dict)

    @property
    def sim(self):
        return self.c4h.sim


@dataclass
class Loop:
    """A closed-loop user (or the open-loop arrival generator)."""

    name: str
    ops_per_cycle: int
    cycle: object  # cycle(index) -> process generator
    issued: int = 0
    running: bool = True


class Workload:
    """Base: deploy, loops, epoch-end checks and simulated counters."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Cycles each loop runs on one deployment.
    epoch_cycles = math.inf
    #: No loop starts a cycle past this simulated time.
    horizon_s = math.inf
    #: Cycles each loop runs per second of ``--seconds``.  README,
    #: "Workloads, seeds and inputs", gives the host time this takes.
    cycles_per_s = 1.0

    def deploy(self, seed: int, epoch: int) -> Deployment:
        raise NotImplementedError

    def loops(self, dep: Deployment, log: OpLog) -> list[Loop]:
        raise NotImplementedError

    def finish(self, dep: Deployment, log: OpLog):
        """Process: checks once an epoch's loops stopped and drained."""
        return
        yield  # pragma: no cover - generator marker

    def background(self, dep: Deployment):
        """Processes that run beside the loops (churn); stopped by finish."""
        return []

    def run_problems(self, log: OpLog) -> list[str]:
        """Checks over a whole measured phase."""
        return []

    def counts(self, dep: Deployment) -> dict:
        """Simulated work counters of this deployment (cumulative)."""
        c4h = dep.c4h
        registry = c4h.collect_metrics()
        totals: dict[str, float] = {}
        for (name, _node), counter in registry.counter_items():
            if name.startswith("kv."):
                totals[name] = totals.get(name, 0.0) + counter.value
        links = (c4h.lan_link, c4h.uplink, c4h.downlink)
        repairs = sum(len(d.repairer.repairs) for d in c4h.devices if d.repairer is not None)
        tel = c4h.telemetry
        return {
            "net.messages": c4h.network.messages_delivered,
            "net.bytes": sum(link.bytes_delivered for link in links),
            "kv.ops": totals.get("kv.gets", 0) + totals.get("kv.puts", 0)
            + totals.get("kv.deletes", 0),
            "kv.forwards": totals.get("kv.forwards", 0),
            "kv.gets": totals.get("kv.gets", 0),
            "kv.cache_hits": totals.get("kv.cache_hits", 0),
            "resilience.repairs": repairs,
            "telemetry.spans": 0 if tel is None else len(tel.spans) + tel.dropped,
        }


def _timed(timings: dict, key: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0
    return result


def _fetch_checks(log: OpLog, result, size_mb: float, lan, wan) -> None:
    """Size, transfer lower bound and Table I decomposition of a fetch.

    The fetch's DHT-lookup leg is also a sample of KV get latency."""
    log.sample("kv.get", result.dht_lookup_s)
    if abs(result.meta.size_mb - size_mb) > 1e-9:
        raise Incorrect(f"size {result.meta.size_mb} MB, stored {size_mb} MB")
    gap = decomposition_gap_s(
        result.total_s,
        result.dht_lookup_s,
        result.inter_node_s,
        result.inter_domain_s,
        result.remote_cloud_s,
    )
    if gap > 0:
        raise Incorrect(f"parts exceed total {result.total_s:.6f} s by {gap:.3g} s")
    if result.served_from == "remote-cloud":
        floor = s3_fetch_floor_s(size_mb, wan.down_capacity_mb_s)
        moved = result.remote_cloud_s
    elif result.served_from not in ("local", ""):
        # A striped fetch pulls its chunks in parallel flows.
        flows = result.meta.stripe_k if result.served_from.startswith("stripe") else 1
        floor = lan_fetch_floor_s(size_mb, lan.bandwidth_mbps, lan.flow_cap_mb_s, flows)
        moved = result.inter_node_s
    else:
        return
    if moved + 1e-9 < floor:
        raise Incorrect(
            f"moved {size_mb:.3f} MB from {result.served_from} in {moved:.4f} s, "
            f"below the {floor:.4f} s floor"
        )


def _gone(c4h: Cloud4Home, device, name: str):
    """Process: a deleted object is held by no live device nor S3, and a
    fetch of it raises ObjectNotFoundError.  Raises Failed otherwise."""
    holders = [
        d.name for d in c4h.devices
        if c4h.network.hosts[d.name].online and d.vstore.holds(name)
    ]
    if name in c4h.s3.objects:
        holders.append("s3")
    if holders:
        raise Failed("payload copies left after delete")
    try:
        yield from device.client.fetch_object(name)
    except ObjectNotFoundError:
        return
    raise Failed("object still fetchable after delete")


# -- kv-overlay-4k -------------------------------------------------------------


class KvOverlay(Workload):
    """Open-loop zipfian KV gets and puts on a ~4,000-node overlay."""

    name = "kv-overlay-4k"
    nodes = 4000
    keys = 4096
    #: Simulated arrivals per second.  ``knee.py`` finds get latency flat
    #: up to 16,000/s and the knee between 16,000 and 32,000/s; at 1,000/s
    #: about 15 operations are in flight (README, "Load against the knee").
    rate_per_s = 1000.0
    round_ops = 256
    get_share = 0.9
    zipf_s = 0.99
    cycles_per_s = 7.0

    def deploy(self, seed: int, epoch: int) -> Deployment:
        timings: dict = {}
        c4h = _timed(timings, "build_s", Cloud4Home, scale_overlay(self.nodes, seed=config_seed(seed, epoch)))
        _timed(timings, "start_s", c4h.start, monitors=False, publish=False)
        dep = Deployment(c4h, epoch, seed, timings)
        _timed(timings, "prepopulate_s", self._prepopulate, dep)
        return dep

    def _prepopulate(self, dep: Deployment) -> None:
        rng = stream(dep.seed, dep.epoch, "kv-keys")
        # Key i has popularity rank i on every seed.  A put of a hot key
        # pushes one cache update per holder, so host cost per op hangs
        # on which ring positions the hottest keys land; a per-seed
        # shuffle of ranks moved ops_per_s by 3x between seeds.
        names = [f"key{i:05d}" for i in range(self.keys)]
        weights = itertools.accumulate(1.0 / (r + 1) ** self.zipf_s for r in range(self.keys))
        dep.state.update(
            names=names,
            cum_weights=list(weights),
            book=KvBook(),
            gets=[],
            seq=itertools.count(),
        )
        devices = dep.c4h.devices
        writes = [(name, devices[rng.randrange(len(devices))]) for name in names]
        for lo in range(0, len(writes), 256):
            batch = [self._put(dep, name, dev) for name, dev in writes[lo:lo + 256]]
            dep.c4h.run(_all(dep.sim, batch))

    def _put(self, dep: Deployment, key: str, device):
        value = [key, next(dep.state["seq"])]
        book = dep.state["book"]
        put = book.issue_put(key, value, dep.sim.now)
        record = yield from device.kv.put(key, value)
        if record.latest.value != value:
            raise Incorrect(f"put {key} acknowledged {record.latest.value!r}, wrote {value!r}")
        book.ack_put(put, record.version, dep.sim.now)
        return f"v{record.version}"

    def _get(self, dep: Deployment, key: str, device):
        issued = dep.sim.now
        value = yield from device.kv.get(key)
        if not dep.state["book"].written(key, value):
            raise Incorrect(f"get {key} returned {value!r}, never written")
        dep.state["gets"].append((key, value, issued))
        return repr(value)

    def loops(self, dep: Deployment, log: OpLog) -> list[Loop]:
        rng = stream(dep.seed, dep.epoch, "kv-arrivals")
        devices = dep.c4h.devices
        state = dep.state
        sim = dep.sim

        def cycle(index: int):
            for i in range(self.round_ops):
                yield sim.timeout(rng.expovariate(self.rate_per_s))
                key = rng.choices(state["names"], cum_weights=state["cum_weights"])[0]
                device = devices[rng.randrange(len(devices))]
                oid = f"e{dep.epoch}/r{index:05d}/{i:03d}"
                if rng.random() < self.get_share:
                    gen = log.op(sim, oid, "kv.get", self._get(dep, key, device))
                else:
                    gen = log.op(sim, oid, "kv.put", self._put(dep, key, device))
                sim.process(gen)
                loop.issued += 1

        loop = Loop("arrivals", self.round_ops, cycle)
        return [loop]

    def finish(self, dep: Deployment, log: OpLog):
        book = dep.state["book"]
        log.stale_reads += sum(
            1 for key, value, issued in dep.state["gets"] if book.is_stale(key, value, issued)
        )
        ring = RingOracle(d.name for d in dep.c4h.devices)
        for key in dep.state["names"]:
            owner = dep.c4h.device(ring.owner(key))
            record = owner.kv.primary.get(f"{ring_id(key):010x}")
            if record is None:
                log.problems.append(f"{key}: ring owner {owner.name} holds no record")
                continue
            log.problems.extend(book.final_problems(key, record.latest.value, record.version))
        return
        yield  # pragma: no cover - generator marker


def _all(sim, generators):
    """Process: run generators concurrently; re-raise the first failure."""
    yield sim.gather(generators)


# -- home-media -----------------------------------------------------------------


@dataclass
class _Obj:
    name: str
    size_mb: float
    readers: int = 0


class HomeMedia(Workload):
    """The paper's testbed under one closed-loop user per device."""

    name = "home-media"
    setup_repeats = 15
    horizon_s = 1700.0
    cycles_per_s = 33.0
    media_per_device = 3
    shares_per_device = 2

    def deploy(self, seed: int, epoch: int) -> Deployment:
        timings: dict = {}
        c4h = _timed(timings, "build_s", Cloud4Home, paper_testbed(seed=config_seed(seed, epoch)))
        _timed(timings, "start_s", c4h.start)
        dep = Deployment(c4h, epoch, seed, timings)
        _timed(timings, "prepopulate_s", self._prepopulate, dep)
        return dep

    def _prepopulate(self, dep: Deployment) -> None:
        c4h = dep.c4h
        for factory in (FaceDetection, FaceRecognition):
            c4h.deploy_service(factory, nodes=["netbook0", "desktop"])
        shareable = StorePolicy([tag_rule(Placement(PlacementTarget.REMOTE_CLOUD), "shareable")])
        for device in c4h.devices:
            device.vstore.store_policy = shareable
        rng = stream(dep.seed, dep.epoch, "corpus")
        media: dict[str, list[_Obj]] = {}
        shares: dict[str, list[_Obj]] = {}
        frames: dict[str, str] = {}
        for device in c4h.devices:
            media[device.name] = []
            for i in range(self.media_per_device):
                obj = _Obj(f"{device.name}/seed-media{i}.mp4", rng.uniform(0.5, 20.0))
                c4h.run(device.client.store_file(obj.name, obj.size_mb))
                media[device.name].append(obj)
            shares[device.name] = []
            for i in range(self.shares_per_device):
                obj = _Obj(f"{device.name}/seed-share{i}.mp4", rng.uniform(0.5, 5.0))
                c4h.run(device.client.store_file(obj.name, obj.size_mb, tags=["shareable"]))
                shares[device.name].append(obj)
            frames[device.name] = f"{device.name}/seed-frame.jpg"
            c4h.run(device.client.store_file(frames[device.name], rng.uniform(0.25, 2.0)))
        dep.state.update(
            media=media,
            shares=shares,
            frames=frames,
            executors={"netbook0", "desktop", *(e.name for e in c4h.ec2)},
        )

    def loops(self, dep: Deployment, log: OpLog) -> list[Loop]:
        return [self._user(dep, log, device) for device in dep.c4h.devices]

    def _user(self, dep: Deployment, log: OpLog, device) -> Loop:
        c4h, sim, state = dep.c4h, dep.sim, dep.state
        lan, wan = c4h.config.lan, c4h.config.wan
        rng = stream(dep.seed, dep.epoch, "user", device.name)
        me = device.name

        def op(oid, kind, gen):
            loop.issued += 1
            return log.op(sim, f"e{dep.epoch}/{me}/{oid}", kind, gen)

        def store(name, size_mb, tags=None, remote=False):
            result = yield from device.client.store_file(name, size_mb, tags=tags)
            if abs(result.meta.size_mb - size_mb) > 1e-9:
                raise Incorrect(f"stored {result.meta.size_mb} MB of {size_mb} MB")
            if result.meta.is_remote != remote:
                raise Incorrect(f"{name} placed at {result.meta.location!r}")
            return result.meta.location

        def pipeline(name):
            result = yield from device.client.process_pipeline(name, PIPELINE)
            if result.executed_on not in state["executors"]:
                raise Incorrect(f"pipeline ran on {result.executed_on}, not deployed there")
            return result.executed_on

        def fetch(obj, whole=True):
            obj.readers += 1
            try:
                if whole:
                    result = yield from device.client.fetch_object(obj.name)
                else:
                    offset = rng.uniform(0.0, obj.size_mb / 2)
                    length = rng.uniform(0.0, obj.size_mb - offset)
                    result = yield from device.client.fetch_range(obj.name, offset, length)
            finally:
                obj.readers -= 1
            _fetch_checks(log, result, obj.size_mb, lan, wan)
            return result.served_from

        def delete(pool, obj):
            pool.remove(obj)
            while obj.readers:
                yield sim.timeout(0.5)
            yield from device.client.delete_object(obj.name)
            yield from _gone(c4h, device, obj.name)
            return "gone"

        def others(kind):
            pool = [o for name, objs in sorted(state[kind].items()) if name != me for o in objs]
            return rng.choice(pool)

        def cycle(index: int):
            tag = f"c{index:04d}"
            frame = f"{me}/e{dep.epoch}/{tag}.jpg"
            yield from op(f"{tag}/frame", "store", store(frame, rng.uniform(0.25, 2.0)))
            yield from op(f"{tag}/pipeline", "pipeline", pipeline(frame))
            old_frame, state["frames"][me] = state["frames"][me], frame
            old = _Obj(old_frame, 0.0)
            yield from op(f"{tag}/frame-del", "delete", delete([old], old))
            yield from op(f"{tag}/fetch", "fetch", fetch(others("media")))
            yield from op(f"{tag}/range", "fetch_range", fetch(others("media"), whole=False))
            media = _Obj(f"{me}/e{dep.epoch}/{tag}.mp4", rng.uniform(0.5, 20.0))
            yield from op(f"{tag}/media", "store", store(media.name, media.size_mb))
            state["media"][me].append(media)
            own = state["media"][me]
            yield from op(f"{tag}/media-del", "delete", delete(own, own[0]))
            share = _Obj(f"{me}/e{dep.epoch}/{tag}-share.mp4", rng.uniform(0.5, 5.0))
            yield from op(
                f"{tag}/share", "store", store(share.name, share.size_mb, ["shareable"], True)
            )
            state["shares"][me].append(share)
            yield from op(f"{tag}/share-fetch", "fetch", fetch(others("shares")))
            own = state["shares"][me]
            yield from op(f"{tag}/share-del", "delete", delete(own, own[0]))

        loop = Loop(me, 10, cycle)
        return loop


# -- durable-churn ----------------------------------------------------------------


class DurableChurn(Workload):
    """Writes beside churn on a 24-device home with every feature on."""

    name = "durable-churn"
    setup_repeats = 11
    epoch_cycles = 20
    horizon_s = 1500.0
    #: How fast the home serves depends on which devices the churn hits
    #: and when, so fewer cycles give a wider spread between seeds
    #: (README, "Steadiness").
    cycles_per_s = 7.5
    clients = ("dev00", "dev01", "dev02", "dev03", "dev04", "dev05")
    index_keys = 8

    def deploy(self, seed: int, epoch: int) -> Deployment:
        timings: dict = {}
        config = large_home(
            24,
            seed=config_seed(seed, epoch),
            resilience=True,
            data_replicas=2,
            striping=True,
            storage="wal",
            slo=True,
            parallel_decision=True,
            replication_factor=3,
        )
        c4h = _timed(timings, "build_s", Cloud4Home, config)
        _timed(timings, "start_s", c4h.start)
        dep = Deployment(c4h, epoch, seed, timings)
        _timed(timings, "prepopulate_s", self._prepopulate, dep)
        return dep

    def _prepopulate(self, dep: Deployment) -> None:
        c4h = dep.c4h
        rng = stream(dep.seed, dep.epoch, "corpus")
        small: dict[str, list[_Obj]] = {}
        large: dict[str, list[_Obj]] = {}
        index: dict[str, object] = {}
        for me in self.clients:
            device = c4h.device(me)
            small[me] = []
            for i in range(2):
                obj = _Obj(f"{me}/seed-small{i}", rng.uniform(0.5, 3.5))
                c4h.run(device.client.store_file(obj.name, obj.size_mb))
                small[me].append(obj)
            obj = _Obj(f"{me}/seed-large", rng.uniform(4.0, 16.0))
            c4h.run(device.client.store_file(obj.name, obj.size_mb))
            large[me] = [obj]
            for k in range(self.index_keys):
                key = f"index/{me}/{k}"
                index[key] = {"seq": 0, "epoch": dep.epoch}
                c4h.run(device.kv.put(key, index[key]))
        dep.state.update(small=small, large=large, index=index, deleted=[], stop=False)

    def background(self, dep: Deployment):
        return [self._churn(dep)]

    def run_problems(self, log: OpLog) -> list[str]:
        return [] if log.wal_recoveries else ["no revive replayed a WAL journal"]

    def _churn(self, dep: Deployment):
        """Process: crash and revive one non-client device at a time."""
        c4h, sim = dep.c4h, dep.sim
        rng = stream(dep.seed, dep.epoch, "churn")
        chaos = ChaosSchedule(c4h)
        chaos.start()
        dep.state["chaos"] = chaos
        victims = [d.name for d in c4h.devices if d.name not in self.clients]
        while not dep.state["stop"]:
            yield sim.timeout(rng.uniform(20.0, 40.0))
            victim = rng.choice(victims)
            applied = len(chaos.events)
            chaos.crash(0.0, victim)
            yield sim.timeout(rng.uniform(20.0, 40.0))
            chaos.revive(0.0, victim)
            while len(chaos.events) < applied + 2:
                yield sim.timeout(1.0)

    def loops(self, dep: Deployment, log: OpLog) -> list[Loop]:
        return [self._client(dep, log, me) for me in self.clients]

    def _client(self, dep: Deployment, log: OpLog, me: str) -> Loop:
        c4h, sim, state = dep.c4h, dep.sim, dep.state
        lan, wan = c4h.config.lan, c4h.config.wan
        device = c4h.device(me)
        rng = stream(dep.seed, dep.epoch, "client", me)

        def op(oid, kind, gen):
            loop.issued += 1
            return log.op(sim, f"e{dep.epoch}/{me}/{oid}", kind, gen)

        def store(pool, obj):
            result = yield from device.client.store_file(obj.name, obj.size_mb)
            if abs(result.meta.size_mb - obj.size_mb) > 1e-9:
                raise Incorrect(f"stored {result.meta.size_mb} MB of {obj.size_mb} MB")
            pool.append(obj)
            return "striped" if result.meta.is_striped else f"+{len(result.meta.replicas)}"

        def put_index(key):
            value = {"seq": state["index"][key]["seq"] + 1, "epoch": dep.epoch}
            record = yield from device.kv.put(key, value)
            if record.latest.value != value:
                raise Incorrect(f"put {key} acknowledged {record.latest.value!r}")
            state["index"][key] = value
            return f"v{record.version}"

        def fetch(obj):
            result = yield from device.client.fetch_object(obj.name)
            _fetch_checks(log, result, obj.size_mb, lan, wan)
            return result.served_from

        def delete(pool):
            obj = pool.pop(0)
            state["deleted"].append((me, obj.name))
            yield from device.client.delete_object(obj.name)
            yield from _gone(c4h, device, obj.name)
            return "gone"

        def cycle(index: int):
            tag = f"c{index:04d}"
            small = _Obj(f"{me}/e{dep.epoch}/{tag}-s", rng.uniform(0.5, 3.5))
            yield from op(f"{tag}/small", "store", store(state["small"][me], small))
            large = _Obj(f"{me}/e{dep.epoch}/{tag}-l", rng.uniform(4.0, 16.0))
            yield from op(f"{tag}/large", "store", store(state["large"][me], large))
            for i in range(2):
                key = f"index/{me}/{rng.randrange(self.index_keys)}"
                yield from op(f"{tag}/index{i}", "kv.put", put_index(key))
            live = state["small"][me] + state["large"][me]
            yield from op(f"{tag}/fetch", "fetch", fetch(rng.choice(live)))
            yield from op(f"{tag}/delete", "delete", delete(state["small"][me]))

        loop = Loop(me, 6, cycle)
        return loop

    def finish(self, dep: Deployment, log: OpLog):
        """Every acknowledged, undeleted store reads back with its size;
        every index key reads back its last acknowledged value; some
        revive replayed a WAL journal."""
        c4h, sim, state = dep.c4h, dep.sim, dep.state
        state["stop"] = True
        for process in state["background"]:
            yield process
        yield sim.timeout(60.0)  # anti-entropy and repair after the last revive

        def read_back(me):
            device = c4h.device(me)
            for obj in state["small"][me] + state["large"][me]:
                try:
                    result = yield from device.client.fetch_object(obj.name)
                except PROGRAM_ERRORS as exc:
                    log.problems.append(f"{obj.name}: acknowledged store lost ({exc!r})")
                    continue
                if abs(result.meta.size_mb - obj.size_mb) > 1e-9:
                    log.problems.append(f"{obj.name}: reads back {result.meta.size_mb} MB")

        yield sim.gather([read_back(me) for me in self.clients])
        reader = c4h.device(self.clients[0])
        for key, value in sorted(state["index"].items(), key=lambda kv: kv[0]):
            got = yield from reader.kv.get(key)
            if got != value:
                log.problems.append(f"{key}: reads {got!r}, last acknowledged {value!r}")
        log.wal_recoveries += sum(
            1 for e in state["chaos"].events
            if e.kind == "revive" and "replayed 0 records" not in e.detail
        )
        for me, name in state["deleted"]:
            try:
                yield from c4h.device(me).kv.get(object_key(name))
            except KeyNotFoundError:
                continue
            log.resurrected += 1


WORKLOADS = {w.name: w for w in (KvOverlay(), HomeMedia(), DurableChurn())}
