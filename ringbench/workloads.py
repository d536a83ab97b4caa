"""The benchmark's four workloads and the round that runs one of them.

A *round* is one complete, self-contained run of a workload: generate the
load from the seed, build a fresh deployment (timed as set-up), drive it to
completion (timed as the measured window), check the outcome, close.  A
benchmark run repeats rounds until its time is spent; every round of a
simulator workload is the same deterministic execution, so host metrics are
medians over rounds while simulated metrics come from any one of them.

The program receives only the generated transactions.  ``--seed`` feeds the
YCSB generator and the open-loop arrival times; the deployment itself
(simulator, link emulator) always uses :data:`DEPLOY_SEED`, so a different
seed changes the generated transactions and nothing else.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import statistics
import time
from collections import deque
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro.common import codec
from repro.config import PipelineConfig, SystemConfig, TimerConfig, WorkloadConfig
from repro.engine import Deployment
from repro.metrics.collector import summarize_pipeline
from repro.storage.kvstore import ShardedKeyValueStore
from repro.txn.transaction import Transaction
from repro.workloads.ycsb import YcsbWorkloadGenerator

from stats import highest_supported, knee_rate, outage_seconds, percentile, rung_from_times

#: Seed of the simulator and link emulator; never derived from ``--seed``.
DEPLOY_SEED = 2022

#: Latency limit of the knee test (simulated seconds).
LATENCY_LIMIT_S = 0.5


@dataclass
class Load:
    """Generated transactions: per-client queues (closed loop) or a schedule."""

    closed: dict[str, list[Transaction]] = field(default_factory=dict)
    #: (due time in protocol seconds, client id, transaction), sorted by due time.
    scheduled: list[tuple[float, str, Transaction]] = field(default_factory=list)

    def transactions(self) -> list[Transaction]:
        if self.scheduled:
            return [txn for _, _, txn in self.scheduled]
        return [txn for queue in self.closed.values() for txn in queue]


@dataclass(frozen=True)
class SetupSample:
    """One timed set-up: host wall and CPU seconds, and CPU in reference units."""

    wall_s: float
    cpu_s: float
    ref_units: float

    @property
    def seconds(self) -> float:
        """Set-up time on a host where one reference unit takes :data:`REFERENCE_S`."""
        return self.ref_units * REFERENCE_S


@dataclass
class Outcome:
    """What one round measured and checked."""

    setup: SetupSample
    #: Host seconds the load generator took (outside the measured window).
    generate_s: float
    #: Window CPU and wall seconds, and window CPU in reference units.
    cpu_s: float
    wall_s: float
    cpu_ref: float
    submitted: int
    committed: int
    #: Workload metrics by name: (value, unit, samples or None).
    metrics: dict[str, tuple[Any, str, int | None]]
    #: Correctness checks by name.
    checks: dict[str, bool]
    #: The program's own counters over the measured window.
    counters: dict[str, float]
    #: Submit-to-reply latency of every transaction (inf = never committed).
    latencies: list[float] = field(default_factory=list)
    #: Lateness of every loop-lag probe firing (host seconds; wire only).
    probe_lateness: list[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# host cost: raw and in reference units
# ----------------------------------------------------------------------


def reference_work() -> int:
    """A fixed slice of interpreter work (~1 ms): the unit host cost is
    expressed in.  String formatting, dict stores and small hashes, like the
    protocol's own hot paths."""
    table = {}
    for i in range(1500):
        key = f"k{i}"
        table[key] = hashlib.sha256(key.encode()).digest()
    return len(table)


#: Host seconds one :func:`reference_work` call is taken to last (about what
#: it takes on an unloaded 2-vCPU x86 VM).  Set-up is measured in reference
#: units and reported in seconds of a host of that speed, so ``setup_s`` is
#: as steady across host speed as ``cpu_ref_per_txn``.
REFERENCE_S = 0.001


def reference_cpu(calls: int = 3) -> float:
    """CPU seconds of one :func:`reference_work` call now (median of ``calls``)."""
    samples = []
    for _ in range(calls):
        started = time.process_time()
        reference_work()
        samples.append(time.process_time() - started)
    return statistics.median(samples)


class HostMeter:
    """CPU spent by the program in the measured window, raw and normalised.

    A shared host (a virtual machine whose cores other tenants also use) can
    change speed by up to 2x within seconds, which no amount of averaging
    over one run removes.  So the window is cut into chunks of about 20-50 ms of program
    work, a fixed :func:`reference_work` runs between chunks, and each
    chunk's CPU is divided by the reference's CPU at that moment (median of
    the last few samples, to damp timer noise).  The sum is the window's
    cost in reference units, steady across host speed; raw CPU and wall time
    are kept too, with the reference's own time excluded from both.
    """

    #: Reference samples the per-chunk divisor is the median of.
    SMOOTHING = 5

    def __init__(self) -> None:
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.ref_units = 0.0
        self.chunks = 0
        self._recent: deque[float] = deque(maxlen=self.SMOOTHING)
        self._cpu = self._wall = 0.0

    def start(self) -> None:
        self._cpu, self._wall = time.process_time(), time.perf_counter()

    def checkpoint(self) -> None:
        """Close a chunk of program work and calibrate against the reference."""
        cpu, wall = time.process_time(), time.perf_counter()
        spent = cpu - self._cpu
        self.cpu_s += spent
        self.wall_s += wall - self._wall
        reference_work()
        self._recent.append(time.process_time() - cpu)
        self.ref_units += spent / statistics.median(self._recent)
        self.chunks += 1
        self.start()


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------


def _generator(config: SystemConfig, seed: int) -> YcsbWorkloadGenerator:
    table = ShardedKeyValueStore(config.shard_ids, config.workload.num_records)
    return YcsbWorkloadGenerator(table, config.ring(), config.workload, seed=seed)


def closed_load(config: SystemConfig, client_ids: list[str], per_client: int, seed: int) -> Load:
    generator = _generator(config, seed)
    return Load(closed={cid: generator.generate(per_client, cid) for cid in client_ids})


def poisson_load(
    config: SystemConfig,
    client_ids: list[str],
    phases: list[tuple[float, float, float]],
    seed: int,
) -> Load:
    """Poisson arrivals over consecutive ``(rate, start, end)`` phases,
    assigned to clients round-robin."""
    generator = _generator(config, seed)
    arrivals = random.Random(f"{seed}/arrivals")
    scheduled: list[tuple[float, str, Transaction]] = []
    for rate, start, end in phases:
        t = start + arrivals.expovariate(rate)
        while t < end:
            client_id = client_ids[len(scheduled) % len(client_ids)]
            scheduled.append((t, client_id, generator.generate(1, client_id)[0]))
            t += arrivals.expovariate(rate)
    return Load(scheduled=scheduled)


# ----------------------------------------------------------------------
# closed and open loops
# ----------------------------------------------------------------------


class ClosedLoop:
    """Keeps ``window`` transactions outstanding per client from fixed queues.

    A refill tick on the deployment's scheduler tops the windows up every
    ``tick_s`` protocol seconds.  On a real-time backend the tick doubles as
    the loop-lag probe: its lateness against its due host time is recorded.
    """

    def __init__(
        self,
        deployment: Deployment,
        load: Load,
        window: int,
        tick_s: float,
        meter: HostMeter | None = None,
        meter_every: int = 0,
    ) -> None:
        self.deployment = deployment
        #: Real-time backends calibrate the host meter from the tick.
        self.meter = meter
        self.meter_every = meter_every
        self._ticks = 0
        #: Host seconds per protocol second; None on the simulator (no probe).
        self.time_scale: float | None = getattr(deployment.backend, "time_scale", None)
        self.queues = {cid: deque(txns) for cid, txns in load.closed.items()}
        self.window = window
        self.tick_s = tick_s
        self.lateness: list[float] = []
        self._due = 0.0

    def start(self) -> None:
        self._tick()

    def _tick(self) -> None:
        if self._due:
            self.lateness.append(time.perf_counter() - self._due)
            self._due = 0.0
        self._ticks += 1
        if self.meter is not None and self._ticks % self.meter_every == 0:
            self.meter.checkpoint()
        pending = False
        for client_id, queue in self.queues.items():
            client = self.deployment.clients[client_id]
            while queue and client.outstanding < self.window:
                self.deployment.submit(queue.popleft(), client_id)
            pending = pending or bool(queue)
        if pending:
            if self.time_scale is not None:
                self._due = time.perf_counter() + self.tick_s * self.time_scale
            self.deployment.scheduler.schedule(self.tick_s, self._tick)


def schedule_open_loop(deployment: Deployment, load: Load) -> None:
    """Submit every scheduled transaction at its due protocol time."""
    for due, client_id, txn in load.scheduled:
        deployment.scheduler.schedule_at(due, deployment.submit, txn, client_id)


#: Simulator events per host-meter chunk.
CHUNK_EVENTS = 500


def advance(deployment: Deployment, until: float, meter: HostMeter) -> None:
    """Run the simulator to protocol time ``until`` in metered chunks."""
    backend = deployment.backend
    while backend.now < until:
        backend.run_until_time(until, max_events=CHUNK_EVENTS)
        meter.checkpoint()


def drain(
    deployment: Deployment, total: int, until: float, meter: HostMeter, step: float = 0.25
) -> None:
    """Advance simulated time in steps until ``total`` committed or ``until``."""
    backend = deployment.backend
    while deployment.completed_transactions() < total and backend.now < until:
        advance(deployment, backend.now + step, meter)


# ----------------------------------------------------------------------
# correctness gate and counters
# ----------------------------------------------------------------------


def check_outcome(deployment: Deployment, load: Load, completed: dict) -> dict[str, bool]:
    """The gate every round must pass.

    * every non-crashed replica of a shard holds the same ledger prefix;
    * no transaction id appears twice in any replica's ledger (exactly once);
    * committed <= submitted, and only submitted transactions committed;
    * every committed transaction is in the ledger of each shard it touches.
    """
    submitted = {txn.txn_id: txn for txn in load.transactions()}
    shards = deployment.config.shard_ids
    exactly_once = True
    longest: dict[int, Any] = {}
    for replica in deployment.replicas.values():
        if replica.crashed:
            continue
        ids = [tid for block in replica.ledger.blocks() for tid in block.txn_ids]
        exactly_once = exactly_once and len(ids) == len(set(ids))
        best = longest.get(replica.shard_id)
        if best is None or len(replica.ledger) > len(best):
            longest[replica.shard_id] = replica.ledger
    in_ledgers = all(
        all(longest[shard].contains_txn(tid) for shard in submitted[tid].involved_shards)
        for tid in completed
        if tid in submitted
    )
    return {
        "ledger_prefix_consistent": all(deployment.ledgers_consistent(s) for s in shards),
        "exactly_once": exactly_once,
        "committed_le_submitted": len(completed) <= len(submitted)
        and all(tid in submitted for tid in completed),
        "committed_in_ledgers": in_ledgers,
    }


def completions(deployment: Deployment) -> dict[str, tuple[float, float]]:
    """txn id -> (submitted_at, completed_at) over every client."""
    return {
        record.txn_id: (record.submitted_at, record.completed_at)
        for client in deployment.clients.values()
        for record in client.completed
    }


def program_counters(
    deployment: Deployment, codec_before: dict, cross_committed: int, submitted: int
) -> dict[str, float]:
    """The program's own counters, read once at the end of the window."""
    replicas = list(deployment.replicas.values())
    clients = list(deployment.clients.values())
    counters: dict[str, float] = {}
    msgs = sum(node.stats.total_messages for node in replicas + clients)
    counters["messages"] = msgs
    counters["message_bytes"] = sum(node.stats.total_bytes for node in replicas + clients)
    forward_msgs = sum(r.stats.sent_count.get("Forward", 0) for r in replicas)
    forward_bytes = sum(r.stats.sent_bytes.get("Forward", 0) for r in replicas)
    counters["forwards_per_xtxn"] = forward_msgs / cross_committed if cross_committed else 0.0
    counters["forward_bytes_share"] = (
        forward_bytes / counters["message_bytes"] if counters["message_bytes"] else 0.0
    )
    client_requests = sum(c.stats.sent_count.get("ClientRequest", 0) for c in clients)
    counters["client_retransmits"] = client_requests - submitted
    counters["view_changes"] = sum(r.view_changes_completed for r in replicas)
    counters["state_transfers"] = sum(r.state_transfers_completed for r in replicas)
    counters["auth_rejections"] = sum(r.auth_rejections for r in replicas)
    pipeline = summarize_pipeline(replicas)
    counters["avg_batch"] = pipeline["avg_batch_size"]
    counters["queue_wait_s"] = pipeline["avg_queue_delay_s"]
    counters["peak_open_slots"] = pipeline["peak_open_slots"]
    batches = pipeline["proposed_batches"]
    counters["shaped_share"] = pipeline["shaped_batches"] / batches if batches else 0.0
    delta = codec.STATS.delta_since(codec_before)
    for name in ("payload", "digest"):
        counters[f"codec_{name}_hits"] = delta[name]["hits"]
        counters[f"codec_{name}_attempts"] = delta[name]["hits"] + delta[name]["misses"]
    for name, stats in deployment.keystore.cache_stats().items():
        counters[f"keystore_{name}_hits"] = stats.get("hits", 0)
        counters[f"keystore_{name}_attempts"] = stats.get("hits", 0) + stats.get("misses", 0)
    transport = deployment.transport
    counters["delivered"] = transport.stats.delivered
    if deployment.backend.name == "sim":
        counters["sim_events"] = deployment.simulator.processed_events
    if deployment.backend.name == "socket":
        counters["net_frames"] = transport.stats.frames_sent
        counters["net_bytes"] = transport.stats.bytes_sent
        counters["net_writes"] = transport.stats.writes
        counters["net_dropped_frames"] = transport.stats.dropped_frames
        counters["net_delivery_errors"] = transport.stats.delivery_errors
    return counters


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1000.0


def latency_metrics(
    prefix: str, unit: str, latencies: list[float]
) -> dict[str, tuple[Any, str, int]]:
    """p50 and p99 in milliseconds with their sample count; when the sample
    does not support p99, also the highest percentile it does support."""
    p50 = percentile(latencies, 0.50)
    p99 = percentile(latencies, 0.99)
    metrics = {
        f"{prefix}_p50_ms": (_ms(p50.value), unit, p50.samples),
        f"{prefix}_p99_ms": (_ms(p99.value), unit, p99.samples),
    }
    if not p99.supported:
        top = highest_supported(latencies)
        metrics[f"{prefix}_p{top.q * 100:g}_ms"] = (_ms(top.value), unit, top.samples)
    return metrics


class Workload:
    """One benchmark workload; subclasses fill in the shape."""

    name = ""
    backend = "sim"

    @property
    def simulated(self) -> bool:
        """Deterministic protocol time: every round repeats exactly."""
        return self.backend == "sim"

    def config(self) -> SystemConfig:
        raise NotImplementedError

    def client_regions(self, config: SystemConfig) -> dict[str, str]:
        """client id -> region (two clients per shard, co-located with it)."""
        return {
            f"client-{shard.shard_id}-{j}": shard.region
            for shard in config.shards
            for j in range(2)
        }

    def generate(self, config: SystemConfig, seed: int) -> Load:
        raise NotImplementedError

    def build(self, config: SystemConfig) -> Deployment:
        deployment = Deployment.build(
            config,
            backend=self.backend,
            num_clients=0,
            batch_size=config.workload.batch_size,
            seed=DEPLOY_SEED,
        )
        for client_id, region in self.client_regions(config).items():
            deployment.add_client(client_id, region=region)
        return deployment

    def drive(self, deployment: Deployment, load: Load, meter: HostMeter) -> ClosedLoop | None:
        """Run the load to completion, calling ``meter.checkpoint()`` between
        chunks of work; returns the closed loop (for its probe) if any."""
        raise NotImplementedError

    def measure(
        self, load: Load, done: dict, latencies: list[float]
    ) -> dict[str, tuple[Any, str, int | None]]:
        """The round's workload metrics from what committed when.

        ``done`` maps txn id -> (submitted_at, completed_at); ``latencies``
        holds every transaction's latency, ``inf`` for those never committed.
        """
        raise NotImplementedError

    def extra_checks(self, deployment: Deployment) -> dict[str, bool]:
        return {}

    def summarize(self, outcomes: list[Outcome]) -> dict[str, tuple[Any, str, int | None]]:
        """The workload's metrics over a run's rounds.  Simulated rounds are
        one deterministic execution repeated, so any round stands for all."""
        return dict(outcomes[0].metrics)

    def timed_build(self, config: SystemConfig) -> tuple[Deployment, SetupSample]:
        """Build a ready deployment; returns it with what the build took.

        Earlier rounds' deployments are collected first, so every set-up and
        every round starts from the same heap (and the same cyclic-GC work).
        The build's CPU is divided by the reference's CPU just before and
        just after it, as :class:`HostMeter` does for the measured window.
        """
        gc.collect()
        before = reference_cpu()
        cpu, wall = time.process_time(), time.perf_counter()
        deployment = self.build(config)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        after = reference_cpu()
        return deployment, SetupSample(wall, cpu, 2.0 * cpu / (before + after))

    def time_setup(self) -> SetupSample:
        """One more set-up sample: build a deployment, close it unused."""
        deployment, setup = self.timed_build(self.config())
        deployment.close()
        return setup

    def run_round(self, seed: int, tracer: AbstractContextManager | None = None) -> Outcome:
        """One round; ``tracer`` (if given) is installed for the measured window only."""
        config = self.config()
        started = time.perf_counter()
        load = self.generate(config, seed)
        generate_s = time.perf_counter() - started
        deployment, setup = self.timed_build(config)
        try:
            codec_before = codec.STATS.snapshot()
            meter = HostMeter()
            with tracer or nullcontext():
                meter.start()
                loop = self.drive(deployment, load, meter)
                meter.checkpoint()
            done = completions(deployment)
            submitted = len(load.transactions())
            cross = sum(
                1 for txn in load.transactions() if txn.txn_id in done and txn.is_cross_shard
            )
            counters = program_counters(deployment, codec_before, cross, submitted)
            checks = check_outcome(deployment, load, done)
            checks.update(self.extra_checks(deployment))
            latencies = [end - start for start, end in done.values()]
            latencies += [math.inf] * (submitted - len(done))
            return Outcome(
                setup=setup,
                generate_s=generate_s,
                cpu_s=meter.cpu_s,
                wall_s=meter.wall_s,
                cpu_ref=meter.ref_units,
                submitted=submitted,
                committed=len(done),
                metrics=self.measure(load, done, latencies),
                checks=checks,
                counters=counters,
                latencies=latencies,
                probe_lateness=loop.lateness if loop is not None else [],
            )
        finally:
            deployment.close()


class ClosedLoopWorkload(Workload):
    """``per_client`` transactions per client, ``window`` outstanding each."""

    per_client = 0
    window = 4
    #: Refill tick (protocol seconds) and completion timeout.
    tick_s = 0.005
    timeout_s = 600.0
    #: Real-time only: ticks between host-meter chunks.
    meter_every = 0

    def generate(self, config: SystemConfig, seed: int) -> Load:
        return closed_load(config, list(self.client_regions(config)), self.per_client, seed)

    def drive(self, deployment: Deployment, load: Load, meter: HostMeter) -> ClosedLoop:
        total = len(load.transactions())

        def finished() -> bool:
            return deployment.completed_transactions() >= total

        if self.simulated:
            loop = ClosedLoop(deployment, load, self.window, self.tick_s)
            loop.start()
            backend = deployment.backend
            while not backend.run_until(finished, self.timeout_s - backend.now, CHUNK_EVENTS):
                meter.checkpoint()
                if deployment.simulator.pending_events == 0 or backend.now >= self.timeout_s:
                    break
        else:
            loop = ClosedLoop(deployment, load, self.window, self.tick_s, meter, self.meter_every)
            loop.start()
            deployment.backend.run_until(finished, self.timeout_s)
        return loop


class RingClosed(ClosedLoopWorkload):
    """Every transaction rotates the full ring; closed loop, depth 1."""

    name = "ring-closed"
    #: 6 clients x 170 = 1020 transactions: enough for a supported p99.
    per_client = 170

    def config(self) -> SystemConfig:
        workload = WorkloadConfig(
            num_records=1_000,
            cross_shard_fraction=1.0,
            involved_shards=0,
            batch_size=4,
            num_clients=6,
        )
        return SystemConfig.uniform(3, 4, workload=workload, pipeline=PipelineConfig(depth=1))

    def measure(self, load, done, latencies):
        first = min((start for start, _ in done.values()), default=0.0)
        last = max((end for _, end in done.values()), default=0.0)
        tps = len(done) / (last - first) if last > first else 0.0
        metrics = {"sim_tps": (tps, "txn/s(sim)", len(done))}
        metrics.update(latency_metrics("sim", "ms(sim)", latencies))
        return metrics


class PumpOpen(Workload):
    """Open-loop Poisson ladder against the pipelined, rate-shaped pump."""

    name = "pump-open"
    rates = (1000.0, 1500.0, 2000.0, 2500.0)
    #: Expected arrivals per rung; Poisson counts stay above the 1000 a
    #: supported p99 needs (10 samples beyond it) with high probability.
    per_rung = 1100
    drain_s = 30.0

    def config(self) -> SystemConfig:
        workload = WorkloadConfig(
            num_records=100_000, cross_shard_fraction=0.3, batch_size=100, num_clients=6
        )
        return SystemConfig.uniform(
            3,
            4,
            workload=workload,
            timers=TimerConfig(
                local_timeout=30.0, remote_timeout=60.0, transmit_timeout=90.0, client_timeout=120.0
            ),
            pipeline=PipelineConfig(depth=4, max_batch_size=8, sustain_threshold=0.5),
        )

    def phases(self) -> list[tuple[float, float, float]]:
        phases, start = [], 0.0
        for rate in self.rates:
            end = start + self.per_rung / rate
            phases.append((rate, start, end))
            start = end
        return phases

    def generate(self, config: SystemConfig, seed: int) -> Load:
        return poisson_load(config, list(self.client_regions(config)), self.phases(), seed)

    def drive(self, deployment: Deployment, load: Load, meter: HostMeter) -> None:
        schedule_open_loop(deployment, load)
        ladder_end = self.phases()[-1][2]
        advance(deployment, ladder_end, meter)
        drain(deployment, len(load.scheduled), ladder_end + self.drain_s, meter)

    def measure(self, load, done, latencies):
        submits = sorted(due for due, _, _ in load.scheduled)
        completes = sorted(end for _, end in done.values())
        rungs = []
        for rate, start, end in self.phases():
            mine = [(due, txn.txn_id) for due, _, txn in load.scheduled if start <= due < end]
            rungs.append(
                rung_from_times(
                    rate,
                    start,
                    end,
                    [due for due, _ in mine],
                    [done[tid][1] if tid in done else None for _, tid in mine],
                    submits,
                    completes,
                )
            )
        top = self.phases()[-1]
        in_top = sum(1 for end in completes if top[1] <= end < top[2])
        lateness = max(
            (done[txn.txn_id][0] - due for due, _, txn in load.scheduled if txn.txn_id in done),
            default=0.0,
        )
        metrics = {
            "sim_tps": (in_top / (top[2] - top[1]), "txn/s(sim)", in_top),
            "sim_knee_tps": (knee_rate(rungs, LATENCY_LIMIT_S), "txn/s(sim)", len(latencies)),
        }
        metrics.update(latency_metrics("sim", "ms(sim)", latencies))
        metrics["sim_gen_lateness_ms"] = (lateness * 1000.0, "ms(sim)", len(done))
        for rung in rungs:
            p99 = percentile(rung.latencies, 0.99)
            metrics[f"rung{int(rung.rate)}_p99_ms"] = (_ms(p99.value), "ms(sim)", p99.samples)
            metrics[f"rung{int(rung.rate)}_backlog_growth"] = (
                round(rung.backlog_growth, 3),
                "txn",
                None,
            )
        return metrics


class PrimaryCrash(Workload):
    """Open-loop load through a crash of shard 0's primary."""

    name = "primary-crash"
    rate = 300.0
    #: 1200 expected arrivals (a supported p99); the crash lands mid-run and
    #: shard 0 recovers (~2.5 s later) before injection ends.
    inject_s = 4.0
    crash_at = 1.5
    drain_s = 30.0

    def config(self) -> SystemConfig:
        workload = WorkloadConfig(
            num_records=10_000, cross_shard_fraction=0.3, batch_size=100, num_clients=6
        )
        return SystemConfig.uniform(
            3,
            4,
            workload=workload,
            timers=TimerConfig(
                local_timeout=1.0, remote_timeout=2.0, transmit_timeout=3.0, client_timeout=1.5
            ),
            pipeline=PipelineConfig(depth=4),
        )

    def generate(self, config: SystemConfig, seed: int) -> Load:
        return poisson_load(
            config, list(self.client_regions(config)), [(self.rate, 0.0, self.inject_s)], seed
        )

    def drive(self, deployment: Deployment, load: Load, meter: HostMeter) -> None:
        schedule_open_loop(deployment, load)
        primary = deployment.primary_of(0)
        deployment.scheduler.schedule_at(self.crash_at, primary.crash)
        advance(deployment, self.inject_s, meter)
        drain(deployment, len(load.scheduled), self.inject_s + self.drain_s, meter)

    def extra_checks(self, deployment: Deployment) -> dict[str, bool]:
        survivors = [r for r in deployment.shard_replicas(0) if not r.crashed]
        return {
            "primary_crashed": len(survivors) == len(deployment.shard_replicas(0)) - 1,
            "shard0_new_view": bool(survivors) and all(r.view >= 1 for r in survivors),
        }

    def measure(self, load, done, latencies):
        touches0 = {txn.txn_id for _, _, txn in load.scheduled if 0 in txn.involved_shards}
        outage = outage_seconds(self.crash_at, (done[t] for t in touches0 if t in done))
        due_in_outage = sum(
            1
            for due, _, txn in load.scheduled
            if txn.txn_id in touches0
            and outage is not None
            and self.crash_at <= due < self.crash_at + outage
        )
        in_window = sum(1 for _, end in done.values() if end < self.inject_s)
        metrics = {"sim_tps": (in_window / self.inject_s, "txn/s(sim)", in_window)}
        metrics.update(latency_metrics("sim", "ms(sim)", latencies))
        metrics["outage_s"] = (outage, "s(sim)", len(touches0))
        metrics["sim_due_during_outage"] = (due_in_outage, "txn", None)
        return metrics


class WireLocal(ClosedLoopWorkload):
    """Real TCP on loopback: every message through encode/frame/decode/MAC."""

    name = "wire-local"
    backend = "socket"
    #: Rounds are short so a run has many of them; latencies are pooled.
    per_client = 250
    tick_s = 0.001
    timeout_s = 120.0
    meter_every = 50

    def config(self) -> SystemConfig:
        workload = WorkloadConfig(
            num_records=1_000, cross_shard_fraction=0.0, batch_size=4, num_clients=2
        )
        return SystemConfig.uniform(2, 4, workload=workload, pipeline=PipelineConfig(depth=1))

    def client_regions(self, config: SystemConfig) -> dict[str, str]:
        return {"client-0": "local", "client-1": "local"}

    def measure(self, load, done, latencies):
        return {}

    def summarize(self, outcomes: list[Outcome]) -> dict[str, tuple[Any, str, int | None]]:
        """Real-time rounds differ, so their samples are pooled."""
        committed = sum(o.committed for o in outcomes)
        metrics = {"wire_tps": (committed / sum(o.wall_s for o in outcomes), "txn/s", committed)}
        metrics.update(latency_metrics("wire", "ms", [x for o in outcomes for x in o.latencies]))
        lag = percentile([x for o in outcomes for x in o.probe_lateness], 0.99)
        metrics["loop_lag_p99_ms"] = (_ms(lag.value), "ms", lag.samples)
        return metrics


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (RingClosed(), PumpOpen(), WireLocal(), PrimaryCrash())
}
