"""Integration tests: the realtime backend (same protocol code, real clock)."""

import asyncio

import pytest

from repro.config import SystemConfig, WorkloadConfig
from repro.core.replica import RingBftReplica
from repro.engine import Deployment
from repro.errors import SimulationError
from repro.rt.transport import RealTimeScheduler
from repro.txn.transaction import TransactionBuilder

TIME_SCALE = 0.02


def _config(num_shards=2):
    return SystemConfig.uniform(
        num_shards,
        4,
        workload=WorkloadConfig(num_records=200, batch_size=1, num_clients=1),
    )


def _deployment(num_shards=2, num_clients=1, backend="realtime"):
    return Deployment.build(
        _config(num_shards),
        backend=backend,
        replica_class=RingBftReplica,
        num_clients=num_clients,
        time_scale=TIME_SCALE,
    )


def _protocol_seconds(wall_seconds):
    return wall_seconds / TIME_SCALE


class TestRealTimeScheduler:
    def test_schedule_and_now(self):
        async def scenario():
            scheduler = RealTimeScheduler(asyncio.get_event_loop(), time_scale=0.01)
            fired = []
            scheduler.schedule(0.5, lambda: fired.append(scheduler.now))
            await asyncio.sleep(0.05)
            return fired

        fired = asyncio.run(scenario())
        assert len(fired) == 1
        assert fired[0] >= 0.5  # protocol time, despite the compressed real delay

    def test_cancelled_timer_does_not_fire(self):
        async def scenario():
            scheduler = RealTimeScheduler(asyncio.get_event_loop(), time_scale=0.01)
            fired = []
            handle = scheduler.schedule(0.5, lambda: fired.append("x"))
            handle.cancel()
            await asyncio.sleep(0.03)
            return fired, handle.cancelled

        fired, cancelled = asyncio.run(scenario())
        assert fired == []
        assert cancelled

    def test_negative_delay_and_bad_scale_rejected(self):
        async def scenario():
            scheduler = RealTimeScheduler(asyncio.get_event_loop())
            with pytest.raises(SimulationError):
                scheduler.schedule(-1.0, lambda: None)

        asyncio.run(scenario())
        with pytest.raises(SimulationError):
            asyncio.run(self._bad_scale())

    @staticmethod
    async def _bad_scale():
        RealTimeScheduler(asyncio.get_event_loop(), time_scale=0.0)


class TestRealTimeDeployment:
    def test_single_shard_transaction_completes_in_real_time(self):
        with _deployment(num_shards=1) as deployment:
            txn = (
                TransactionBuilder("rt-single", "client-0")
                .read_modify_write(0, "user3", "real-time-value")
                .build()
            )
            result = deployment.run_workload([txn], timeout=_protocol_seconds(10.0))
            assert result.all_completed
            assert result.wall_clock_s < 10.0
            assert all(
                replica.store.read("user3") == "real-time-value"
                for replica in deployment.shard_replicas(0)
            )

    def test_cross_shard_transaction_travels_the_ring(self):
        with _deployment(num_shards=2) as deployment:
            txn = (
                TransactionBuilder("rt-cross", "client-0")
                .read_modify_write(0, "user3", "rt@0")
                .read_modify_write(1, "user150", "rt@1")
                .build()
            )
            result = deployment.run_workload([txn], timeout=_protocol_seconds(20.0))
            assert result.all_completed
            counts = deployment.message_counts()
            assert counts.get("Forward", 0) > 0
            assert counts.get("Execute", 0) > 0
            for shard, key, value in ((0, "user3", "rt@0"), (1, "user150", "rt@1")):
                assert all(
                    r.store.read(key) == value for r in deployment.shard_replicas(shard)
                )

    def test_small_mixed_workload_and_metrics(self):
        with _deployment(num_shards=2, num_clients=2) as deployment:
            transactions = []
            for i in range(4):
                transactions.append(
                    TransactionBuilder(f"rt-mix-{i}", f"client-{i % 2}")
                    .read_modify_write(i % 2, f"user{3 + i}", f"v{i}")
                    .build()
                )
            result = deployment.run_workload(transactions, timeout=_protocol_seconds(20.0))
            assert result.all_completed
            assert result.throughput_tps > 0
            assert result.avg_latency > 0
            for shard in (0, 1):
                assert deployment.ledgers_consistent(shard)


class _HandlerBug(RuntimeError):
    """Raised by a deliberately broken replica handler."""


class TestCallbackExceptionsFailTheRun:
    """An exception inside a delivery or timer callback fails the run that
    was driving the backend -- on the real clock as on the simulator --
    instead of being logged while the run carries on."""

    @pytest.mark.parametrize("backend", ["sim", "realtime"])
    def test_raising_replica_handler_fails_the_workload_run(self, backend):
        with _deployment(num_shards=1, backend=backend) as deployment:

            def broken_handler(message):
                raise _HandlerBug(type(message).__name__)

            deployment.replica(0, 1).on_message = broken_handler
            txn = (
                TransactionBuilder("rt-bug", "client-0")
                .read_modify_write(0, "user3", "never")
                .build()
            )
            with pytest.raises(_HandlerBug):
                deployment.run_workload([txn], timeout=_protocol_seconds(10.0))

    @pytest.mark.parametrize("drive", ["run_for", "run_until", "run_until_time"])
    def test_raising_timer_fails_every_driver(self, drive):
        with _deployment(num_shards=1) as deployment:
            backend = deployment.backend

            def broken_timer():
                raise _HandlerBug("timer")

            backend.scheduler.schedule(0.01, broken_timer)
            with pytest.raises(_HandlerBug):
                if drive == "run_for":
                    backend.run_for(1.0)
                elif drive == "run_until":
                    backend.run_until(lambda: False, timeout=1.0)
                else:
                    backend.run_until_time(backend.now + 1.0)
            # The failure is reported once; the backend stays drivable.
            backend.run_for(0.1)
