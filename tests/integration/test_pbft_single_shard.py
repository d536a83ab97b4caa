"""Integration tests: single-shard consensus (the path shared by all protocols)."""

import pytest

from repro.baselines.ahl.replica import AhlReplica
from repro.baselines.sharper.replica import SharperReplica
from repro.consensus.pbft.replica import PbftReplica
from repro.core.replica import RingBftReplica
from repro.faults.injector import FaultInjector

from tests.conftest import build_cluster


def _single_shard_txn(cluster, shard, value="v", txn_id=None):
    from repro.txn.transaction import TransactionBuilder

    key = cluster.table.local_record(shard, 0)
    txn_id = txn_id or f"txn-{shard}-{value}"
    return TransactionBuilder(txn_id, "client-0").read_modify_write(shard, key, value).build()


@pytest.mark.parametrize(
    "replica_class", [PbftReplica, RingBftReplica, AhlReplica, SharperReplica]
)
class TestSingleShardConsensusAcrossProtocols:
    """All four replica implementations order single-shard transactions with plain PBFT."""

    def test_single_transaction_completes(self, replica_class):
        cluster = build_cluster(num_shards=1, replica_class=replica_class)
        cluster.submit(_single_shard_txn(cluster, 0))
        assert cluster.run_until_clients_done(timeout=30.0)
        assert cluster.completed_transactions() == 1

    def test_state_machines_apply_the_write(self, replica_class):
        cluster = build_cluster(num_shards=1, replica_class=replica_class)
        txn = _single_shard_txn(cluster, 0, value="committed-value")
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=30.0)
        key = next(iter(txn.keys_for(0)))
        for replica in cluster.shard_replicas(0):
            assert replica.store.read(key) == "committed-value"


class TestPbftOrdering:
    def test_sequence_of_transactions_executes_in_one_order(self):
        cluster = build_cluster(num_shards=1, replica_class=PbftReplica)
        txn_ids = set()
        for i in range(8):
            txn = _single_shard_txn(cluster, 0, value=f"v{i}", txn_id=f"seq-{i}")
            txn_ids.add(txn.txn_id)
            cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=60.0)
        assert cluster.completed_transactions() == 8
        assert cluster.executed_in_same_order(0, txn_ids)
        assert cluster.ledgers_consistent(0)

    def test_every_replica_builds_the_same_chain(self):
        cluster = build_cluster(num_shards=1, replica_class=PbftReplica)
        for i in range(5):
            cluster.submit(_single_shard_txn(cluster, 0, value=f"v{i}", txn_id=f"chain-{i}"))
        assert cluster.run_until_clients_done(timeout=60.0)
        heads = {r.ledger.head.block_hash() for r in cluster.shard_replicas(0)}
        assert len(heads) == 1
        assert all(r.ledger.verify_chain() for r in cluster.shard_replicas(0))

    def test_conflicting_writes_converge_to_identical_state(self):
        cluster = build_cluster(num_shards=1, replica_class=PbftReplica)
        key = cluster.table.local_record(0, 0)
        from repro.txn.transaction import TransactionBuilder

        for i in range(4):
            txn = TransactionBuilder(f"conflict-{i}", "client-0").read_modify_write(0, key, f"w{i}").build()
            cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=60.0)
        values = {r.store.read(key) for r in cluster.shard_replicas(0)}
        assert len(values) == 1

    def test_client_receives_weak_quorum_of_responses(self):
        cluster = build_cluster(num_shards=1, replica_class=PbftReplica)
        cluster.submit(_single_shard_txn(cluster, 0))
        assert cluster.run_until_clients_done(timeout=30.0)
        record = cluster.client.completed[0]
        assert record.latency > 0

    def test_retransmitted_request_is_not_executed_twice(self):
        cluster = build_cluster(num_shards=1, replica_class=PbftReplica)
        txn = _single_shard_txn(cluster, 0, value="once")
        cluster.submit(txn)
        assert cluster.run_until_clients_done(timeout=30.0)
        # Re-submit the identical transaction: replicas answer from the store.
        cluster.client.submit(txn)
        assert cluster.run_until_clients_done(timeout=30.0)
        key = next(iter(txn.keys_for(0)))
        for replica in cluster.shard_replicas(0):
            assert replica.store.version(key) == 1

    def test_checkpoint_is_taken_at_interval(self):
        cluster = build_cluster(num_shards=1, replica_class=PbftReplica)
        # Shrink the interval on the fly so a handful of batches suffices.
        for replica in cluster.shard_replicas(0):
            replica.checkpoints.interval = 3
        for i in range(6):
            cluster.submit(_single_shard_txn(cluster, 0, value=f"v{i}", txn_id=f"cp-{i}"))
        assert cluster.run_until_clients_done(timeout=60.0)
        cluster.run(duration=cluster.simulator.now + 1.0)
        stable = [r.checkpoints.last_stable_sequence for r in cluster.shard_replicas(0)]
        assert all(value >= 3 for value in stable)


class TestParallelShards:
    def test_independent_shards_make_progress_in_parallel(self):
        cluster = build_cluster(num_shards=3, replica_class=PbftReplica)
        for shard in (0, 1, 2):
            for i in range(3):
                cluster.submit(_single_shard_txn(cluster, shard, value=f"v{i}", txn_id=f"p-{shard}-{i}"))
        assert cluster.run_until_clients_done(timeout=60.0)
        assert cluster.completed_transactions() == 9
        for shard in (0, 1, 2):
            assert cluster.ledgers_consistent(shard)
            assert cluster.primary_of(shard).ledger.height == 3

    def test_no_cross_shard_messages_for_single_shard_workload(self):
        cluster = build_cluster(num_shards=3, replica_class=RingBftReplica)
        for shard in (0, 1, 2):
            cluster.submit(_single_shard_txn(cluster, shard, txn_id=f"local-{shard}"))
        assert cluster.run_until_clients_done(timeout=60.0)
        counts = cluster.message_counts()
        assert "Forward" not in counts
        assert "Execute" not in counts


class TestViewChangeEscalation:
    def test_shard_commits_when_the_next_primary_is_also_down(self):
        """A view change whose new primary is down escalates to the next view.

        Seven replicas tolerate two crashes.  With the primaries of views 0
        and 1 both down, the vote for view 1 can never complete, so the
        replicas must re-vote for view 2 after a further (longer) timeout.
        """
        cluster = build_cluster(num_shards=1, replicas=7, replica_class=PbftReplica)
        injector = FaultInjector(cluster)
        injector.crash_primary(0, view=0)
        injector.crash_primary(0, view=1)
        cluster.submit(_single_shard_txn(cluster, 0, txn_id="two-primaries-down"))
        assert cluster.run_until_clients_done(timeout=200.0)
        assert cluster.completed_transactions() == 1
        alive = [r for r in cluster.shard_replicas(0) if not r.crashed]
        assert {r.view for r in alive} == {2}
        assert all(r.ledger.height == 1 for r in alive)
        assert cluster.ledgers_consistent(0)

    def test_completed_view_change_does_not_escalate(self):
        """Once the vote's view installs, its escalation timer is void."""
        cluster = build_cluster(num_shards=1, replicas=7, replica_class=PbftReplica)
        FaultInjector(cluster).crash_primary(0, view=0)
        cluster.submit(_single_shard_txn(cluster, 0, txn_id="one-primary-down"))
        assert cluster.run_until_clients_done(timeout=200.0)
        cluster.run(duration=cluster.simulator.now + 100.0)
        alive = [r for r in cluster.shard_replicas(0) if not r.crashed]
        assert {r.view for r in alive} == {1}
        assert not any(r.has_timer("view-change") for r in alive)
