"""Tier-1 pin of one simulated execution, event for event.

The hot-path macro configuration (3 shards x 4 replicas, 240 transactions,
30% cross-shard, batch 4, seed 2022) is run on the simulator and checked
against values recorded before any of the per-message fast paths in the
kernel, MAC and identity layers: the completion count, the number of
simulator events fired, and every shard's ledger head.  A change that
reorders the event calendar, a fan-out or a hash-keyed iteration moves at
least one of them.
"""

from repro.config import SystemConfig, WorkloadConfig
from repro.engine import Deployment, WorkloadDriver
from repro.workloads.ycsb import YcsbWorkloadGenerator

EXPECTED_EVENTS = 9784
EXPECTED_HEADS = {
    0: "2af3138baf20c65faacd4d2573d71b03db5b79594771338c8ec07f54566ba059",
    1: "33e2f559bc5db1a9e248a0c2809e3714875fde4e1b1423677ef624e936c4c591",
    2: "9469f48bc124b93fcf4797c18188ae3bde47a427bae4541158c293278b7ee391",
}


def test_hotpath_macro_execution_is_pinned():
    workload = WorkloadConfig(
        num_records=1_000,
        cross_shard_fraction=0.3,
        batch_size=4,
        num_clients=4,
        seed=2022,
    )
    config = SystemConfig.uniform(3, 4, workload=workload)
    with Deployment.build(
        config, backend="sim", num_clients=4, batch_size=4, seed=2022
    ) as deployment:
        generator = YcsbWorkloadGenerator(
            deployment.table, deployment.directory.ring, workload, seed=2022
        )
        result = WorkloadDriver(deployment, generator, total=240, window=4).run(timeout=600.0)

        assert result.completed == 240
        assert result.ledgers_consistent
        assert deployment.simulator.processed_events == EXPECTED_EVENTS
        heads = {
            shard: {r.ledger.head.block_hash().hex() for r in deployment.shard_replicas(shard)}
            for shard in config.shard_ids
        }
        assert heads == {shard: {head} for shard, head in EXPECTED_HEADS.items()}
