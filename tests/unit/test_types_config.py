"""Unit tests for identifiers and deployment configuration."""

import dataclasses

import pytest

from repro.common.codec import decode_canonical, encode_canonical
from repro.common.types import DataItem, ReplicaId, primary_index
from repro.config import (
    GCP_REGIONS,
    ShardConfig,
    SystemConfig,
    TimerConfig,
    WorkloadConfig,
)
from repro.errors import ConfigurationError


class TestReplicaId:
    def test_ordering_is_by_shard_then_index(self):
        assert ReplicaId(0, 2) < ReplicaId(1, 0)
        assert ReplicaId(1, 0) < ReplicaId(1, 1)

    def test_equality_and_hash(self):
        assert ReplicaId(2, 3) == ReplicaId(2, 3)
        assert len({ReplicaId(2, 3), ReplicaId(2, 3)}) == 1

    def test_string_form(self):
        assert str(ReplicaId(shard=4, index=7)) == "r7@S4"

    def test_hash_is_the_field_tuple_hash(self):
        # Set and dict iteration orders (fan-out order, and so the simulated
        # execution) depend on this value; it must not change.
        for shard, index in ((0, 0), (2, 3), (7, 1), (-1, 5)):
            assert hash(ReplicaId(shard, index)) == hash((shard, index))

    def test_string_form_and_ordering_match_the_fields(self):
        ids = [ReplicaId(s, i) for s in (2, 0, 1) for i in (3, 0, 2)]
        assert sorted(ids) == [ReplicaId(s, i) for s in (0, 1, 2) for i in (0, 2, 3)]
        assert [str(r) for r in sorted(ids)][:3] == ["r0@S0", "r2@S0", "r3@S0"]
        assert repr(ReplicaId(1, 2)) == "ReplicaId(shard=1, index=2)"

    def test_cached_identity_survives_codec_round_trip_and_replace(self):
        original = ReplicaId(shard=3, index=1)
        decoded = decode_canonical(encode_canonical(original))
        replaced = dataclasses.replace(original, index=2)
        assert decoded == original and decoded is not original
        assert str(decoded) == "r1@S3" and hash(decoded) == hash((3, 1))
        assert str(replaced) == "r2@S3" and hash(replaced) == hash((3, 2))
        # The caches are not fields: they never reach the wire format.
        assert [f.name for f in dataclasses.fields(ReplicaId)] == ["shard", "index"]

    def test_primary_candidate(self):
        assert ReplicaId(0, 0).is_primary_candidate
        assert not ReplicaId(0, 1).is_primary_candidate

    def test_data_item_str(self):
        assert str(DataItem(shard=2, key="user9")) == "user9@S2"


class TestPrimaryIndex:
    def test_rotates_round_robin(self):
        assert [primary_index(v, 4) for v in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_rejects_empty_shard(self):
        with pytest.raises(ValueError):
            primary_index(0, 0)


class TestShardConfig:
    def test_minimum_replication(self):
        with pytest.raises(ConfigurationError):
            ShardConfig(shard_id=0, num_replicas=3)

    def test_quorum_derivation(self):
        shard = ShardConfig(shard_id=0, num_replicas=28)
        assert shard.max_faulty == 9
        assert shard.quorum.commit_quorum == 19


class TestTimerConfig:
    def test_default_ordering_holds(self):
        timers = TimerConfig()
        assert timers.local_timeout < timers.remote_timeout < timers.transmit_timeout

    def test_bad_ordering_rejected(self):
        with pytest.raises(ConfigurationError):
            TimerConfig(local_timeout=5.0, remote_timeout=2.0, transmit_timeout=9.0)

    def test_checkpoint_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TimerConfig(checkpoint_interval=0)


class TestWorkloadConfig:
    def test_defaults_match_paper_standard_settings(self):
        workload = WorkloadConfig()
        assert workload.num_records == 600_000
        assert workload.cross_shard_fraction == pytest.approx(0.30)
        assert workload.batch_size == 100
        assert workload.num_clients == 50_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cross_shard_fraction": 1.5},
            {"cross_shard_fraction": -0.1},
            {"num_records": 0},
            {"batch_size": 0},
            {"num_clients": 0},
            {"remote_reads": -1},
            {"zipf_theta": -0.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(**kwargs)


class TestSystemConfig:
    def test_uniform_builds_one_shard_per_region(self):
        config = SystemConfig.uniform(15, 28)
        assert config.num_shards == 15
        assert config.total_replicas == 420
        assert [s.region for s in config.shards] == list(GCP_REGIONS)

    def test_uniform_wraps_regions_beyond_fifteen(self):
        config = SystemConfig.uniform(17, 4)
        assert config.shards[15].region == GCP_REGIONS[0]

    def test_duplicate_shard_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(shards=(ShardConfig(0, 4), ShardConfig(0, 4)))

    def test_ring_order_must_be_permutation(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(shards=(ShardConfig(0, 4), ShardConfig(1, 4)), ring_order=(0, 2))

    def test_custom_ring_order_is_used(self):
        config = SystemConfig(
            shards=(ShardConfig(0, 4), ShardConfig(1, 4), ShardConfig(2, 4)),
            ring_order=(2, 0, 1),
        )
        assert config.ring().order == (2, 0, 1)

    def test_default_ring_is_ascending(self):
        config = SystemConfig.uniform(4, 4)
        assert config.ring().order == (0, 1, 2, 3)

    def test_shard_lookup(self):
        config = SystemConfig.uniform(3, 4)
        assert config.shard(2).shard_id == 2
        with pytest.raises(ConfigurationError):
            config.shard(9)

    def test_heterogeneous_shard_sizes_allowed(self):
        config = SystemConfig(shards=(ShardConfig(0, 4), ShardConfig(1, 7), ShardConfig(2, 10)))
        assert config.total_replicas == 21
