"""Unit tests for the canonical binary codec and the payload/digest memos."""

import importlib.util
from pathlib import Path

import pytest

from repro.common import codec
from repro.common.codec import (
    decode_canonical,
    encode_canonical,
    registered_wire_types,
)
from repro.common.messages import Checkpoint, Execute, batch_digest
from repro.common.types import ReplicaId
from repro.errors import MalformedMessageError
from repro.txn.transaction import OpType, Operation, Transaction, TransactionBuilder


def _load_legacy_json():
    """The pre-codec JSON reference encoder, which lives with the benchmarks."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "legacy_json.py"
    spec = importlib.util.spec_from_file_location("legacy_json", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


legacy_json = _load_legacy_json()


def _txn(txn_id="t1", shard=0):
    return TransactionBuilder(txn_id, "client-0").read_modify_write(shard, "user1", "v").build()


class TestInjectivity:
    """Distinct values must never share an encoding (the ``default=str`` bug)."""

    def test_bytes_never_collide_with_their_string_forms(self):
        raw = b"\x01\x02"
        for impostor in (raw.hex(), str(raw), raw.decode("latin-1")):
            assert encode_canonical(raw) != encode_canonical(impostor)

    def test_int_keys_never_collide_with_str_keys(self):
        assert encode_canonical({1: "x"}) != encode_canonical({"1": "x"})

    def test_int_values_never_collide_with_str_values(self):
        assert encode_canonical(7) != encode_canonical("7")
        assert encode_canonical({"k": 7}) != encode_canonical({"k": "7"})

    def test_bool_never_collides_with_int(self):
        assert encode_canonical(True) != encode_canonical(1)
        assert encode_canonical(False) != encode_canonical(0)

    def test_list_tuple_and_set_are_distinct(self):
        assert encode_canonical([1, 2]) != encode_canonical((1, 2))
        assert encode_canonical([1, 2]) != encode_canonical(frozenset({1, 2}))

    def test_nesting_boundaries_are_unambiguous(self):
        assert encode_canonical([["a"], "b"]) != encode_canonical([["a", "b"]])
        assert encode_canonical({"a": {"b": "c"}}) != encode_canonical({"a": {"b": "c"}, "d": {}})


class TestDeterminism:
    def test_dict_ordering_is_insertion_independent(self):
        assert encode_canonical({"a": 1, "b": 2}) == encode_canonical({"b": 2, "a": 1})
        assert encode_canonical({2: "x", 10: "y"}) == encode_canonical({10: "y", 2: "x"})

    def test_mixed_key_dicts_encode_deterministically(self):
        one = encode_canonical({1: "x", "1": "y"})
        two = encode_canonical({"1": "y", 1: "x"})
        assert one == two

    def test_frozenset_ordering_is_canonical(self):
        assert encode_canonical(frozenset({3, 1, 2})) == encode_canonical(frozenset({2, 3, 1}))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**80,
            1.5,
            "",
            "héllo",
            b"",
            b"\x00\xff",
            [1, "two", b"three"],
            (1, (2, 3)),
            {"a": [1], "b": {"c": None}},
            {1: "x", "1": "y"},
            frozenset({1, 2, 3}),
        ],
    )
    def test_primitives_round_trip(self, value):
        decoded = decode_canonical(encode_canonical(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_registered_dataclasses_round_trip(self):
        txn = _txn()
        assert decode_canonical(encode_canonical(txn)) == txn
        rid = ReplicaId(shard=2, index=3)
        assert decode_canonical(encode_canonical(rid)) == rid
        op = Operation(shard=0, key="k", op_type=OpType.WRITE, value="v", depends_on=((1, "x"),))
        assert decode_canonical(encode_canonical(op)) == op

    def test_trailing_bytes_rejected(self):
        with pytest.raises(MalformedMessageError):
            decode_canonical(encode_canonical(1) + b"!")

    @pytest.mark.parametrize(
        "junk",
        [
            b"",  # empty frame
            b"\x99",  # unknown tag
            b"D\x00",  # truncated float body
            b"I\x00\x00\x00\x02ab",  # non-numeric int body
            b"S\x00\x00\x00\x01\xff",  # invalid utf-8 str body
            b"B\x00\x00\x00\x05ab",  # truncated bytes body
            b"I\x00\x00",  # truncated length prefix
            b"I\x00\x00\x00\x02+5",  # non-canonical int spelling
            b"I\x00\x00\x00\x03" + b"5_0",  # underscore int spelling
            b"I\x00\x00\x00\x64" + b"5",  # int body longer than the frame
            b"S\x00\x00\x00\x64" + b"ab",  # str body longer than the frame
        ],
    )
    def test_malformed_inputs_raise_the_module_error(self, junk):
        """Low-level struct/unicode errors are translated, never leaked."""
        with pytest.raises(MalformedMessageError):
            decode_canonical(junk)

    def test_codec_has_one_encoding_path(self):
        # The benchmark-only JSON switch is gone from src/: nothing can fork
        # the canonical byte form that MACs, certificates and digests share.
        for name in ("LEGACY", "legacy_json_encoding", "legacy_json_bytes", "encode_payload"):
            assert not hasattr(codec, name), name

    def test_unknown_type_rejected(self):
        with pytest.raises(MalformedMessageError):
            encode_canonical(object())

    def test_registry_contains_the_protocol_message_set(self):
        names = set(registered_wire_types())
        assert {"Transaction", "ClientRequest", "Forward", "Commit", "Block", "Signature"} <= names


class TestCanonicalForm:
    """Decode must be the exact inverse of encode: every value has ONE frame."""

    def test_negative_zero_encodes_like_positive_zero(self):
        assert encode_canonical(-0.0) == encode_canonical(0.0)
        assert encode_canonical({"k": -0.0}) == encode_canonical({"k": 0.0})

    def test_nan_is_rejected(self):
        with pytest.raises(MalformedMessageError):
            encode_canonical(float("nan"))
        with pytest.raises(MalformedMessageError):
            encode_canonical({float("nan"): "v"})

    def test_decoder_rejects_negative_zero_and_nan_frames(self):
        import struct

        with pytest.raises(MalformedMessageError):
            decode_canonical(b"D" + struct.pack(">d", -0.0))
        with pytest.raises(MalformedMessageError):
            decode_canonical(b"D" + struct.pack(">d", float("nan")))

    def test_decoder_rejects_out_of_order_dict_entries(self):
        frame = encode_canonical({"a": 1, "b": 2})
        # Splice the two entries into reverse order: same logical value,
        # different bytes -- decode must refuse rather than collapse them.
        header = frame[:5]
        entry_a = encode_canonical("a") + encode_canonical(1)
        entry_b = encode_canonical("b") + encode_canonical(2)
        assert frame == header + entry_a + entry_b
        with pytest.raises(MalformedMessageError):
            decode_canonical(header + entry_b + entry_a)

    def test_decoder_rejects_duplicate_dict_keys(self):
        frame = encode_canonical({"a": 1})
        header = b"M" + frame[1:5].replace(b"\x01", b"\x02")
        entry = frame[5:]
        with pytest.raises(MalformedMessageError):
            decode_canonical(header + entry + entry)

    def test_decoder_rejects_out_of_order_frozenset_elements(self):
        frame = encode_canonical(frozenset({1, 2}))
        header = frame[:5]
        one, two = encode_canonical(1), encode_canonical(2)
        assert frame == header + one + two
        with pytest.raises(MalformedMessageError):
            decode_canonical(header + two + one)

    def test_decoder_rejects_duplicate_frozenset_elements(self):
        header = b"Z\x00\x00\x00\x02"
        one = encode_canonical(1)
        with pytest.raises(MalformedMessageError):
            decode_canonical(header + one + one)

    def test_mixed_key_dict_order_is_validated_with_the_encoders_order(self):
        value = {1: "x", "1": "y", b"1": "z"}
        assert decode_canonical(encode_canonical(value)) == value

    @staticmethod
    def _object_frame(entries):
        import struct

        name = b"ReplicaId"
        frame = b"O" + struct.pack(">I", len(name)) + name + struct.pack(">I", len(entries))
        for fname, value in entries:
            frame += struct.pack(">I", len(fname)) + fname + encode_canonical(value)
        return frame

    def test_decoder_rejects_reordered_object_fields(self):
        good = self._object_frame([(b"shard", 1), (b"index", 2)])
        assert good == encode_canonical(ReplicaId(shard=1, index=2))
        assert decode_canonical(good) == ReplicaId(shard=1, index=2)
        with pytest.raises(MalformedMessageError):
            decode_canonical(self._object_frame([(b"index", 2), (b"shard", 1)]))

    def test_decoder_rejects_duplicate_and_missing_object_fields(self):
        with pytest.raises(MalformedMessageError):
            decode_canonical(self._object_frame([(b"shard", 1), (b"shard", 1)]))
        with pytest.raises(MalformedMessageError):
            decode_canonical(self._object_frame([(b"shard", 1)]))

    def test_decoder_rejects_enum_frame_naming_a_non_enum(self):
        import struct

        name = b"ReplicaId"
        frame = b"E" + struct.pack(">I", len(name)) + name + encode_canonical(1)
        with pytest.raises(MalformedMessageError):
            decode_canonical(frame)


class TestDigestInjectivityRegression:
    """Adversarial field values that collided under JSON canonicalization."""

    def test_int_vs_str_write_set_keys_digest_differently(self):
        base = dict(sender=ReplicaId(1, 0), batch_digest=b"\x03" * 32, txn_ids=("t1",), origin_shard=1)
        int_keys = Execute(write_sets={0: {"k": "v"}}, **base)
        str_keys = Execute(write_sets={"0": {"k": "v"}}, **base)
        assert int_keys.digest() != str_keys.digest()
        # The pre-codec JSON form collides -- which is exactly why it only
        # survives as a benchmark reference.
        assert legacy_json.legacy_json_digest(
            int_keys._payload_fields()
        ) == legacy_json.legacy_json_digest(str_keys._payload_fields())

    def test_bytes_vs_stringified_bytes_digest_differently(self):
        raw = Checkpoint(sender=ReplicaId(0, 0), sequence=4, state_digest=b"\xab" * 32)
        impostor = Checkpoint(sender=ReplicaId(0, 0), sequence=4, state_digest=(b"\xab" * 32).hex())
        assert raw.digest() != impostor.digest()
        assert legacy_json.legacy_json_digest(
            raw._payload_fields()
        ) == legacy_json.legacy_json_digest(impostor._payload_fields())

    def test_transaction_digest_distinguishes_value_types(self):
        a = Transaction("t", "c", (Operation(shard=0, key="k", op_type=OpType.WRITE, value="7"),))
        b = Transaction("t", "c", (Operation(shard=0, key="k", op_type=OpType.WRITE, value=7),))
        assert a.digest() != b.digest()


class TestMemoisation:
    def test_payload_bytes_encoded_once_per_object(self):
        txn = _txn()
        first = txn.payload_bytes()
        assert txn.payload_bytes() is first  # same object, not merely equal

    def test_digest_hashed_once_per_object(self):
        message = Checkpoint(sender=ReplicaId(0, 0), sequence=4, state_digest=b"\x01" * 32)
        assert message.digest() is message.digest()

    def test_stats_count_hits_and_misses(self):
        before = codec.STATS.snapshot()
        txn = _txn("memo-stats")
        txn.digest()
        txn.digest()
        delta = codec.STATS.delta_since(before)
        assert delta["digest"]["misses"] == 1
        assert delta["digest"]["hits"] == 1

    def test_batch_digest_reuses_transaction_digests(self):
        from repro.common.messages import ClientRequest

        requests = tuple(
            ClientRequest(sender="client-0", transaction=_txn(f"b-{i}")) for i in range(3)
        )
        first = batch_digest(requests)
        before = codec.STATS.snapshot()
        assert batch_digest(requests) == first
        delta = codec.STATS.delta_since(before)
        assert delta["digest"]["misses"] == 0  # every leaf came from the memo

    def test_prime_payload_seeds_the_memo(self):
        source = _txn("prime-src")
        payload = source.payload_bytes()
        clone = Transaction(source.txn_id, source.client_id, source.operations)
        codec.prime_payload(clone, payload)
        assert clone.payload_bytes() is payload

    def test_reference_encoder_bypasses_the_memos(self):
        # The benchmark baseline must redo the JSON work on every call and
        # leave the codec's memos and counters untouched.
        txn = _txn("reference")
        before = codec.STATS.snapshot()
        one = legacy_json.legacy_json_bytes(txn.to_wire())
        two = legacy_json.legacy_json_bytes(txn.to_wire())
        assert one == two
        assert one is not two  # recomputed per call, like the pre-codec path
        delta = codec.STATS.delta_since(before)
        assert delta["payload"] == {"hits": 0, "misses": 0}
        assert delta["digest"] == {"hits": 0, "misses": 0}
        assert txn.payload_bytes() != one  # binary codec differs from JSON
