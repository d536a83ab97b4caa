"""Fixed-layout vote encoders: byte-equivalence, injectivity, round trips.

The struct-packed fast paths for Prepare/Commit/Checkpoint must be *invisible*
on the wire: every payload they produce has to equal the generic codec's
encoding of the same field dict bit for bit, or MACs and digests would stop
interoperating between fast-path and generic encoders.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import codec
from repro.common.messages import (
    Checkpoint,
    Commit,
    Prepare,
    _commit_vote_fields,
)
from repro.common.types import ReplicaId

_SENDERS = (ReplicaId(0, 0), ReplicaId(7, 27), "client-0", "äöü ☃", "")
_VIEWS = (0, 1, 99, 10**9)
_SEQUENCES = (0, 1, -5, 10**15)
_DIGESTS = (b"", b"\x00" * 32, bytes(range(64)), b"\xff")


def _grid():
    for sender in _SENDERS:
        for view in _VIEWS:
            for sequence in _SEQUENCES:
                for digest in _DIGESTS:
                    yield sender, view, sequence, digest


class TestByteEquivalence:
    def test_prepare_matches_generic_encoding(self):
        for sender, view, sequence, digest in _grid():
            message = Prepare(sender=sender, view=view, sequence=sequence, batch_digest=digest)
            assert message.payload_bytes() == codec.encode_canonical(message._payload_fields())

    def test_commit_matches_generic_encoding(self):
        for sender, view, sequence, digest in _grid():
            message = Commit(sender=sender, view=view, sequence=sequence, batch_digest=digest)
            assert message.payload_bytes() == codec.encode_canonical(message._payload_fields())

    def test_commit_signed_payload_matches_generic_encoding(self):
        for _, view, sequence, digest in _grid():
            message = Commit(sender=ReplicaId(0, 1), view=view, sequence=sequence,
                             batch_digest=digest)
            assert message.signed_payload() == codec.encode_canonical(
                _commit_vote_fields(view, sequence, digest)
            )

    def test_checkpoint_matches_generic_encoding(self):
        for sender, _, sequence, digest in _grid():
            message = Checkpoint(sender=sender, sequence=sequence, state_digest=digest)
            assert message.payload_bytes() == codec.encode_canonical(message._payload_fields())

    def test_digest_agrees_between_fast_and_generic_first_call(self):
        """Whichever of payload_bytes()/digest() runs first, bytes agree."""
        a = Prepare(sender=ReplicaId(1, 2), view=3, sequence=4, batch_digest=b"\x01" * 32)
        b = Prepare(sender=ReplicaId(1, 2), view=3, sequence=4, batch_digest=b"\x01" * 32)
        a.payload_bytes()  # fast path first
        b.digest()  # generic walk first (memoized_digest -> memoized_payload)
        assert a.digest() == b.digest()
        assert a.payload_bytes() == b.payload_bytes()


class TestRoundTripAndInjectivity:
    def test_packed_payloads_decode_to_the_field_dict(self):
        for sender, view, sequence, digest in _grid():
            message = Prepare(sender=sender, view=view, sequence=sequence, batch_digest=digest)
            assert codec.decode_canonical(message.payload_bytes()) == message._payload_fields()

    def test_distinct_votes_encode_distinctly(self):
        seen = {}
        for sender, view, sequence, digest in _grid():
            message = Commit(sender=sender, view=view, sequence=sequence, batch_digest=digest)
            key = message.payload_bytes()
            identity = (str(sender), view, sequence, digest)
            assert seen.setdefault(key, identity) == identity
        assert len(seen) == len(list(_grid()))

    def test_type_confusion_is_impossible_across_vote_types(self):
        """A Prepare and a Commit over identical fields must not collide."""
        prepare = Prepare(sender=ReplicaId(0, 1), view=1, sequence=2, batch_digest=b"d" * 32)
        commit = Commit(sender=ReplicaId(0, 1), view=1, sequence=2, batch_digest=b"d" * 32)
        assert prepare.payload_bytes() != commit.payload_bytes()

    def test_int_vs_str_fields_cannot_collide(self):
        """The packed int path must stay type-tagged: 1 != "1"."""
        packed = codec.compile_fixed_dict({"type": "T"}, ("x",))
        assert packed(1) != packed("1")
        assert packed(1) == codec.encode_canonical({"type": "T", "x": 1})
        assert packed("1") == codec.encode_canonical({"type": "T", "x": "1"})

    def test_non_fast_types_fall_back_to_the_generic_walker(self):
        packed = codec.compile_fixed_dict({"type": "T"}, ("x",))
        for value in (None, True, 1.5, (1, 2), [1], {"a": 1}, frozenset({1})):
            assert packed(value) == codec.encode_canonical({"type": "T", "x": value})

    def test_bool_is_not_collapsed_into_int(self):
        packed = codec.compile_fixed_dict({}, ("x",))
        assert packed(True) != packed(1)
        assert packed(True) == codec.encode_canonical({"x": True})

    def test_overlapping_static_and_dynamic_keys_rejected(self):
        with pytest.raises(codec.MalformedMessageError):
            codec.compile_fixed_dict({"x": 1}, ("x",))


class TestHypothesisEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        sender=st.text(max_size=30),
        view=st.integers(),
        sequence=st.integers(),
        digest=st.binary(max_size=80),
    )
    def test_packed_prepare_equals_generic_for_arbitrary_fields(
        self, sender, view, sequence, digest
    ):
        message = Prepare(sender=sender, view=view, sequence=sequence, batch_digest=digest)
        expected = codec.encode_canonical(message._payload_fields())
        assert message.payload_bytes() == expected
        assert codec.decode_canonical(expected) == message._payload_fields()


class TestPackedVoteMemo:
    def test_packed_vote_is_encoded_once_per_message(self):
        message = Prepare(sender=ReplicaId(0, 1), view=1, sequence=2, batch_digest=b"d" * 32)
        before = codec.STATS.snapshot()
        first = message.payload_bytes()
        assert message.payload_bytes() is first
        assert first == codec.encode_canonical(message._payload_fields())
        delta = codec.STATS.delta_since(before)
        assert delta["payload"] == {"hits": 1, "misses": 1}
