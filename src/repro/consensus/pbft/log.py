"""Consensus message log: one slot per (view, sequence) pair.

A slot gathers the PrePrepare proposal and the Prepare/Commit votes received
for it, and exposes the phase transitions PBFT cares about: *pre-prepared*,
*prepared* (nf Prepare votes), and *committed* (nf Commit votes on a prepared
slot).  Slots also retain the signed Commit messages so that RingBFT can
assemble the commit certificate attached to ``Forward`` messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.messages import Commit, CommitCertificate, PrePrepare, Prepare
from repro.common.types import ReplicaId
from repro.errors import ConsensusError


class SlotState(enum.Enum):
    """Lifecycle of a consensus slot."""

    EMPTY = "empty"
    PRE_PREPARED = "pre-prepared"
    PREPARED = "prepared"
    COMMITTED = "committed"
    EXECUTED = "executed"


@dataclass
class Slot:
    """All consensus evidence a replica holds for one (view, sequence)."""

    view: int
    sequence: int
    pre_prepare: PrePrepare | None = None
    prepares: dict[ReplicaId, Prepare] = field(default_factory=dict)
    commits: dict[ReplicaId, Commit] = field(default_factory=dict)
    state: SlotState = SlotState.EMPTY

    def record_pre_prepare(self, message: PrePrepare) -> None:
        if self.pre_prepare is not None and self.pre_prepare.batch_digest != message.batch_digest:
            raise ConsensusError(
                f"conflicting PrePrepare for view {self.view} sequence {self.sequence}"
            )
        self.pre_prepare = message
        if self.state is SlotState.EMPTY:
            self.state = SlotState.PRE_PREPARED

    def record_prepare(self, message: Prepare) -> None:
        self.prepares[message.sender] = message

    def record_commit(self, message: Commit) -> None:
        self.commits[message.sender] = message

    def matching_prepares(self, digest: bytes) -> int:
        return sum(1 for msg in self.prepares.values() if msg.batch_digest == digest)

    def matching_commits(self, digest: bytes) -> int:
        return sum(1 for msg in self.commits.values() if msg.batch_digest == digest)


class ConsensusLog:
    """Per-replica log of consensus slots keyed by (view, sequence)."""

    def __init__(self) -> None:
        self._slots: dict[tuple[int, int], Slot] = {}
        self._accepted_digest: dict[tuple[int, int], bytes] = {}
        self._truncated_below: int = 0

    def slot(self, view: int, sequence: int) -> Slot:
        key = (view, sequence)
        if key not in self._slots:
            self._slots[key] = Slot(view=view, sequence=sequence)
        return self._slots[key]

    def has_accepted(self, view: int, sequence: int) -> bool:
        """Whether this replica already accepted a proposal at (view, sequence)."""
        return (view, sequence) in self._accepted_digest

    def accepted_digest(self, view: int, sequence: int) -> bytes | None:
        return self._accepted_digest.get((view, sequence))

    def is_ordering(self, view: int, digest: bytes) -> bool:
        """Whether ``digest`` holds an accepted PrePrepare in ``view``."""
        return any(
            d == digest and v == view for (v, _), d in self._accepted_digest.items()
        )

    def accept(self, view: int, sequence: int, digest: bytes) -> None:
        """Bind this replica to supporting ``digest`` at (view, sequence).

        PBFT safety requires a replica to support at most one proposal per
        (view, sequence); accepting a different digest is an error.
        """
        existing = self._accepted_digest.get((view, sequence))
        if existing is not None and existing != digest:
            raise ConsensusError(
                f"already accepted a different proposal at view {view} sequence {sequence}"
            )
        self._accepted_digest[(view, sequence)] = digest

    # -- phase checks -----------------------------------------------------

    def is_prepared(self, view: int, sequence: int, digest: bytes, quorum: int) -> bool:
        slot = self.slot(view, sequence)
        return (
            slot.pre_prepare is not None
            and slot.pre_prepare.batch_digest == digest
            and slot.matching_prepares(digest) >= quorum
        )

    def is_committed(self, view: int, sequence: int, digest: bytes, quorum: int) -> bool:
        return (
            self.is_prepared(view, sequence, digest, quorum)
            and self.slot(view, sequence).matching_commits(digest) >= quorum
        )

    def mark(self, view: int, sequence: int, state: SlotState) -> None:
        self.slot(view, sequence).state = state

    def state(self, view: int, sequence: int) -> SlotState:
        return self.slot(view, sequence).state

    # -- certificates ------------------------------------------------------

    def commit_certificate(
        self, shard: int, view: int, sequence: int, digest: bytes, quorum: int
    ) -> CommitCertificate:
        """Assemble the set ``A`` of nf signed Commit messages for a slot."""
        slot = self.slot(view, sequence)
        signatures = tuple(
            msg.signature
            for msg in slot.commits.values()
            if msg.batch_digest == digest and msg.signature is not None
        )
        if len(signatures) < quorum:
            raise ConsensusError(
                f"only {len(signatures)} signed commits available, need {quorum}"
            )
        return CommitCertificate(
            shard=shard,
            view=view,
            sequence=sequence,
            batch_digest=digest,
            signatures=signatures[:quorum],
        )

    def prepared_sequences(self, quorum: int) -> list[tuple[int, int, bytes]]:
        """Every (view, sequence, digest) this replica saw reach the prepared phase.

        Used to build ViewChange messages: every prepared request above the
        truncation floor must survive into the new view -- executed ones
        included, or a new primary that hears only from replicas that already
        executed a sequence abandons it under the replicas that did not.
        """
        prepared = []
        for (view, sequence), slot in self._slots.items():
            if slot.pre_prepare is None:
                continue
            digest = slot.pre_prepare.batch_digest
            if slot.matching_prepares(digest) >= quorum:
                prepared.append((view, sequence, digest))
        return sorted(prepared, key=lambda item: item[1])

    def pre_prepare_for(self, view: int, sequence: int) -> PrePrepare | None:
        return self.slot(view, sequence).pre_prepare

    def highest_sequence(self) -> int:
        """Highest sequence this log has ever covered.

        Includes the truncation floor: after garbage collection empties the
        log, a new primary must still number fresh proposals *above* the
        truncated history, never reuse executed sequence numbers.
        """
        return max((seq for _, seq in self._slots), default=self._truncated_below)

    # -- garbage collection ------------------------------------------------

    @property
    def slot_count(self) -> int:
        """Number of slots currently retained (a steady-state memory gauge)."""
        return len(self._slots)

    def truncate_below(self, sequence: int) -> set[bytes]:
        """Drop every slot (and accepted-digest binding) at or below ``sequence``.

        This is the log-truncation step of the checkpoint protocol: once a
        checkpoint at ``sequence`` is stable, the consensus evidence for the
        sequences it covers is no longer needed (view changes restart from the
        stable checkpoint, and dark replicas catch up via state transfer).

        Returns the batch digests whose evidence was dropped and that no
        *retained* slot still references, so the caller can release the batch
        payloads as well.  A digest that also appears above the watermark
        (e.g. re-proposed after a view change) is deliberately excluded.
        """
        self._truncated_below = max(self._truncated_below, sequence)
        dropped: set[bytes] = set()
        for key in [k for k in self._slots if k[1] <= sequence]:
            slot = self._slots.pop(key)
            if slot.pre_prepare is not None:
                dropped.add(slot.pre_prepare.batch_digest)
        for key in [k for k in self._accepted_digest if k[1] <= sequence]:
            del self._accepted_digest[key]
        retained = {
            slot.pre_prepare.batch_digest
            for slot in self._slots.values()
            if slot.pre_prepare is not None
        }
        return dropped - retained


#: Alias under the name the checkpoint protocol uses ("replicas truncate
#: their message logs"); the two names refer to the same class.
MessageLog = ConsensusLog
