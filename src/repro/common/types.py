"""Core identifier types used across every subsystem.

The paper's notation (Section 3) is mapped onto explicit Python types:

* a *shard* ``S`` has a ring identifier ``id(S)`` -- :class:`ShardId`;
* a *replica* ``r`` belongs to a shard and has a local index ``id(r)`` used by
  the linear communication primitive -- :class:`ReplicaId`;
* clients are globally identified -- :class:`ClientId`;
* consensus sequence numbers ``k`` and views are plain integers wrapped in
  ``NewType`` aliases so signatures stay self-documenting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NewType

from repro.common.codec import register_wire_type

ShardId = NewType("ShardId", int)
ClientId = NewType("ClientId", str)
SeqNum = NewType("SeqNum", int)
ViewNum = NewType("ViewNum", int)


@register_wire_type
@dataclass(frozen=True, order=True)
class ReplicaId:
    """Globally unique replica identity.

    ``shard`` is the ring identifier of the shard the replica belongs to and
    ``index`` is the replica's position inside its shard (``0..n-1``).  The
    linear communication primitive pairs replicas of neighbouring shards that
    share the same ``index``.

    Replica ids key every routing table, quorum set and MAC-pad cache and
    name every message sender, so the string form and the hash are computed
    once, at construction.  The hash is ``hash((shard, index))``, the value
    the generated dataclass hash would give, which keeps set and dict
    iteration orders -- and with them fan-out order and the simulator's
    execution -- unchanged.  Equality and ordering are the generated ones.
    """

    shard: int
    index: int
    # Per-instance caches set in __post_init__.  Declared ClassVar so that
    # they are not dataclass fields (fields are the wire format).
    _str: ClassVar[str]
    _hash: ClassVar[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_str", f"r{self.index}@S{self.shard}")
        object.__setattr__(self, "_hash", hash((self.shard, self.index)))

    def __str__(self) -> str:
        return self._str

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_primary_candidate(self) -> bool:
        """Whether this replica is the default (view 0) primary of its shard."""
        return self.index == 0


def primary_index(view: int, num_replicas: int) -> int:
    """Return the replica index acting as primary in ``view``.

    PBFT rotates the primary round-robin over the replica indices, so the
    primary of view ``v`` in a shard of ``n`` replicas is ``v mod n``.
    """
    if num_replicas <= 0:
        raise ValueError("num_replicas must be positive")
    return view % num_replicas


@dataclass(frozen=True)
class DataItem:
    """A single data item (YCSB record key) owned by exactly one shard."""

    shard: int
    key: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.key}@S{self.shard}"
