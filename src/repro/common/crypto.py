"""Authenticated-communication substrate.

The paper (Section 3, *Authenticated Communication*) uses two primitives:

* **MACs** for intra-shard messages: cheap, symmetric, no non-repudiation.
* **Digital signatures (DS)** for cross-shard messages: asymmetric,
  non-repudiable -- a receiver can prove to a third party who signed.

Running real public-key cryptography adds nothing to a protocol-level
reproduction, so this module implements both primitives on top of
HMAC-SHA256 while preserving the *semantics* the protocol relies on:

* A MAC can only be produced and verified by the two endpoints that share the
  pairwise secret (``MacAuthenticator``).
* A signature can only be produced by the holder of the signing key, but can
  be verified by *anyone* holding the public registry (``SignatureScheme``),
  which is exactly the non-repudiation property Forward certificates need.

Byzantine replicas in the simulator never receive other replicas' keys, so
impersonation is impossible by construction, matching the system model.
"""

from __future__ import annotations

import hashlib
import hmac
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, TypeVar

from repro.common.codec import register_wire_type
from repro.errors import CryptoError

DIGEST_SIZE = 32

#: Default capacity of the keystore's verification memo caches.
DEFAULT_VERIFY_CACHE_SIZE = 65_536

_MISS = object()


class LruCache:
    """A small LRU memo with hit/miss counters.

    Verification of a ``(signer, signature, payload)`` triple is a pure
    function of key material, so its result can be memoised safely; replicas
    re-verify the same Forward certificates on every retransmission and at
    every one of the ``f + 1`` matching receptions, which makes signature
    re-verification the dominant cost of cross-shard Forward processing.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise CryptoError("LruCache needs a positive maxsize")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> Any:
        value = self._data.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return _MISS
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()

    def stats(self) -> dict[str, int]:
        return {"size": len(self._data), "hits": self.hits, "misses": self.misses}


#: HMAC (RFC 2104) key padding for SHA-256: keys are zero-filled to the
#: 64-byte block and XORed with these bytes to seed the two hash states.
_SHA256_BLOCK = 64
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))

HmacPads = tuple["hashlib._Hash", "hashlib._Hash"]

_Peer = TypeVar("_Peer", bound=Hashable)


def hmac_pads(key: bytes) -> HmacPads:
    """The HMAC-SHA256 inner and outer hash states of ``key``, built once.

    Feeding a payload through copies of these states (:func:`hmac_tag`)
    gives exactly ``hmac.new(key, payload, hashlib.sha256).digest()``, minus
    the per-call key schedule.
    """
    if len(key) > _SHA256_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_SHA256_BLOCK, b"\0")
    return hashlib.sha256(key.translate(_IPAD)), hashlib.sha256(key.translate(_OPAD))


def hmac_tag(pads: HmacPads, payload: bytes) -> bytes:
    """HMAC-SHA256 of ``payload`` under the key whose pads are ``pads``."""
    inner_state, outer_state = pads
    inner = inner_state.copy()
    inner.update(payload)
    outer = outer_state.copy()
    outer.update(inner.digest())
    return outer.digest()


def sha256(data: bytes) -> bytes:
    """Collision-resistant digest ``H(v)`` used throughout the protocol."""
    return hashlib.sha256(data).digest()


def digest_hex(data: bytes) -> str:
    """Hex form of :func:`sha256`, convenient for logging and block hashes."""
    return hashlib.sha256(data).hexdigest()


@register_wire_type
@dataclass(frozen=True)
class Signature:
    """A digital signature over a message digest.

    ``signer`` identifies the signing entity (replica or client name); the
    ``value`` is the raw signature bytes.  Signatures are compared by value,
    so they can be collected into sets when building commit certificates.
    """

    signer: str
    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != DIGEST_SIZE:
            raise CryptoError(f"signature must be {DIGEST_SIZE} bytes, got {len(self.value)}")


class KeyStore:
    """Holds per-entity secrets for the whole deployment.

    A single ``KeyStore`` is created when a cluster is built; it hands each
    replica its own private signing key and the pairwise MAC secrets it needs.
    Only the key material handed out is available to a node, so a Byzantine
    node cannot forge messages from others.
    """

    def __init__(
        self,
        seed: bytes = b"ringbft-repro",
        *,
        verify_cache_size: int = DEFAULT_VERIFY_CACHE_SIZE,
    ) -> None:
        self._seed = seed
        self._signing_keys: dict[str, bytes] = {}
        self._signing_pads: dict[str, HmacPads] = {}
        #: Shared memo caches for signature / certificate verification;
        #: ``verify_cache_size=0`` disables memoisation entirely.
        self.verify_cache: LruCache | None = (
            LruCache(verify_cache_size) if verify_cache_size else None
        )
        self.certificate_cache: LruCache | None = (
            LruCache(verify_cache_size) if verify_cache_size else None
        )

    def signing_key(self, entity: str) -> bytes:
        """Private signing key for ``entity``; only given to that entity."""
        key = self._signing_keys.get(entity)
        if key is None:
            key = hmac.new(self._seed, b"sign|" + entity.encode(), hashlib.sha256).digest()
            self._signing_keys[entity] = key
        return key

    def signing_pads(self, entity: str) -> HmacPads:
        """HMAC pads of ``entity``'s signing key (see :func:`hmac_pads`)."""
        pads = self._signing_pads.get(entity)
        if pads is None:
            pads = self._signing_pads[entity] = hmac_pads(self.signing_key(entity))
        return pads

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss counters of the verification memo caches.

        The ``is not None`` checks matter: :class:`LruCache` defines
        ``__len__``, so a merely *empty* cache is falsy and a plain truthiness
        test would misreport it as disabled.
        """
        return {
            "verify": self.verify_cache.stats() if self.verify_cache is not None else {},
            "certificate": (
                self.certificate_cache.stats() if self.certificate_cache is not None else {}
            ),
        }

    def mac_key(self, a: str, b: str) -> bytes:
        """Pairwise MAC secret shared by entities ``a`` and ``b``.

        Broadcast authentication deliberately stays *pairwise* (a PBFT
        authenticator is a vector of per-peer tags): a shared audience key
        would let any of the up-to-``f`` Byzantine members of a shard forge
        tags impersonating the primary to honest peers -- exactly the forgery
        pairwise MACs exist to prevent.  The multicast fast path therefore
        optimises the *serialization* under the tags (one memoised payload
        for all ``n`` HMACs), never the key structure.
        """
        lo, hi = sorted((a, b))
        return hmac.new(self._seed, b"mac|" + lo.encode() + b"|" + hi.encode(), hashlib.sha256).digest()


class SignatureScheme:
    """Digital-signature emulation with a public verification registry.

    ``sign`` requires the signer's private key (obtained from the
    :class:`KeyStore`); ``verify`` only needs the signer's *name* because the
    registry re-derives the verification tag, mirroring how anyone holding a
    public key can verify an Ed25519 signature.
    """

    def __init__(self, keystore: KeyStore) -> None:
        self._keystore = keystore

    def sign(self, entity: str, payload: bytes, private_key: bytes | None = None) -> Signature:
        """Sign ``payload`` as ``entity``.

        ``private_key`` may be passed explicitly (the normal path for replica
        code that was handed its key at start-up); when omitted the keystore
        is consulted directly, which is convenient in tests.
        """
        key = private_key if private_key is not None else self._keystore.signing_key(entity)
        expected = self._keystore.signing_key(entity)
        if not hmac.compare_digest(key, expected):
            raise CryptoError(f"entity {entity!r} presented a key it does not own")
        value = hmac_tag(self._keystore.signing_pads(entity), payload)
        return Signature(signer=entity, value=value)

    def verify(self, signature: Signature, payload: bytes) -> bool:
        """Return ``True`` iff ``signature`` is a valid signature on ``payload``.

        Results are memoised in the keystore's shared LRU cache: verification
        is deterministic, and the protocol re-checks the same signatures many
        times (Forward certificates, retransmissions, local sharing).
        """
        cache = self._keystore.verify_cache
        if cache is None:
            return self._verify_uncached(signature, payload)
        key = (signature.signer, signature.value, sha256(payload))
        value = cache.get(key)
        if value is _MISS:
            value = self._verify_uncached(signature, payload)
            cache.put(key, value)
        return value

    def _verify_uncached(self, signature: Signature, payload: bytes) -> bool:
        expected = hmac_tag(self._keystore.signing_pads(signature.signer), payload)
        return hmac.compare_digest(expected, signature.value)

    def require_valid(self, signature: Signature, payload: bytes) -> None:
        """Raise :class:`CryptoError` unless the signature verifies."""
        if not self.verify(signature, payload):
            raise CryptoError(f"invalid signature from {signature.signer!r}")


@dataclass
class MacAuthenticator:
    """Pairwise MAC authentication for intra-shard traffic.

    An authenticator is owned by one endpoint (``owner``).  For each peer it
    builds the HMAC-SHA256 pads of the pairwise secret once
    (:func:`hmac_pads`), so a tag costs two hash-state copies instead of a
    fresh key schedule; the tags are byte-identical to ``hmac.new``'s and the
    keys stay pairwise (see :meth:`KeyStore.mac_key`).  A peer is named by
    anything whose ``str`` is its entity name -- replicas pass their
    :class:`~repro.common.types.ReplicaId`, so the hot path never formats it.
    """

    owner: str
    keystore: KeyStore
    _pads: dict[Hashable, HmacPads] = field(default_factory=dict)

    def _mac(self, peer: Hashable, payload: bytes) -> bytes:
        pads = self._pads.get(peer)
        if pads is None:
            pads = self._pads[peer] = hmac_pads(self.keystore.mac_key(self.owner, str(peer)))
        return hmac_tag(pads, payload)

    def tag(self, peer: Hashable, payload: bytes) -> bytes:
        """MAC tag authenticating ``payload`` for the channel owner -> peer."""
        return self._mac(peer, payload)

    def verify(self, peer: Hashable, payload: bytes, tag: bytes) -> bool:
        """Verify a MAC tag received from ``peer`` (constant-time compare)."""
        return hmac.compare_digest(self._mac(peer, payload), tag)

    def tag_vector(self, peers: Iterable[_Peer], payload: bytes) -> dict[_Peer, bytes]:
        """The PBFT authenticator: one pairwise tag per audience member.

        This is the broadcast fast path: ``payload`` is resolved once (it is
        memoised on the message), so authenticating a fan-out of ``n`` costs
        ``n`` HMACs over shared bytes instead of ``n`` re-serialisations.
        The key structure stays pairwise -- see :meth:`KeyStore.mac_key`.
        """
        return {peer: self.tag(peer, payload) for peer in peers}


def verify_certificate(
    scheme: SignatureScheme,
    payload: bytes,
    signatures: tuple[Signature, ...] | list[Signature],
    required: int,
) -> bool:
    """Check a certificate of signatures over a common payload.

    A certificate is valid when at least ``required`` signatures from
    *distinct* signers verify over ``payload``.  Used by replicas receiving a
    ``Forward`` message to check that the previous shard really committed the
    transaction (Figure 5, line 31).

    Whole-certificate results are memoised: every replica of the next shard
    receives ``f + 1`` matching Forwards (plus retransmissions) carrying the
    *same* commit certificate, so the second check onwards is a cache hit.
    """
    cache = scheme._keystore.certificate_cache
    if cache is None:
        return _verify_certificate_uncached(scheme, payload, signatures, required)
    key = (
        sha256(payload),
        tuple(sorted((sig.signer, sig.value) for sig in signatures)),
        required,
    )
    value = cache.get(key)
    if value is _MISS:
        value = _verify_certificate_uncached(scheme, payload, signatures, required)
        cache.put(key, value)
    return value


def _verify_certificate_uncached(
    scheme: SignatureScheme,
    payload: bytes,
    signatures: tuple[Signature, ...] | list[Signature],
    required: int,
) -> bool:
    valid_signers = {sig.signer for sig in signatures if scheme.verify(sig, payload)}
    return len(valid_signers) >= required
