"""Canonical binary wire codec for protocol payloads.

Every MAC, signature, and digest in the stack bottoms out in a canonical byte
representation of a message payload.  The original implementation re-ran
``json.dumps(..., sort_keys=True, default=str)`` on every call, which has two
problems:

* **cost** -- JSON canonicalization dominated the CPU profile the paper
  attributes to cryptography (the payload is re-serialised on every send,
  every reception, and every retransmission of the same message);
* **ambiguity** -- ``default=str`` silently stringifies bytes and nested
  objects, so two *distinct* payloads (``b"\\x01"`` vs ``"b'\\\\x01'"``, int
  keys vs their string form) could serialize -- and therefore digest -- to the
  same bytes.

This module replaces it with a compact, deterministic, *injective* binary
encoding: every value is emitted as a one-byte type tag followed by a
length-prefixed body, so distinct values of distinct types can never collide.
Container contents are self-delimiting, dictionaries and sets are ordered by
their encoded key bytes (total and type-safe, unlike comparing mixed-type
keys), and registered dataclasses round-trip losslessly through
:func:`decode_canonical`.

The module also hosts the process-wide codec statistics (payload/digest memo
hit counters surfaced through ``RunResult`` and the CLI).  The pre-codec JSON
form is not part of the package: ``benchmarks/bench_hotpath.py`` keeps it as a
benchmark-local reference encoder and times this codec against it.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable

from repro.errors import MalformedMessageError

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

# One-byte type tags.  Distinct tags per type are what make the encoding
# injective: bytes can never collide with the str of those bytes, nor an int
# key with its decimal string.
_NONE = b"N"
_TRUE = b"T"
_FALSE = b"F"
_INT = b"I"
_FLOAT = b"D"
_STR = b"S"
_BYTES = b"B"
_LIST = b"L"
_TUPLE = b"U"
_DICT = b"M"
_FROZENSET = b"Z"
_OBJECT = b"O"
_ENUM = b"E"


# ---------------------------------------------------------------------------
# wire-type registry (for lossless decode of dataclasses and enums)
# ---------------------------------------------------------------------------

_WIRE_TYPES: dict[str, type] = {}


def register_wire_type(cls: type) -> type:
    """Register a dataclass or enum so :func:`decode_canonical` can rebuild it.

    Usable as a decorator.  Registration is keyed by class name; the protocol
    message set has globally unique names, which the registry enforces.
    """
    name = cls.__name__
    existing = _WIRE_TYPES.get(name)
    if existing is not None and existing is not cls:
        raise MalformedMessageError(f"wire type name {name!r} registered twice")
    _WIRE_TYPES[name] = cls
    return cls


def registered_wire_types() -> dict[str, type]:
    """Snapshot of the registry (used by the round-trip property tests)."""
    return dict(_WIRE_TYPES)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


# Length prefixes are 4-byte big-endian; the first 256 are interned since
# almost every string/collection on the hot path is short.
_LEN = [_U32.pack(i) for i in range(256)]
_pack_u32 = _U32.pack


def _pack_len(n: int) -> bytes:
    return _LEN[n] if n < 256 else _pack_u32(n)


def _encode_str(value: str, out: list[bytes]) -> None:
    body = value.encode()
    out.append(_STR)
    out.append(_pack_len(len(body)))
    out.append(body)


def _encode_int(value: int, out: list[bytes]) -> None:
    body = str(value).encode()
    out.append(_INT)
    out.append(_pack_len(len(body)))
    out.append(body)


def _encode_bytes(value: bytes, out: list[bytes]) -> None:
    out.append(_BYTES)
    out.append(_pack_len(len(value)))
    out.append(value)


def _encode_float(value: float, out: list[bytes]) -> None:
    if value != value:
        # NaN compares unequal to itself, so NaN payloads would break both
        # the "equal values -> identical bytes" contract and dict-key sorting
        # (sorting a dict with NaN keys is input-order dependent).
        raise MalformedMessageError("cannot canonically encode NaN")
    if value == 0.0:
        value = 0.0  # collapse -0.0: equal values must share one encoding
    out.append(_FLOAT)
    out.append(_F64.pack(value))


def _encode_bool(value: bool, out: list[bytes]) -> None:
    out.append(_TRUE if value else _FALSE)


def _sorted_items(value: dict[Any, Any]) -> list[tuple[Any, Any]]:
    """Dict entries in canonical encoding order (shared by encode and the
    decoder's canonical-form validation)."""
    try:
        # Fast path: homogeneous (string or int) keys sort natively.  Keys
        # are unique, so the tuple comparison never reaches the values.
        return sorted(value.items())
    except TypeError:
        # Mixed key types: order by encoded key bytes (total and type-safe).
        return [kv for _, kv in sorted((encode_canonical(k), (k, v)) for k, v in value.items())]


def _encode_dict(value: dict[Any, Any], out: list[bytes]) -> None:
    out.append(_DICT)
    out.append(_pack_len(len(value)))
    for key, val in _sorted_items(value):
        _encode_into(key, out)
        _encode_into(val, out)


def _encode_list(value: list[Any], out: list[bytes]) -> None:
    out.append(_LIST)
    out.append(_pack_len(len(value)))
    for item in value:
        _encode_into(item, out)


def _encode_tuple(value: tuple[Any, ...], out: list[bytes]) -> None:
    out.append(_TUPLE)
    out.append(_pack_len(len(value)))
    for item in value:
        _encode_into(item, out)


def _encode_frozenset(value: frozenset[Any], out: list[bytes]) -> None:
    encoded = sorted(encode_canonical(item) for item in value)
    out.append(_FROZENSET)
    out.append(_pack_len(len(encoded)))
    out.extend(encoded)


_ENCODERS: dict[type, Callable[[Any, list[bytes]], None]] = {
    str: _encode_str,
    int: _encode_int,
    bytes: _encode_bytes,
    float: _encode_float,
    bool: _encode_bool,
    dict: _encode_dict,
    list: _encode_list,
    tuple: _encode_tuple,
    frozenset: _encode_frozenset,
    set: _encode_frozenset,
}

#: Per-dataclass encoding plan: (object header, per-field name headers, names).
_DATACLASS_PLANS: dict[type, tuple[bytes, tuple[bytes, ...], tuple[str, ...]]] = {}


def _dataclass_plan(cls: type) -> tuple[bytes, tuple[bytes, ...], tuple[str, ...]]:
    plan = _DATACLASS_PLANS.get(cls)
    if plan is None:
        name = cls.__name__.encode()
        names = tuple(f.name for f in fields(cls))
        header = _OBJECT + _pack_len(len(name)) + name + _pack_len(len(names))
        field_headers = tuple(
            _pack_len(len(n.encode())) + n.encode() for n in names
        )
        plan = (header, field_headers, names)
        _DATACLASS_PLANS[cls] = plan
    return plan


def _encode_into(value: Any, out: list[bytes]) -> None:
    encoder = _ENCODERS.get(type(value))
    if encoder is not None:
        encoder(value, out)
        return
    if value is None:
        out.append(_NONE)
        return
    if isinstance(value, enum.Enum):
        name = type(value).__name__.encode()
        out.append(_ENUM)
        out.append(_pack_len(len(name)))
        out.append(name)
        _encode_into(value.value, out)
        return
    if is_dataclass(value):
        header, field_headers, names = _dataclass_plan(type(value))
        out.append(header)
        for field_header, fname in zip(field_headers, names):
            out.append(field_header)
            _encode_into(getattr(value, fname), out)
        return
    if isinstance(value, int):  # int subclasses outside the Enum machinery
        _encode_int(int(value), out)
        return
    if isinstance(value, str):
        _encode_str(str(value), out)
        return
    raise MalformedMessageError(
        f"cannot canonically encode {type(value).__name__}: {value!r}"
    )


def encode_canonical(value: Any) -> bytes:
    """Deterministic, injective byte encoding of ``value``.

    Two calls with equal values *of the same types* always return identical
    bytes; values of distinct types always return distinct bytes -- even when
    Python ``==`` equates them (``True`` vs ``1``, ``1`` vs ``1.0``), because
    type-blind collapsing is exactly what broke injectivity in the old JSON
    path.  Payload builders must therefore be type-stable: derive a field
    from one code path, not sometimes-int/sometimes-bool.
    """
    out: list[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


def compile_fixed_dict(
    static: dict[str, Any],
    dynamic_keys: tuple[str, ...],
    raw_keys: tuple[str, ...] = (),
) -> Callable[..., bytes]:
    """Compile a fixed-layout encoder for dicts with a known key set.

    The hot vote payloads (Prepare/Commit/Checkpoint) are tiny dicts whose
    keys -- and some values -- never change; paying the generic codec walker
    (dict construction, key sorting, per-value dispatch) for every fresh vote
    is ~20% of the optimized macro profile.  This precompiles everything
    static into constant byte segments at import time and leaves only the
    dynamic values to encode per call.

    Returns ``encode(*values)`` taking the dynamic values *in the order of
    ``dynamic_keys``* and producing bytes **identical** to
    ``encode_canonical({**static, **dict(zip(dynamic_keys, values))})`` --
    the fast path never changes the wire format, so digests, MACs, and
    signatures interoperate with generically-encoded peers (enforced by the
    vote-codec equivalence tests).  Dynamic values of type ``str``/``int``/
    ``bytes`` take the inlined fast path; anything else falls back to the
    generic (still injective) walker.

    Keys listed in ``raw_keys`` are *splice slots*: the value supplied for
    such a key must already be canonical codec bytes (e.g. a nested
    envelope's memoised ``payload_bytes()`` or a :func:`list_frame`) and is
    inserted verbatim.  This is what lets the rich envelopes
    (ClientRequest/Forward/Transaction) reuse the encoding work of their
    parts instead of re-walking nested structures; the caller is responsible
    for splicing only well-formed canonical frames.
    """
    if set(static) & set(dynamic_keys):
        raise MalformedMessageError("static and dynamic keys overlap")
    if not set(raw_keys) <= set(dynamic_keys):
        raise MalformedMessageError("raw_keys must be a subset of dynamic_keys")
    ordered = sorted({**static, **{k: None for k in dynamic_keys}})
    consts: list[bytes] = []
    slots: list[tuple[int, bool]] = []
    pending = bytearray(_DICT + _pack_len(len(ordered)))
    for key in ordered:
        pending += encode_canonical(key)
        if key in static:
            pending += encode_canonical(static[key])
        else:
            consts.append(bytes(pending))
            pending = bytearray()
            slots.append((dynamic_keys.index(key), key in raw_keys))
    consts.append(bytes(pending))
    slot_triples = tuple(
        (const, slot, raw) for const, (slot, raw) in zip(consts[:-1], slots)
    )
    tail = consts[-1]

    def encode(*values: Any) -> bytes:
        out: list[bytes] = []
        for const, slot, raw in slot_triples:
            out.append(const)
            value = values[slot]
            if raw:
                out.append(value)
                continue
            kind = type(value)
            if kind is bytes:
                out.append(_BYTES)
                out.append(_pack_len(len(value)))
                out.append(value)
            elif kind is int:  # bool is a distinct type and falls through
                body = str(value).encode()
                out.append(_INT)
                out.append(_pack_len(len(body)))
                out.append(body)
            elif kind is str:
                body = value.encode()
                out.append(_STR)
                out.append(_pack_len(len(body)))
                out.append(body)
            else:
                out.append(encode_canonical(value))
        out.append(tail)
        return b"".join(out)

    return encode


def tuple_frame(encoded_items: tuple[bytes, ...] | list[bytes]) -> bytes:
    """Assemble the canonical encoding of a tuple from pre-encoded items.

    The codec is compositional: the bytes a value contributes inside a
    container are exactly its own :func:`encode_canonical` output.  This
    helper exploits that for fan-out fast paths -- a socket multicast encodes
    the expensive shared suffix (tags + message) once and prepends only the
    per-destination item, yielding bytes identical to
    ``encode_canonical(tuple(items))``.
    """
    return _TUPLE + _pack_len(len(encoded_items)) + b"".join(encoded_items)


def list_frame(encoded_items: tuple[bytes, ...] | list[bytes]) -> bytes:
    """Assemble the canonical encoding of a list from pre-encoded items.

    List analogue of :func:`tuple_frame`, used by the packed Transaction
    layout to splice per-operation frames into the ``operations`` list
    without re-walking each operation dict.
    """
    return _LIST + _pack_len(len(encoded_items)) + b"".join(encoded_items)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _read_len(data: bytes, pos: int) -> tuple[int, int]:
    end = pos + 4
    if end > len(data):
        raise MalformedMessageError("truncated length prefix")
    return _U32.unpack_from(data, pos)[0], end


def _decode_from(data: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(data):
        raise MalformedMessageError("truncated canonical encoding")
    tag = data[pos : pos + 1]
    pos += 1
    if tag == _NONE:
        return None, pos
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    if tag == _INT:
        length, pos = _read_len(data, pos)
        if pos + length > len(data):
            raise MalformedMessageError("truncated int body")
        body = data[pos : pos + length]
        value = int(body)
        # Reject non-canonical spellings ("+5", " 5", "5_0"): decode must be
        # the exact inverse of encode, or two distinct frames could decode to
        # equal values and defeat digest-by-reencode checks.
        if str(value).encode() != body:
            raise MalformedMessageError(f"non-canonical int body {body!r}")
        return value, pos + length
    if tag == _STR:
        length, pos = _read_len(data, pos)
        if pos + length > len(data):
            raise MalformedMessageError("truncated str body")
        return data[pos : pos + length].decode(), pos + length
    if tag == _BYTES:
        length, pos = _read_len(data, pos)
        if pos + length > len(data):
            raise MalformedMessageError("truncated bytes body")
        return data[pos : pos + length], pos + length
    if tag == _FLOAT:
        value = _F64.unpack_from(data, pos)[0]
        # Mirror the encoder's canonicality rules: encode never emits NaN or
        # the -0.0 bit pattern, so decode must reject them -- otherwise two
        # distinct frames could decode to equal values and defeat
        # digest-by-reencode checks.
        if value != value:
            raise MalformedMessageError("non-canonical float body: NaN")
        if value == 0.0 and data[pos : pos + 8] != _F64.pack(0.0):
            raise MalformedMessageError("non-canonical float body: -0.0")
        return value, pos + 8
    if tag == _DICT:
        count, pos = _read_len(data, pos)
        items = []
        for _ in range(count):
            key, pos = _decode_from(data, pos)
            val, pos = _decode_from(data, pos)
            items.append((key, val))
        result = dict(items)
        if len(result) != count:
            raise MalformedMessageError("duplicate dict keys in canonical encoding")
        if count > 1 and [k for k, _ in items] != [k for k, _ in _sorted_items(result)]:
            raise MalformedMessageError("non-canonical dict entry order")
        return result, pos
    if tag == _LIST:
        count, pos = _read_len(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_from(data, pos)
            items.append(item)
        return items, pos
    if tag == _TUPLE:
        count, pos = _read_len(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_from(data, pos)
            items.append(item)
        return tuple(items), pos
    if tag == _FROZENSET:
        count, pos = _read_len(data, pos)
        items = []
        previous = None
        for _ in range(count):
            start = pos
            item, pos = _decode_from(data, pos)
            encoded = data[start:pos]
            # Encode sorts elements by their encoded bytes (and a set cannot
            # hold duplicates), so anything but a strictly increasing element
            # sequence is a non-canonical frame.
            if previous is not None and encoded <= previous:
                raise MalformedMessageError("non-canonical frozenset element order")
            previous = encoded
            items.append(item)
        return frozenset(items), pos
    if tag == _ENUM:
        length, pos = _read_len(data, pos)
        name = data[pos : pos + length].decode()
        pos += length
        value, pos = _decode_from(data, pos)
        cls = _WIRE_TYPES.get(name)
        if cls is None:
            raise MalformedMessageError(f"unknown enum wire type {name!r}")
        if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
            raise MalformedMessageError(f"wire type {name!r} is not an enum")
        return cls(value), pos
    if tag == _OBJECT:
        length, pos = _read_len(data, pos)
        name = data[pos : pos + length].decode()
        pos += length
        count, pos = _read_len(data, pos)
        cls = _WIRE_TYPES.get(name)
        if cls is None:
            raise MalformedMessageError(f"unknown object wire type {name!r}")
        if not is_dataclass(cls):
            raise MalformedMessageError(f"wire type {name!r} is not a dataclass")
        # Enforce canonical form like the other containers: the encoder emits
        # exactly the dataclass's fields in declaration order, so a frame with
        # missing, duplicate, extra, or reordered fields must be rejected --
        # not silently normalised into an equal object.
        expected = _dataclass_plan(cls)[2]
        if count != len(expected):
            raise MalformedMessageError(
                f"object frame for {name!r} carries {count} fields, expected {len(expected)}"
            )
        kwargs = {}
        for index in range(count):
            flen, pos = _read_len(data, pos)
            fname = data[pos : pos + flen].decode()
            pos += flen
            if fname != expected[index]:
                raise MalformedMessageError(
                    f"non-canonical field order for {name!r}: "
                    f"got {fname!r}, expected {expected[index]!r}"
                )
            value, pos = _decode_from(data, pos)
            kwargs[fname] = value
        return cls(**kwargs), pos
    raise MalformedMessageError(f"unknown canonical type tag {tag!r}")


def decode_canonical(data: bytes) -> Any:
    """Inverse of :func:`encode_canonical` for registered wire types.

    Every malformed input fails with :class:`MalformedMessageError` -- the
    low-level struct/unicode/constructor errors a truncated or corrupted
    frame can trigger are translated, so callers (eventually: a socket
    transport fed attacker-controlled bytes) have one error to catch.
    """
    try:
        value, pos = _decode_from(data, 0)
    except MalformedMessageError:
        raise
    except (struct.error, ValueError, TypeError, UnicodeDecodeError, IndexError) as exc:
        raise MalformedMessageError(f"malformed canonical encoding: {exc}") from exc
    if pos != len(data):
        raise MalformedMessageError(
            f"{len(data) - pos} trailing bytes after canonical value"
        )
    return value


# ---------------------------------------------------------------------------
# codec statistics (memo-cache efficacy counters)
# ---------------------------------------------------------------------------


@dataclass
class CodecStats:
    """Process-wide counters for the payload/digest memo caches.

    ``payload_misses`` counts actual encodings, ``payload_hits`` counts calls
    served from a frozen object's memo; likewise for digests.  The counters
    are cumulative for the process -- callers interested in one run window
    snapshot before and delta after (see ``Deployment.collect_result``).
    """

    payload_hits: int = 0
    payload_misses: int = 0
    digest_hits: int = 0
    digest_misses: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "payload_hits": self.payload_hits,
            "payload_misses": self.payload_misses,
            "digest_hits": self.digest_hits,
            "digest_misses": self.digest_misses,
        }

    def delta_since(self, before: dict[str, int] | None) -> dict[str, dict[str, int]]:
        """Hit/miss deltas since ``before``, shaped like ``LruCache.stats()``."""
        base = before or {}
        payload_hits = self.payload_hits - base.get("payload_hits", 0)
        payload_misses = self.payload_misses - base.get("payload_misses", 0)
        digest_hits = self.digest_hits - base.get("digest_hits", 0)
        digest_misses = self.digest_misses - base.get("digest_misses", 0)
        return {
            "payload": {"hits": payload_hits, "misses": payload_misses},
            "digest": {"hits": digest_hits, "misses": digest_misses},
        }

    def reset(self) -> None:
        self.payload_hits = 0
        self.payload_misses = 0
        self.digest_hits = 0
        self.digest_misses = 0


STATS = CodecStats()


# ---------------------------------------------------------------------------
# per-object memoisation (frozen dataclasses)
# ---------------------------------------------------------------------------
#
# Frozen dataclasses still own a plain ``__dict__``; the memo slots below are
# written through ``object.__setattr__`` and are invisible to the generated
# ``__eq__``/``__hash__`` and to ``dataclasses.fields`` (so the canonical
# encoding of an object never includes its own caches).


def memoized_payload(obj: Any, build_fields: Callable[[], Any]) -> bytes:
    """Canonical payload of ``obj``, encoded at most once per object."""
    cached = obj.__dict__.get("_payload_memo")
    if cached is None:
        cached = encode_canonical(build_fields())
        object.__setattr__(obj, "_payload_memo", cached)
        STATS.payload_misses += 1
    else:
        STATS.payload_hits += 1
    return cached


def prime_payload(obj: Any, payload: bytes) -> None:
    """Seed an object's payload memo with canonical bytes computed elsewhere.

    Used when one object's payload is known to equal another's by
    construction (e.g. a re-built ``ClientRequest`` whose signature is
    excluded from its own payload), so the clone need not re-encode.
    """
    object.__setattr__(obj, "_payload_memo", payload)


def memoized_packed_payload(
    obj: Any, encoder: Callable[..., bytes], values: tuple[Any, ...]
) -> bytes:
    """Like :func:`memoized_payload`, but the first encode uses a compiled
    fixed-layout ``encoder`` (see :func:`compile_fixed_dict`) over ``values``
    instead of walking a field dict.
    """
    cached = obj.__dict__.get("_payload_memo")
    if cached is None:
        cached = encoder(*values)
        object.__setattr__(obj, "_payload_memo", cached)
        STATS.payload_misses += 1
    else:
        STATS.payload_hits += 1
    return cached


def memoized_digest(obj: Any, build_fields: Callable[[], Any]) -> bytes:
    """SHA-256 of the canonical payload, hashed at most once per object."""
    cached = obj.__dict__.get("_digest_memo")
    if cached is None:
        cached = hashlib.sha256(memoized_payload(obj, build_fields)).digest()
        object.__setattr__(obj, "_digest_memo", cached)
        STATS.digest_misses += 1
    else:
        STATS.digest_hits += 1
    return cached
