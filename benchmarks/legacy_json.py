"""The pre-codec canonical form, kept as a reference for the benchmarks.

Before the binary codec, every payload was canonicalised per call with
``json.dumps(..., sort_keys=True, default=str)``: dict keys stringified,
bytes hex-encoded, nothing memoised.  ``bench_hotpath.py`` times the codec
against this encoder applied to the same field builders (``_payload_fields``,
``to_wire``), and ``tests/unit/test_codec.py`` pins the collisions that made
the JSON form unusable: it is *not* injective, so it must never sign or
digest a real message.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def _jsonify(value: Any) -> Any:
    """The old payload shape: stringified dict keys, hex-encoded bytes."""
    if isinstance(value, dict):
        return {str(key): _jsonify(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, bytes):
        return value.hex()
    return value


def legacy_json_bytes(value: Any) -> bytes:
    """The pre-codec canonical bytes of ``value``."""
    return json.dumps(_jsonify(value), sort_keys=True, default=str).encode()


def legacy_json_digest(value: Any) -> bytes:
    """SHA-256 of :func:`legacy_json_bytes`, recomputed on every call."""
    return hashlib.sha256(legacy_json_bytes(value)).digest()
