"""Span tracer for the traced run: wraps the program's public functions.

Tracing lives entirely in the benchmark.  :class:`Tracer` replaces each
patch site (a module function or a class attribute) with a wrapper that
records one span -- site, start, end, parent -- where the parent is the span
open on the call stack.  A module function is replaced in *every* ``repro``
module that bound it by name (``from repro.common.crypto import sha256``
copies the function object into the importing module, so patching the
defining module alone would miss those calls).  Spans are kept in flat
arrays in memory and written out once, at the end.

Code the wrappers cannot reach -- closures such as the compiled fixed-dict
encoders -- is what :func:`self_check` exists for: span counts are compared
with the program's own counters, and any mismatch fails the traced run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from stats import self_times

from repro.common import codec, crypto, messages, types
from repro.consensus.pbft import client as pbft_client
from repro.consensus.pbft import pacing, replica as pbft_replica
from repro.engine import deployment as engine_deployment
from repro.net import framing, wire
from repro.netem import emulator
from repro.sim import kernel, node
from repro.storage import checkpoint, executor, kvstore, ledger, locks
from repro.txn import transaction

#: Handler span name by message class, for ``PbftReplica._dispatch``.
DISPATCH_SPANS = {
    "ClientRequest": "pbft.client_request",
    "PrePrepare": "pbft.preprepare",
    "Prepare": "pbft.prepare",
    "Commit": "pbft.commit",
    "Checkpoint": "pbft.checkpoint",
    "ViewChange": "pbft.view_change",
    "NewView": "pbft.view_change",
    "StateTransferRequest": "pbft.state_transfer",
    "StateTransferReply": "pbft.state_transfer",
    "Forward": "core.forward",
    "Execute": "core.execute",
    "RemoteView": "core.remote_view",
}


@dataclass(frozen=True)
class Site:
    """One patch site: ``owner.attr`` recorded as span ``name``."""

    owner: Any  # module or class
    attr: str
    name: str


#: Every wrapped public function.  Span names are unique per function so the
#: self-check can count each one; :data:`METRIC_OF` groups them into the
#: per-layer metrics.
SITES: tuple[Site, ...] = (
    Site(engine_deployment.Deployment, "completed_transactions", "engine.completed_scan"),
    Site(kernel.Simulator, "step", "sim.step"),
    Site(node.Node, "deliver", "node.deliver"),
    Site(node.Node, "deliver_loopback", "node.deliver_loopback"),
    Site(pbft_replica.PbftReplica, "deliver_loopback", "node.deliver_loopback"),
    Site(emulator.LinkEmulator, "decide", "netem.decide"),
    Site(wire, "encode_envelope", "net.encode_envelope"),
    Site(wire, "encode_envelope_multi", "net.encode_envelope_multi"),
    Site(framing, "encode_frame", "net.encode_frame"),
    Site(wire, "decode_wire_payload", "net.decode"),
    Site(framing.FrameDecoder, "feed", "net.frame_feed"),
    Site(codec, "encode_canonical", "codec.encode_canonical"),
    Site(codec, "memoized_payload", "codec.memoized_payload"),
    Site(codec, "memoized_packed_payload", "codec.memoized_packed_payload"),
    Site(codec, "memoized_digest", "codec.memoized_digest"),
    Site(codec, "decode_canonical", "codec.decode"),
    # Envelopes whose payload_bytes serves a memo hit inline, without
    # calling the codec, and the transaction's compiled-layout encoder.
    Site(messages.ClientRequest, "payload_bytes", "codec.payload_inline"),
    Site(messages.Prepare, "payload_bytes", "codec.payload_inline"),
    Site(messages.Commit, "payload_bytes", "codec.payload_inline"),
    Site(messages.Checkpoint, "payload_bytes", "codec.payload_inline"),
    Site(messages.Forward, "payload_bytes", "codec.payload_inline"),
    Site(transaction.Transaction, "payload_bytes", "codec.payload_txn"),
    Site(crypto.MacAuthenticator, "tag", "crypto.mac_tag"),
    Site(crypto.MacAuthenticator, "verify", "crypto.mac_verify"),
    Site(crypto.SignatureScheme, "sign", "crypto.sig_sign"),
    Site(crypto.SignatureScheme, "verify", "crypto.sig_verify"),
    Site(crypto, "verify_certificate", "crypto.cert_verify"),
    Site(crypto, "sha256", "crypto.sha256"),
    Site(types.ReplicaId, "__str__", "types.replica_id_str"),
    Site(pbft_replica.PbftReplica, "_dispatch", "pbft.dispatch"),
    Site(node.Node, "set_timer", "pbft.timer"),
    Site(pacing.SlotOccupancyController, "note_arrival", "pacing.note"),
    Site(pacing.SlotOccupancyController, "note_propose", "pacing.note"),
    Site(pacing.SlotOccupancyController, "note_commit", "pacing.note"),
    Site(pacing.SlotOccupancyController, "note_close", "pacing.note"),
    Site(pacing.SlotOccupancyController, "note_reset", "pacing.note"),
    Site(ledger.Ledger, "append_batch", "storage.append"),
    Site(executor.ExecutionEngine, "execute_batch", "storage.execute"),
    Site(executor.ExecutionEngine, "execute_fragment", "storage.execute"),
    Site(locks.LockManager, "try_lock", "storage.lock"),
    Site(checkpoint.CheckpointStore, "add_vote", "storage.checkpoint"),
    Site(kvstore.KeyValueStore, "state_root", "storage.checkpoint"),
    Site(pbft_client.Client, "submit", "client.submit"),
)

#: Span name -> per-layer metric stem (identity when absent).
METRIC_OF = {
    "node.deliver_loopback": "node.deliver",
    "net.encode_envelope_multi": "net.encode_envelope",
    "net.encode_frame": "net.encode_envelope",
    "codec.encode_canonical": "codec.encode",
    "codec.memoized_payload": "codec.encode",
    "codec.memoized_packed_payload": "codec.encode",
    "codec.memoized_digest": "codec.encode",
    "codec.payload_inline": "codec.encode",
    "codec.payload_txn": "codec.encode",
    "crypto.mac_tag": "crypto.mac",
    "crypto.mac_verify": "crypto.mac",
    "crypto.sig_sign": "crypto.sig",
    "crypto.sig_verify": "crypto.sig",
    "pacing.note": "pacing",
}


class Tracer:
    """Records spans for every site while installed (``with tracer: ...``).

    Each span is one entry in four parallel arrays: span-name id, parent
    index (-1 at the top), start and end (``time.perf_counter``).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.fanout_destinations = 0
        self.stats_records = 0
        self.lock_grants = 0
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._summary: tuple[int, dict[str, dict[str, float]]] | None = None

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _wrap(self, fn: Callable, name_of: Callable[[tuple], int]) -> Callable:
        stack, names, parents, starts, ends = (
            self._stack,
            self.span_name,
            self.parent,
            self.start,
            self.end,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_of(args))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _site_wrapper(self, site: Site, original: Callable) -> Callable:
        ident = self.name_id(site.name)
        if site.name == "pbft.dispatch":
            kinds = {cls: self.name_id(span) for cls, span in DISPATCH_SPANS.items()}
            other = self.name_id("pbft.other")
            return self._wrap(original, lambda args: kinds.get(type(args[1]).__name__, other))
        if site.name == "pbft.timer":
            timer_id = ident
            wrap = self._wrap

            def set_timer(node_self, name, delay, callback):
                return original(node_self, name, delay, wrap(callback, lambda _args: timer_id))

            return set_timer
        if site.name == "storage.lock":
            traced = self._wrap(original, lambda _args: ident)
            tracer = self

            def try_lock(*args, **kwargs):
                granted, woken = traced(*args, **kwargs)
                tracer.lock_grants += bool(granted)
                return granted, woken

            return try_lock
        return self._wrap(original, lambda _args: ident)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for site in SITES:
            original = site.owner.__dict__[site.attr]
            wrapper = self._site_wrapper(site, original)
            if isinstance(site.owner, type):
                self._patch(site.owner, site.attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if name.startswith("repro") and module.__dict__.get(site.attr) is original:
                    self._patch(module, site.attr, wrapper)
        self._count_message_stats()

    def _count_message_stats(self) -> None:
        """Count MessageStats tallies (not spans: they are too small to time)."""
        stats_cls = messages.MessageStats
        record, fanout = stats_cls.record, stats_cls.record_fanout
        tracer = self

        def counted_record(stats_self, message):
            tracer.stats_records += 1
            return record(stats_self, message)

        def counted_fanout(stats_self, message, destinations):
            tracer.fanout_destinations += max(destinations, 0)
            return fanout(stats_self, message, destinations)

        self._patch(stats_cls, "record", counted_record)
        self._patch(stats_cls, "record_fanout", counted_fanout)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and summed self time (seconds)."""
        if self._summary is not None and self._summary[0] == len(self.start):
            return self._summary[1]
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in self.names
        }
        for ident, own in zip(self.span_name, selfs):
            row = out[self.names[ident]]
            row["calls"] += 1
            row["self_s"] += own
        self._summary = (len(self.start), out)
        return out

    def count_without_child(self, parent_name: str, child_names: set[str]) -> int:
        """Spans named ``parent_name`` with no direct child in ``child_names``."""
        target = self._name_ids.get(parent_name)
        if target is None:
            return 0
        children = {self._name_ids[n] for n in child_names if n in self._name_ids}
        has_child = set()
        for ident, parent in zip(self.span_name, self.parent):
            if parent >= 0 and ident in children:
                has_child.add(parent)
        return sum(
            1
            for index, ident in enumerate(self.span_name)
            if ident == target and index not in has_child
        )

    def count_not_under(self, name: str, parent_name: str) -> int:
        """Spans named ``name`` whose direct parent is not named ``parent_name``."""
        target = self._name_ids.get(name)
        excluded = self._name_ids.get(parent_name)
        return sum(
            1
            for ident, parent in zip(self.span_name, self.parent)
            if ident == target and (parent < 0 or self.span_name[parent] != excluded)
        )

    def write(self, directory: Path, stem: str) -> Path:
        """Write every span once: a JSON header plus four raw arrays."""
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{stem}.spans"
        with path.open("wb") as out:
            header = json.dumps({"names": self.names, "spans": len(self.start)}).encode()
            out.write(len(header).to_bytes(4, "little") + header)
            for column in (self.span_name, self.parent, self.start, self.end):
                column.tofile(out)
        return path


def self_check(tracer: Tracer, counters: dict[str, float]) -> dict[str, tuple[int, int]]:
    """Span counts against the program's own counters: name -> (spans, counter).

    A mismatch means a call escaped the wrappers (a missed patch site, or a
    counter that moved) and the per-layer attribution cannot be trusted.
    """
    calls = {name: int(row["calls"]) for name, row in tracer.summary().items()}
    inline_hits = tracer.count_without_child(
        "codec.payload_inline", {"codec.memoized_packed_payload"}
    )
    pairs = {
        "delivered": (
            tracer.count_not_under("node.deliver", "node.deliver_loopback"),
            counters["delivered"],
        ),
        "codec_payload_attempts": (
            calls.get("codec.memoized_payload", 0)
            + calls.get("codec.memoized_packed_payload", 0)
            + calls.get("codec.payload_txn", 0)
            + inline_hits,
            counters["codec_payload_attempts"],
        ),
        "codec_digest_attempts": (
            calls.get("codec.memoized_digest", 0),
            counters["codec_digest_attempts"],
        ),
        "message_stats_total": (
            tracer.stats_records + tracer.fanout_destinations,
            counters["messages"],
        ),
        "keystore_verify_attempts": (
            calls.get("crypto.sig_verify", 0),
            counters["keystore_verify_attempts"],
        ),
        "keystore_certificate_attempts": (
            calls.get("crypto.cert_verify", 0),
            counters["keystore_certificate_attempts"],
        ),
    }
    if "sim_events" in counters:
        pairs["sim_events"] = (calls.get("sim.step", 0), counters["sim_events"])
    return {name: (int(spans), int(counter)) for name, (spans, counter) in pairs.items()}
