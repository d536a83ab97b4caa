"""Per-layer ledger of a traced round: the ``--trace 1`` metrics.

Values are per committed transaction unless the unit says otherwise
(``count`` = run total, ``ratio`` = useful outcomes over attempts).  "Self"
time is a span's duration minus its child spans, so the layers' self times
add up to the traced host time they account for; the rest is
``unattributed`` (the benchmark's own loop and code between patch sites).
"""

from __future__ import annotations

from stats import percentile
from tracer import METRIC_OF, Tracer

#: The layers, named after the ``repro`` modules; a span belongs to the layer
#: its name starts with (``workloads`` is timed outside the window, below).
LAYERS = (
    "engine",
    "sim",
    "node",
    "netem",
    "net",
    "codec",
    "crypto",
    "types",
    "pbft",
    "pacing",
    "core",
    "storage",
    "client",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def grouped(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls and self seconds by span name and by metric stem (both kept)."""
    summary = tracer.summary()
    out: dict[str, dict[str, float]] = {name: dict(row) for name, row in summary.items()}
    for name, row in summary.items():
        stem = METRIC_OF.get(name)
        if stem is None:
            continue
        acc = out.setdefault(stem, {"calls": 0, "self_s": 0.0})
        acc["calls"] += row["calls"]
        acc["self_s"] += row["self_s"]
    return out


def layer_shares(tracer: Tracer, outcome) -> dict[str, dict[str, float]]:
    """Per layer: calls, self milliseconds and share of the round's host time.

    The host time is the measured window plus the load generator's run (the
    ``workloads`` layer, timed around its one call outside the window).
    """
    shares = {layer: {"calls": 0, "self_ms": 0.0, "share": 0.0} for layer in LAYERS}
    shares["workloads"] = {"calls": 1, "self_ms": outcome.generate_s * 1000.0, "share": 0.0}
    wall_s = outcome.wall_s + outcome.generate_s
    attributed = outcome.generate_s
    for name, row in tracer.summary().items():
        layer = name.split(".", 1)[0]
        shares[layer]["calls"] += int(row["calls"])
        shares[layer]["self_ms"] += row["self_s"] * 1000.0
        attributed += row["self_s"]
    shares["unattributed"] = {"calls": 0, "self_ms": (wall_s - attributed) * 1000.0, "share": 0.0}
    for row in shares.values():
        row["share"] = _ratio(row["self_ms"], wall_s * 1000.0)
    return shares


def layer_metrics(
    tracer: Tracer, outcome, overhead_ms_per_txn: float, probe_lateness: list[float]
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced round, by name: (value, unit).

    ``probe_lateness`` feeds the loop-lag percentile; one round of the
    real-time workload has too few probe firings to support a p99 alone.
    """
    groups = grouped(tracer)
    counters = outcome.counters
    txns = max(outcome.committed, 1)

    def calls(stem: str) -> float:
        return groups.get(stem, {}).get("calls", 0) / txns

    def self_ms(stem: str) -> float:
        return groups.get(stem, {}).get("self_s", 0.0) * 1000.0 / txns

    lag = percentile(probe_lateness, 0.99)
    frames = counters.get("net_frames", 0)
    m: dict[str, tuple[float, str]] = {
        "engine.completed_scan.calls": (calls("engine.completed_scan"), "1/txn"),
        "engine.completed_scan.self_ms": (self_ms("engine.completed_scan"), "ms/txn"),
        "engine.loop_lag_p99_ms": ((lag.value or 0.0) * 1000.0, "ms"),
        "sim.events": (counters.get("sim_events", 0) / txns, "1/txn"),
        "sim.step.self_ms": (self_ms("sim.step"), "ms/txn"),
        "node.deliver.calls": (calls("node.deliver"), "1/txn"),
        "node.deliver.self_ms": (self_ms("node.deliver"), "ms/txn"),
        "netem.decide.calls": (calls("netem.decide"), "1/txn"),
        "netem.decide.self_ms": (self_ms("netem.decide"), "ms/txn"),
        "net.frames": (frames / txns, "1/txn"),
        "net.bytes": (counters.get("net_bytes", 0) / txns, "B/txn"),
        "net.writes_per_frame": (_ratio(counters.get("net_writes", 0), frames), "ratio"),
        "net.encode_envelope.self_ms": (self_ms("net.encode_envelope"), "ms/txn"),
        "net.decode.self_ms": (self_ms("net.decode"), "ms/txn"),
        "net.frame_feed.self_ms": (self_ms("net.frame_feed"), "ms/txn"),
        "net.dropped_frames": (counters.get("net_dropped_frames", 0), "count"),
        "net.delivery_errors": (counters.get("net_delivery_errors", 0), "count"),
        "codec.encode.calls": (calls("codec.encode"), "1/txn"),
        "codec.encode.self_ms": (self_ms("codec.encode"), "ms/txn"),
        "codec.decode.self_ms": (self_ms("codec.decode"), "ms/txn"),
        "codec.payload_hit_ratio": (
            _ratio(counters["codec_payload_hits"], counters["codec_payload_attempts"]),
            "ratio",
        ),
        "codec.digest_hit_ratio": (
            _ratio(counters["codec_digest_hits"], counters["codec_digest_attempts"]),
            "ratio",
        ),
        "crypto.mac_tags": (calls("crypto.mac_tag"), "1/txn"),
        "crypto.mac_verifies": (calls("crypto.mac_verify"), "1/txn"),
        "crypto.mac.self_ms": (self_ms("crypto.mac"), "ms/txn"),
        "crypto.sig_signs": (calls("crypto.sig_sign"), "1/txn"),
        "crypto.sig_verifies": (calls("crypto.sig_verify"), "1/txn"),
        "crypto.sig.self_ms": (self_ms("crypto.sig"), "ms/txn"),
        "crypto.cert_verify.self_ms": (self_ms("crypto.cert_verify"), "ms/txn"),
        "crypto.sha256.calls": (calls("crypto.sha256"), "1/txn"),
        "crypto.sha256.self_ms": (self_ms("crypto.sha256"), "ms/txn"),
        "crypto.verify_hit_ratio": (
            _ratio(counters["keystore_verify_hits"], counters["keystore_verify_attempts"]),
            "ratio",
        ),
        "crypto.cert_hit_ratio": (
            _ratio(
                counters["keystore_certificate_hits"], counters["keystore_certificate_attempts"]
            ),
            "ratio",
        ),
        "crypto.auth_rejections": (counters["auth_rejections"], "count"),
        "types.replica_id_str.calls": (calls("types.replica_id_str"), "1/txn"),
        "pbft.msgs": (counters["messages"] / txns, "1/txn"),
        "pbft.bytes": (counters["message_bytes"] / txns, "B/txn"),
        "pbft.client_request.self_ms": (self_ms("pbft.client_request"), "ms/txn"),
        "pbft.preprepare.self_ms": (self_ms("pbft.preprepare"), "ms/txn"),
        "pbft.prepare.self_ms": (self_ms("pbft.prepare"), "ms/txn"),
        "pbft.commit.self_ms": (self_ms("pbft.commit"), "ms/txn"),
        "pbft.checkpoint.self_ms": (self_ms("pbft.checkpoint"), "ms/txn"),
        "pbft.view_change.self_ms": (self_ms("pbft.view_change"), "ms/txn"),
        "pbft.state_transfer.self_ms": (self_ms("pbft.state_transfer"), "ms/txn"),
        "pbft.timer.self_ms": (self_ms("pbft.timer"), "ms/txn"),
        "pbft.avg_batch": (counters["avg_batch"], "txn"),
        "pbft.queue_wait_ms": (counters["queue_wait_s"] * 1000.0, "ms"),
        "pbft.peak_open_slots": (counters["peak_open_slots"], "count"),
        "pbft.view_changes": (counters["view_changes"], "count"),
        "pbft.state_transfers": (counters["state_transfers"], "count"),
        "pacing.calls": (calls("pacing"), "1/txn"),
        "pacing.self_ms": (self_ms("pacing"), "ms/txn"),
        "pacing.shaped_share": (counters["shaped_share"], "ratio"),
        "core.forward.self_ms": (self_ms("core.forward"), "ms/txn"),
        "core.execute.self_ms": (self_ms("core.execute"), "ms/txn"),
        "core.remote_view.self_ms": (self_ms("core.remote_view"), "ms/txn"),
        "core.forwards_per_xtxn": (counters["forwards_per_xtxn"], "ratio"),
        "core.forward_bytes_share": (counters["forward_bytes_share"], "ratio"),
        "storage.append.self_ms": (self_ms("storage.append"), "ms/txn"),
        "storage.execute.self_ms": (self_ms("storage.execute"), "ms/txn"),
        "storage.lock.self_ms": (self_ms("storage.lock"), "ms/txn"),
        "storage.lock.grant_ratio": (
            _ratio(tracer.lock_grants, groups.get("storage.lock", {}).get("calls", 0)),
            "ratio",
        ),
        "storage.checkpoint.self_ms": (self_ms("storage.checkpoint"), "ms/txn"),
        "client.submit.self_ms": (self_ms("client.submit"), "ms/txn"),
        "client.retransmits": (counters["client_retransmits"], "count"),
        "workloads.generate.self_ms": (outcome.generate_s * 1000.0 / txns, "ms/txn"),
        "trace.overhead_cpu_ms_per_txn": (overhead_ms_per_txn, "ms"),
        "trace.spans": (len(tracer.start), "count"),
    }
    for layer, row in layer_shares(tracer, outcome).items():
        m[f"layer.{layer}.share"] = (row["share"], "ratio")
    return m
