"""RingBFT repository benchmark: one command, four workloads.

Run from the repository root::

    python3 ringbench/run.py --workload ring-closed --seed 1 --seconds 20 --trace 0
    python3 ringbench/run.py --workload pump-open --seed 1 --seconds 20 --trace 1

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``ring-closed``, ``pump-open``, ``wire-local``, ``primary-crash``; ``--workload
all`` runs the four in turn from one process (result metrics are then named
``<workload>.<metric>``).

``--trace 0`` repeats rounds of the workload for ``--seconds`` host seconds
with tracing off and prints every end-to-end metric by name, unit and sample
count.  Simulated-time numbers are named ``sim_*`` (unit ``ms(sim)``,
``txn/s(sim)``, ``s(sim)``); host-time numbers never are.  The result line
carries the gated ones: ``setup_s`` (set-up CPU in units of a fixed reference
loop timed around it, in seconds of a host where that loop takes 1 ms; the
raw wall time is ``setup_wall_s``), ``cpu_ref_per_txn`` (CPU per committed
transaction in the same units, see ``HostMeter``) and ``peak_rss_mb``.

``--trace 1`` runs one untraced and one traced round, prints the per-layer
ledger (calls, self time, share of host time), the tracing overhead and the
tracer self-check against the program's own counters.

Every round passes a correctness gate (ledger prefixes agree, exactly-once,
committed <= submitted, shard 0 changes view after the crash); simulated
rounds must also repeat byte-identically.  Any failure marks the result
``"correct": false`` and the command exits 1.  The last line of standard
output is the machine-readable result; a fuller record with provenance is
written to ``.ringbench-out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".ringbench-out"

#: Version of the result record layout; bump when a field changes meaning.
SCHEMA_VERSION = 1

#: Set-up is sampled for SETUP_SAMPLING_S host seconds after every round (at
#: most MAX_SETUPS samples in all, at least MIN_SETUPS); the median is reported.
MIN_SETUPS = 5
MAX_SETUPS = 40
SETUP_SAMPLING_S = 0.4

#: Host metrics of every workload, by unit.  The result line carries the
#: GATED ones (BENCHMARK.json's end_to_end): raw CPU and wall time swing
#: with the host's speed by more than any useful bound, so they are printed
#: and recorded but the gate reads CPU in reference units instead.
END_TO_END_UNITS = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "cpu_ref_per_txn": "ref",
    "cpu_ms_per_txn": "ms",
    "wall_ms_per_txn": "ms",
    "peak_rss_mb": "MB",
}
GATED = ("setup_s", "cpu_ref_per_txn", "peak_rss_mb")


def _fail(message: str) -> int:
    print(f"ringbench: {message}", file=sys.stderr)
    return 2


def _median(values: list[float]) -> float:
    return statistics.median(values)


def _git_sha() -> str | None:
    """HEAD's commit id read from ``.git`` (no subprocess); None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """SHA-256 over every source file of the program, so stale results show."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args: argparse.Namespace, workload: str, latency_limit_s: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "latency_limit_ms": latency_limit_s * 1000.0,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else f"{value:.4f}"
    return str(value)


def _print_metric(name: str, value, unit: str, samples: int | None) -> None:
    count = f"n={samples}" if samples is not None else ""
    print(f"  {name:<34} {_fmt(value):>14} {unit:<11} {count}")


# ----------------------------------------------------------------------
# untraced: end-to-end metrics
# ----------------------------------------------------------------------


def _same_simulation(first, other) -> bool:
    """Simulated rounds must repeat exactly: metrics and program counters."""
    return first.metrics == other.metrics and first.counters == other.counters


def run_untraced(workload, args) -> tuple[dict, dict, bool, int, int]:
    started = time.perf_counter()
    outcomes = []
    setups = []
    while True:
        round_started = time.perf_counter()
        outcomes.append(workload.run_round(args.seed))
        setups.append(outcomes[-1].setup)
        # Host speed drifts in streaks of seconds, so set-up is sampled after
        # every round rather than all at once.
        sampling_ends = time.perf_counter() + SETUP_SAMPLING_S
        while time.perf_counter() < sampling_ends and len(setups) < MAX_SETUPS:
            setups.append(workload.time_setup())
        took = time.perf_counter() - round_started
        if time.perf_counter() - started + took > args.seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(workload.time_setup())

    checks: dict[str, bool] = {}
    for outcome in outcomes:
        for name, ok in outcome.checks.items():
            checks[name] = checks.get(name, True) and ok
    if workload.simulated:
        checks["sim_rounds_identical"] = all(_same_simulation(outcomes[0], o) for o in outcomes)

    submitted = sum(o.submitted for o in outcomes)
    committed = sum(o.committed for o in outcomes)
    end_to_end = {
        "setup_s": _median([s.seconds for s in setups]),
        "setup_wall_s": _median([s.wall_s for s in setups]),
        "cpu_ref_per_txn": _median([o.cpu_ref / max(o.committed, 1) for o in outcomes]),
        "cpu_ms_per_txn": _median([o.cpu_s * 1000.0 / max(o.committed, 1) for o in outcomes]),
        "wall_ms_per_txn": _median([o.wall_s * 1000.0 / max(o.committed, 1) for o in outcomes]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    workload_metrics = workload.summarize(outcomes)
    workload_metrics["failed_frac"] = ((submitted - committed) / submitted, "ratio", submitted)

    print(f"ringbench {workload.name}: seed {args.seed}, {len(outcomes)} rounds, "
          f"{len(setups)} set-ups, tracing off")
    for name, value in end_to_end.items():
        samples = len(setups) if name.startswith("setup") else len(outcomes)
        _print_metric(name, value, END_TO_END_UNITS[name], samples)
    for name, (value, unit, samples) in workload_metrics.items():
        _print_metric(name, value, unit, samples)
    for name, ok in checks.items():
        print(f"  check {name:<28} {'ok' if ok else 'FAILED'}")
    record = {
        "end_to_end": end_to_end,
        "workload_metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in workload_metrics.items()
        },
        "checks": checks,
        "rounds": len(outcomes),
        "setups_s": [s.seconds for s in setups],
        "setups_wall_s": [s.wall_s for s in setups],
        "setups_cpu_s": [s.cpu_s for s in setups],
        "round_cpu_s": [o.cpu_s for o in outcomes],
        "round_cpu_ref": [o.cpu_ref for o in outcomes],
        "round_wall_s": [o.wall_s for o in outcomes],
    }
    metrics = {name: {"value": end_to_end[name], "unit": END_TO_END_UNITS[name]} for name in GATED}
    return record, metrics, all(checks.values()), submitted, submitted - committed


# ----------------------------------------------------------------------
# traced: per-layer ledger
# ----------------------------------------------------------------------


def run_traced(workload, args) -> tuple[dict, dict, bool, int, int]:
    from layers import layer_metrics, layer_shares
    from tracer import Tracer, self_check

    baseline = workload.run_round(args.seed)
    tracer = Tracer()
    traced = workload.run_round(args.seed, tracer)
    spans_path = tracer.write(OUT_DIR, f"{workload.name}-spans")

    pairs = self_check(tracer, traced.counters)
    mismatches = {name: pair for name, pair in pairs.items() if pair[0] != pair[1]}
    overhead = (traced.cpu_s - baseline.cpu_s) * 1000.0 / max(traced.committed, 1)
    # The loop-lag probe pools both rounds' firings (real-time workloads only).
    lateness = baseline.probe_lateness + traced.probe_lateness
    metrics = layer_metrics(tracer, traced, overhead, lateness)
    shares = layer_shares(tracer, traced)

    print(f"ringbench {workload.name}: seed {args.seed}, traced round ({len(tracer.start)} spans)")
    print(f"  {'layer':<12} {'calls':>10} {'self ms':>12} {'share':>8}")
    for layer, row in shares.items():
        print(f"  {layer:<12} {row['calls']:>10} {row['self_ms']:>12.2f} {row['share']:>8.1%}")
    print(f"  tracing overhead: {overhead:.4f} ms cpu per txn "
          f"({baseline.cpu_s * 1000.0 / max(baseline.committed, 1):.4f} untraced, "
          f"{traced.cpu_s * 1000.0 / max(traced.committed, 1):.4f} traced)")
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit, None)
    checks = dict(traced.checks)
    checks.update(baseline.checks)
    checks["tracer_self_check"] = not mismatches
    for name, (spans, counter) in pairs.items():
        status = "ok" if name not in mismatches else "MISMATCH"
        print(f"  self-check {name:<30} spans={spans} program={counter} {status}")
    if mismatches:
        print(f"ringbench: tracer self-check FAILED: {mismatches}", file=sys.stderr)
    for name, ok in checks.items():
        print(f"  check {name:<28} {'ok' if ok else 'FAILED'}")
    record = {
        "layers": shares,
        "per_layer": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
        "self_check": pairs,
        "checks": checks,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    attempted = baseline.submitted + traced.submitted
    failed = attempted - baseline.committed - traced.committed
    return record, out, all(checks.values()), attempted, failed


def run_workload(workload, args, latency_limit_s: float) -> tuple[dict, bool, int, int]:
    """One workload, traced or not; writes its record with provenance."""
    run = run_traced if args.trace else run_untraced
    record, metrics, correct, attempted, failed = run(workload, args)
    record["provenance"] = provenance(args, workload.name, latency_limit_s)
    record["correct"] = correct
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    if not correct:
        print(
            f"ringbench: correctness gate FAILED for {workload.name}; metrics invalid",
            file=sys.stderr,
        )
    return metrics, correct, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        return _fail(f"program sources not found under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    from workloads import LATENCY_LIMIT_S, WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args, LATENCY_LIMIT_S) for name in names}
    correct = all(r[1] for r in results.values())
    attempted = sum(r[2] for r in results.values())
    failed = sum(r[3] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]][0]
    else:
        metrics = {
            f"{name}.{key}": value for name, r in results.items() for key, value in r[0].items()
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
