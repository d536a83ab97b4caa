"""Tests of the benchmark itself (run: ``python3 -m pytest ringbench -q``)."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from stats import (  # noqa: E402
    Rung,
    backlog_mean,
    knee_rate,
    outage_seconds,
    percentile,
    rung_from_times,
    self_times,
)


# ----------------------------------------------------------------------
# percentiles: reported only with >= 10 samples beyond, with their count
# ----------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 1001)]
    p99 = percentile(values, 0.99)
    assert p99.supported and p99.value == 990.0
    assert p99.samples == 1000 and p99.beyond == 10
    short = percentile(values[:999], 0.99)
    assert not short.supported and short.value is None
    assert short.samples == 999 and short.beyond == 9


def test_percentile_p50_and_empty():
    assert percentile([3.0, 1.0, 2.0] * 10, 0.5).value == 2.0
    empty = percentile([], 0.5)
    assert empty.value is None and empty.samples == 0


def test_never_committed_counts_as_over_every_limit():
    values = [0.1] * 985 + [math.inf] * 15
    assert percentile(values, 0.99).value == math.inf
    assert percentile(values, 0.5).value == 0.1


# ----------------------------------------------------------------------
# self time on nested spans
# ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert list(self_times(starts, ends, parents)) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(starts, ends, parents)) == 10.0


# ----------------------------------------------------------------------
# backlog and knee
# ----------------------------------------------------------------------


def test_backlog_mean_is_exact_time_average():
    # one transaction in flight over [0, 2), two over [2, 3), none after 3
    submits = [0.0, 2.0]
    completes = [3.0, 3.0]
    assert backlog_mean(submits, completes, 0.0, 4.0) == pytest.approx(4.0 / 4.0)
    assert backlog_mean(submits, completes, 1.0, 3.0) == pytest.approx(3.0 / 2.0)
    # a never-committed transaction stays in the backlog
    assert backlog_mean([0.0], [], 5.0, 6.0) == 1.0


def _synthetic_ladder(capacity: float, rates=(1000.0, 1500.0, 2000.0), per_rung=1200):
    """Evenly spaced arrivals served FIFO at ``capacity`` per second."""
    due, done, phases = [], [], []
    start = 0.0
    server_free = 0.0
    for rate in rates:
        end = start + per_rung / rate
        phases.append((rate, start, end))
        for i in range(per_rung):
            t = start + i / rate
            server_free = max(server_free, t) + 1.0 / capacity
            due.append(t)
            done.append(server_free + 0.01)
        start = end
    rungs = []
    for rate, start, end in phases:
        idx = [i for i, t in enumerate(due) if start <= t < end]
        rungs.append(
            rung_from_times(
                rate, start, end, [due[i] for i in idx], [done[i] for i in idx], due, sorted(done)
            )
        )
    return rungs


def test_knee_is_highest_rate_below_capacity():
    rungs = _synthetic_ladder(capacity=1700.0)
    assert knee_rate(rungs, 0.5) == 1500.0
    assert rungs[-1].backlog_growth > 10  # overload: the queue grows
    assert knee_rate(_synthetic_ladder(capacity=5000.0), 0.5) == 2000.0
    assert knee_rate(_synthetic_ladder(capacity=900.0), 0.5) == 0.0


def test_failed_transactions_fail_the_rung():
    healthy = tuple([0.05] * 1200)
    rungs = [
        Rung(rate=1000.0, start=0.0, end=1.0, latencies=healthy, backlog_q2=50.0, backlog_q4=50.0),
        Rung(
            rate=1500.0,
            start=1.0,
            end=2.0,
            latencies=tuple([0.05] * 1185 + [math.inf] * 15),
            backlog_q2=50.0,
            backlog_q4=50.0,
        ),
        Rung(rate=2000.0, start=2.0, end=3.0, latencies=healthy, backlog_q2=50.0, backlog_q4=50.0),
    ]
    # 15 of 1200 never commit: more than 1% over the limit, so p99 = inf
    assert knee_rate(rungs, 0.5) == 1000.0


def test_unsupported_p99_fails_the_rung():
    short = Rung(
        rate=1000.0, start=0.0, end=1.0, latencies=(0.01,) * 999, backlog_q2=0, backlog_q4=0
    )
    assert knee_rate([short], 0.5) == 0.0


# ----------------------------------------------------------------------
# outage
# ----------------------------------------------------------------------


def test_outage_counts_only_transactions_submitted_after_the_crash():
    commits = [(0.5, 2.9), (2.1, 4.7), (2.4, 4.6), (1.9, 3.0)]
    assert outage_seconds(2.0, commits) == pytest.approx(2.6)
    assert outage_seconds(5.0, commits) is None


def test_host_meter_counts_work_in_reference_units():
    from workloads import HostMeter, reference_work

    meter = HostMeter()
    meter.start()
    for _ in range(6):
        for _ in range(4):
            reference_work()
        meter.checkpoint()
    assert meter.chunks == 6
    # four reference units per chunk, give or take the host's jitter
    assert meter.ref_units == pytest.approx(24.0, rel=0.5)
    assert meter.cpu_s > 0 and meter.wall_s >= meter.cpu_s * 0.5


def test_setup_is_timed_in_reference_units():
    from workloads import REFERENCE_S, Workload, reference_work

    class FourUnitBuild(Workload):
        def config(self):
            return None

        def build(self, config):
            for _ in range(4):
                reference_work()
            return "deployment"

    deployment, setup = FourUnitBuild().timed_build(None)
    assert deployment == "deployment"
    # four reference units of work, give or take the host's jitter
    assert setup.ref_units == pytest.approx(4.0, rel=0.5)
    assert setup.seconds == pytest.approx(setup.ref_units * REFERENCE_S)
    assert setup.cpu_s > 0 and setup.wall_s > 0


# ----------------------------------------------------------------------
# workloads: seed contract, correctness gate, tracer self-check
# ----------------------------------------------------------------------


def _small(name: str):
    """A scaled-down copy of a workload (same shape, fewer transactions)."""
    from workloads import WORKLOADS

    workload = type(WORKLOADS[name])()
    if name == "ring-closed":
        workload.per_client = 6
    elif name == "pump-open":
        workload.per_rung = 150
        workload.drain_s = 10.0
    elif name == "primary-crash":
        workload.inject_s = 3.5
        workload.crash_at = 1.0
        workload.rate = 120.0
    elif name == "wire-local":
        workload.per_client = 20
    return workload


SIM_WORKLOADS = ("ring-closed", "pump-open", "primary-crash")

_ROUND_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import test_ringbench
outcome = test_ringbench._small({name!r}).run_round({seed})
print(json.dumps({{"metrics": outcome.metrics, "counters": outcome.counters,
                  "checks": outcome.checks}}, sort_keys=True))
"""


def _round_in_subprocess(name: str, seed: int, hash_seed: str) -> str:
    script = _ROUND_SCRIPT.format(src=str(ROOT / "src"), here=str(HERE), name=name, seed=seed)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
        check=True,
    )
    return result.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("name", SIM_WORKLOADS)
def test_same_seed_is_byte_identical_across_processes(name):
    first = _round_in_subprocess(name, 11, "1")
    second = _round_in_subprocess(name, 11, "2")
    assert first == second
    assert all(json.loads(first)["checks"].values())


def test_different_seed_changes_only_the_generated_transactions():
    from workloads import DEPLOY_SEED, WORKLOADS

    for name in SIM_WORKLOADS + ("wire-local",):
        workload = WORKLOADS[name]
        config = workload.config()
        assert config == workload.config()
        a = workload.generate(config, 1).transactions()
        b = workload.generate(config, 2).transactions()
        again = workload.generate(config, 1).transactions()
        assert [t.operations for t in a] == [t.operations for t in again]
        assert [t.operations for t in a] != [t.operations for t in b]
    deployment = WORKLOADS["ring-closed"].build(WORKLOADS["ring-closed"].config())
    try:
        assert deployment.simulator.seed == DEPLOY_SEED
    finally:
        deployment.close()


def test_open_loop_schedule_follows_the_ladder():
    workload = _small("pump-open")
    config = workload.config()
    load = workload.generate(config, 3)
    dues = [due for due, _, _ in load.scheduled]
    assert dues == sorted(dues)
    for rate, start, end in workload.phases():
        count = sum(1 for t in dues if start <= t < end)
        assert abs(count - rate * (end - start)) < 5 * math.sqrt(rate * (end - start))


def test_correctness_gate_catches_a_duplicate_commit():
    from workloads import HostMeter, check_outcome, completions

    workload = _small("ring-closed")
    config = workload.config()
    load = workload.generate(config, 5)
    deployment = workload.build(config)
    try:
        workload.drive(deployment, load, HostMeter())
        done = completions(deployment)
        assert all(check_outcome(deployment, load, done).values())
        replica = next(iter(deployment.replicas.values()))
        block = replica.ledger.blocks()[-1]
        replica.ledger._blocks.append(block)  # the same transactions committed twice
        checks = check_outcome(deployment, load, done)
        assert not checks["exactly_once"]
        assert not check_outcome(deployment, load, {**done, "ghost": (0.0, 1.0)})[
            "committed_le_submitted"
        ]
    finally:
        deployment.close()


@pytest.mark.parametrize("name", ("ring-closed", "wire-local"))
def test_tracer_self_check_matches_program_counters(name):
    from layers import layer_metrics, layer_shares
    from tracer import Tracer, self_check

    workload = _small(name)
    tracer = Tracer()
    outcome = workload.run_round(4, tracer)
    pairs = self_check(tracer, outcome.counters)
    assert pairs and all(spans == counter for spans, counter in pairs.values()), pairs
    # the wrappers are gone after the window
    from repro.sim.kernel import Simulator

    assert not hasattr(Simulator.step, "__wrapped__")
    shares = layer_shares(tracer, outcome)
    assert sum(row["share"] for row in shares.values()) == pytest.approx(1.0)
    metrics = layer_metrics(tracer, outcome, 0.0, outcome.probe_lateness)
    if name == "wire-local":
        assert metrics["net.frames"][0] > 0 and metrics["sim.events"][0] == 0
    else:
        assert metrics["core.forward.self_ms"][0] > 0 and metrics["net.frames"][0] == 0


def test_tracer_catches_a_missed_patch_site():
    from tracer import SITES, Tracer, self_check

    workload = _small("ring-closed")
    tracer = Tracer()
    missing = next(site for site in SITES if site.name == "sim.step")
    tracer_sites = tuple(site for site in SITES if site is not missing)
    import tracer as tracer_module

    original = tracer_module.SITES
    tracer_module.SITES = tracer_sites
    try:
        outcome = workload.run_round(4, tracer)
    finally:
        tracer_module.SITES = original
    spans, counter = self_check(tracer, outcome.counters)["sim_events"]
    assert spans == 0 and counter > 0


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "ringbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "ringbench/run.py", "--workload", "ring-closed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""


def test_command_prints_result_line(tmp_path):
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ring-closed", "--seed", "2",
         "--seconds", "0.1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for line in ("sim_tps", "sim_p50_ms", "sim_p99_ms", "failed_frac", "cpu_ms_per_txn"):
        assert line in result.stdout
