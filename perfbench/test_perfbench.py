"""Tests of the benchmark itself: span arithmetic, clean uninstall,
correctness checks, and determinism against the repository's harnesses.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import signal
import sys
import time

import pytest

import hostclock
import tracing
import workloads
from repro.sim import Simulator
from run import deterministic


# -- self-time arithmetic --------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def replay(ledger: tracing.Ledger, clock: FakeClock, events) -> None:
    """Drive the ledger through (time, "enter", layer) / (time, "exit") steps."""
    for step in events:
        clock.now = step[0]
        if step[1] == "enter":
            ledger.enter(tracing.LAYERS.index(step[2]))
        else:
            ledger.exit()


def test_self_time_of_nested_spans():
    # sim.core [0, 10] runs kernel.bulletin [1, 6] and kernel.events [7, 9];
    # the bulletin span calls cluster.transport [2, 5], which calls
    # cluster.message [3, 4]; events calls another transport span [7.5, 8].
    clock = FakeClock()
    ledger = tracing.Ledger(clock)
    replay(ledger, clock, [
        (0, "enter", "sim.core"),
        (1, "enter", "kernel.bulletin"),
        (2, "enter", "cluster.transport"),
        (3, "enter", "cluster.message"),
        (4, "exit"),
        (5, "exit"),
        (6, "exit"),
        (7, "enter", "kernel.events"),
        (7.5, "enter", "cluster.transport"),
        (8, "exit"),
        (9, "exit"),
        (10, "exit"),
    ])
    layers = ledger.layers()
    assert layers["sim.core"]["self_s"] == pytest.approx(10 - 5 - 2)
    assert layers["kernel.bulletin"]["self_s"] == pytest.approx(5 - 3)
    assert layers["cluster.transport"]["self_s"] == pytest.approx((3 - 1) + 0.5)
    assert layers["cluster.message"]["self_s"] == pytest.approx(1)
    assert layers["kernel.events"]["self_s"] == pytest.approx(2 - 0.5)
    assert layers["cluster.transport"]["calls"] == 2
    # Self times partition the root span exactly.
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(10)
    edges = {(e["parent"], e["child"]): e for e in ledger.edge_table()}
    assert edges[("kernel.bulletin", "cluster.transport")]["total_s"] == pytest.approx(3)
    assert edges[("-", "sim.core")]["spans"] == 1


def test_reset_refuses_open_spans():
    ledger = tracing.Ledger(FakeClock())
    ledger.enter(0)
    with pytest.raises(RuntimeError):
        ledger.reset()


def test_layer_attribution():
    from repro.cluster.transport import Transport
    from repro.kernel.bulletin.service import BulletinDaemon

    assert tracing.layer_of_module("repro.kernel.bulletin.views") == "kernel.bulletin"
    assert tracing.layer_of_module("repro.kernel.daemon") == "other"
    assert tracing.layer_of_module("workloads") == "other"
    # An unbound function is attributed to its own module, a bound method
    # to its instance's class.
    assert tracing.layer_of_callback(Transport.send) == "cluster.transport"
    daemon = BulletinDaemon.__new__(BulletinDaemon)
    assert tracing.layer_of_callback(daemon.health_snapshot) == "kernel.bulletin"


# -- clean uninstall ---------------------------------------------------------------
def _patched_namespaces():
    from repro.cluster import message, metrics, network, transport
    from repro.kernel import api, quiesce
    from repro.sim import core, trace

    classes = (core.Simulator, transport.Transport, network.Network, metrics.ResourceModel,
               trace.Trace, api.PhoenixKernel, quiesce.WdBeatContract,
               quiesce.DetectorExportContract)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "repro"]
    assert message.estimate_size  # imported so every holder is loaded
    return list(classes) + modules


def test_uninstall_restores_every_patched_attribute():
    spaces = _patched_namespaces()
    before = [dict(vars(ns)) for ns in spaces]
    instr = tracing.Instrumentation()
    instr.install()
    try:
        from repro.sim.core import Simulator as Sim

        assert Sim.__dict__["schedule"] is not before[0]["schedule"]
    finally:
        instr.uninstall()
    after = [dict(vars(ns)) for ns in spaces]
    for ns, old, new in zip(spaces, before, after):
        assert old.keys() == new.keys(), ns
        changed = [k for k in old if old[k] is not new[k]]
        assert changed == [], (ns, changed)


def test_install_twice_is_refused():
    instr = tracing.Instrumentation()
    instr.install()
    try:
        with pytest.raises(RuntimeError):
            instr.install()
    finally:
        instr.uninstall()


# -- correctness checks flag doctored results -----------------------------------
def test_refresh_with_missing_rows_is_flagged():
    sim = Simulator(seed=0)
    sim.run(until=1.0)
    sim.trace.mark("gridview.refresh", latency=0.002, rows=512, missing=0)
    sim.trace.mark("gridview.refresh", latency=0.002, rows=511, missing=1)
    rep = workloads.Rep()
    latencies = workloads.refresh_outcomes(sim, 0.0, 512, rep)
    assert latencies == [0.002, 0.002]
    assert (rep.attempted, rep.failed) == (2, 1)
    assert len(rep.problems) == 1 and "511 rows" in rep.problems[0]


def test_read_that_misses_nodes_is_flagged():
    full = {"rows": [{"state": "up", "count": 500}, {"state": "down", "count": 12}]}
    assert workloads.read_rows_ok("exec_query", full, 512)
    assert not workloads.read_rows_ok("read_view", {"rows": [{"state": "up", "count": 511}]}, 512)
    assert workloads.read_rows_ok("query_bulletin", {"row_count": 512, "partitions_missing": []}, 512)
    assert not workloads.read_rows_ok(
        "query_bulletin", {"row_count": 496, "partitions_missing": ["p3"]}, 512)


def test_unrecovered_injection_is_flagged():
    good = {"injected": 3, "recovered": 3}
    assert workloads.failover_problems({("wd", "node"): good}, 3) == []
    doctored = {"injected": 3, "recovered": 2}
    problems = workloads.failover_problems({("wd", "node"): good, ("es", "process"): doctored}, 3)
    assert problems == ["es/process: 1 injections unrecovered"]


def test_doctored_serve_accounting_is_flagged():
    classes = {"browse": {"completed": 98, "rejected": 1, "failed": 1}}
    detail = {"classes": classes, "generated": 100, "drift": 0, "sla_down": 1, "sla_up": 1}
    assert workloads.serve_problems(detail, 100) == []
    assert workloads.serve_problems({**detail, "drift": 2}, 100) == ["lost-capacity drift 2 != 0"]
    lost = {"browse": {"completed": 97, "rejected": 1, "failed": 1}}
    assert workloads.serve_problems({**detail, "classes": lost}, 100) == [
        "request outcomes do not add up to requests generated"]


def test_quietest_cpu_pins_one_allowed_cpu():
    before = os.sched_getaffinity(0)
    try:
        workloads.quietest_cpu().stop()
        after = os.sched_getaffinity(0)
        assert after <= set(workloads.CPUS)
        assert len(after) == 1 or len(workloads.CPUS) == 1
    finally:
        os.sched_setaffinity(0, before)


# -- host-speed stopwatch ------------------------------------------------------------
def test_stopwatch_scales_stretches_by_probe_speed(monkeypatch):
    # Every probe reads twice the reference time: the host runs at half
    # speed, so each host second counts half a reference second.
    monkeypatch.setattr(hostclock, "probe", lambda: 2 * hostclock.PROBE_REF_S)
    watch = hostclock.Stopwatch(probing=True)
    time.sleep(0.2)
    assert watch.lap() == pytest.approx(watch.raw / 2)
    time.sleep(0.1)
    watch.stop()
    assert watch.probes >= 3  # the alarm probed while the work ran
    assert watch.elapsed == pytest.approx(watch.raw / 2)
    assert watch.raw >= 0.3


def test_stopwatch_restores_the_alarm_and_refuses_a_second_one():
    before = signal.getsignal(signal.SIGALRM)
    watch = hostclock.Stopwatch(probing=True)
    try:
        with pytest.raises(RuntimeError):
            hostclock.Stopwatch(probing=True)
    finally:
        watch.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    hostclock.Stopwatch(probing=True).stop()  # free again


def test_unprobed_stopwatch_reads_host_seconds():
    watch = hostclock.Stopwatch(probing=False)
    time.sleep(0.05)
    assert watch.stop() == watch.raw >= 0.05
    assert watch.probes == 0


def test_tail_percentile_leaves_ten_samples_beyond():
    assert workloads.tail_percentile(100) == 90.0
    assert workloads.tail_percentile(99) == 75.0
    assert workloads.tail_percentile(60) == 75.0
    assert workloads.tail_percentile(100_000) == 99.9


# -- determinism ------------------------------------------------------------------
def test_serve_matches_run_serve_campaign():
    from repro.experiments.serve_campaign import run_serve_campaign

    rep = workloads.run_serve(3, requests=4000)
    reference = run_serve_campaign(requests=4000, seed=3)
    assert rep.detail["classes"] == reference.classes
    assert rep.detail["generated"] == reference.generated
    assert rep.detail["killed"] == reference.killed_node
    assert rep.detail["drift"] == reference.drift
    assert rep.detail["duration_s"] == reference.duration_s


def test_failover_matches_run_campaign():
    from repro.experiments.fault_campaign import run_campaign

    rep = workloads.run_failover(5, injections=2)
    reference = run_campaign(injections=2, seed=5)
    assert rep.detail["classes"].keys() == reference.keys()
    for key, ref in reference.items():
        out = rep.detail["classes"][key]
        assert (out["injected"], out["recovered"]) == (ref.injected, ref.recovered), key
        assert (out["detect"], out["diagnose"], out["recover"]) == (
            ref.detect, ref.diagnose, ref.recover), key
        assert (out["failover_spans"], out["fault_spans"]) == (
            ref.failover_spans, ref.fault_spans), key


def test_traced_run_reproduces_untraced_results():
    plain = workloads.run_federate(2, nodes=256, region_size=4)
    instr = tracing.Instrumentation()
    instr.install()
    try:
        traced = workloads.run_federate(2, instr, nodes=256, region_size=4)
        again = workloads.run_federate(2, instr, nodes=256, region_size=4)
    finally:
        instr.uninstall()
    assert plain.problems == [] and traced.problems == []
    assert deterministic(plain) == deterministic(traced)
    calls = {k: v["calls"] for k, v in traced.trace["layers"].items()}
    assert calls == {k: v["calls"] for k, v in again.trace["layers"].items()}
    assert traced.trace["messages"] == again.trace["messages"]
    assert calls["kernel.api"] > 0 and calls["kernel.quiesce"] > 0
    # The message ledger plus fast-forward replays add up to the fabric counters.
    assert sum(n for n, _ in traced.trace["messages"].values()) <= traced.counts[
        "cluster.network.msgs"]


def test_benchmark_json_matches_the_reported_metrics():
    import json
    from pathlib import Path

    import run

    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_metrics()
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
