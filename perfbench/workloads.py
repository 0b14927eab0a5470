"""The benchmark's four workloads, driven through the public API only.

Each ``run_<workload>(seed, instr=None)`` builds a fresh cluster (timed
as set-up), runs the measured phase (timed as ``wall_s``), and returns a
:class:`Rep` holding the host timings, the operations attempted and
failed, the correctness problems found, and the deterministic simulated
results.  Passing an :class:`~tracing.Instrumentation` (installed before
the call) makes it collect the per-layer ledger of the measured phase.

Everything simulated is a pure function of the seed; see README.md for
why each workload was chosen and which layers it loads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.cluster import Cluster, ClusterSpec, FaultInjector, NodeRole
from repro.kernel import KernelTimings, PhoenixKernel
from repro.kernel.bulletin.query import Agg, Query
from repro.sim import Simulator
from repro.sim.trace import Histogram
from repro.experiments.fault_campaign import CLASSES as FAULT_CLASSES
from repro.experiments.serve_campaign import (
    APP,
    REQUEST_CLASSES,
    SCALE_BOUNDS,
    TIERS,
    build_profile,
)
from repro.userenv.business import (
    Autoscaler,
    AutoscalePolicy,
    BizAppSpec,
    TrafficGenerator,
    install_business_runtime,
)
from repro.userenv.monitoring import install_gridview

from hostclock import Stopwatch, probe

#: CPUs this process may run on (timed phases pick the quietest).
CPUS = tuple(sorted(os.sched_getaffinity(0)))

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

NODES_PER_PARTITION = 16
#: Publishes in the single-node event storm (as in the fig6 sweep points).
STORM_EVENTS = 20
#: Simulated seconds a storm is given to flush its federation batches.
STORM_SETTLE = 2.0


@dataclass
class Rep:
    """One repetition of a workload: fresh set-up plus the measured phase."""

    setup_s: list[float] = field(default_factory=list)  # one per cluster set up
    setup_parts: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Deterministic simulated results (equal across repetitions of a seed).
    sim: dict[str, float] = field(default_factory=dict)
    #: Deterministic work counts of the measured phase.
    counts: dict[str, float] = field(default_factory=dict)
    #: Structured outcome compared against the repository's own harnesses.
    detail: dict[str, Any] = field(default_factory=dict)
    #: Per-layer ledger of the measured phase (traced repetitions only).
    trace: dict[str, Any] | None = None


# -- shared helpers ------------------------------------------------------------
def quantile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0-100) of an ascending list."""
    rank = max(1, math.ceil(len(sorted_values) * p / 100.0))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(n * p / 100.0) >= TAIL_BEYOND:
            return p
    return 50.0


def latency_stats(samples_s: list[float]) -> dict[str, float]:
    """Median and tail of latency samples (seconds in, milliseconds out)."""
    values = sorted(samples_s)
    if not values:
        return {"sim.op_p50_ms": 0.0, "sim.op_tail_ms": 0.0,
                "sim.op_samples": 0, "sim.op_tail_pct": 0.0}
    pct = tail_percentile(len(values))
    return {
        "sim.op_p50_ms": 1000.0 * quantile(values, 50.0),
        "sim.op_tail_ms": 1000.0 * quantile(values, pct),
        "sim.op_samples": len(values),
        "sim.op_tail_pct": pct,
    }


def histogram_quantile(hist: Histogram, p: float) -> float:
    """Percentile ``p`` of a bucketed histogram, linearly interpolated
    inside the bucket that holds the rank (the overflow bucket and the
    observed min/max clamp the ends)."""
    rank = hist.count * p / 100.0
    cumulative = 0
    for i, n in enumerate(hist.counts):
        if n and cumulative + n >= rank:
            lo = hist.bounds[i - 1] if i > 0 else hist.min
            hi = hist.bounds[i] if i < len(hist.bounds) else hist.max
            lo, hi = max(lo, hist.min), min(hi, hist.max)
            return lo + (hi - lo) * (rank - cumulative) / n
        cumulative += n
    return hist.max


def net_totals(sim: Simulator, cluster: Cluster) -> tuple[float, float]:
    """(messages, bytes) accepted by every fabric so far."""
    trace = sim.trace
    msgs = sum(trace.counter(f"net.{n}.msgs") for n in cluster.networks)
    nbytes = sum(trace.counter(f"net.{n}.bytes") for n in cluster.networks)
    return msgs, nbytes


class Counters:
    """Snapshot of the deterministic work counters a measured phase moves."""

    def __init__(self, sim: Simulator, cluster: Cluster) -> None:
        self.sim, self.cluster = sim, cluster
        self.start = self._read()

    def _read(self) -> dict[str, float]:
        trace = self.sim.trace
        msgs, nbytes = net_totals(self.sim, self.cluster)
        failovers = trace.histogram("gsd.failover")
        return {
            "sim.core.events": self.sim.events_executed,
            "sim.core.ff_skipped": self.sim.ff_skipped,
            "cluster.network.msgs": msgs,
            "cluster.network.bytes": nbytes,
            "cluster.transport.rpc_retries": trace.counter("rpc.retries"),
            "es.forward_batches": trace.counter("es.forward_batches"),
            "es.forward_batched_events": trace.counter("es.forward_batched_events"),
            "kernel.group.failovers": failovers.count if failovers is not None else 0,
        }

    def delta(self) -> dict[str, float]:
        end = self._read()
        return {k: end[k] - self.start[k] for k in end}

    def traffic(self) -> tuple[float, float]:
        """(messages, bytes) accepted by the fabrics since the snapshot."""
        msgs, nbytes = net_totals(self.sim, self.cluster)
        return (msgs - self.start["cluster.network.msgs"],
                nbytes - self.start["cluster.network.bytes"])


def add_counts(total: dict[str, float], delta: dict[str, float]) -> None:
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value


def spec_for(nodes: int, region_size: int | None = None) -> ClusterSpec:
    """16 nodes per partition (server, backup, 14 computes)."""
    return ClusterSpec.build(
        partitions=nodes // NODES_PER_PARTITION, computes=NODES_PER_PARTITION - 2,
        backups=1, region_size=region_size,
    )


class Waiter:
    """Collects signal outcomes with their due times (open-loop timing)."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.outcomes: list[tuple[str, float, float, Any]] = []

    def watch(self, kind: str, due: float, signal) -> None:
        def body():
            value = yield signal
            self.outcomes.append((kind, due, self.sim.now, value))

        self.sim.spawn(body(), name=f"bench.{kind}")


def quietest_cpu(probing: bool | None = None) -> Stopwatch:
    """Move the process to the allowed CPU that runs a short probe
    fastest, then start a :class:`~hostclock.Stopwatch`.

    On a small shared virtual machine one vCPU can be slowed for minutes
    by work elsewhere on the host while another runs at full speed;
    probing before every timed phase keeps the measurement on the
    quieter one.  The timed work itself is unchanged.
    """
    if len(CPUS) > 1:
        speeds = []
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            speeds.append((sum(probe() for _ in range(8)), cpu))
        os.sched_setaffinity(0, {min(speeds)[1]})
    return Stopwatch(probing)


def measure_start(instr) -> Stopwatch:
    """Start timing a measured phase; a traced phase is timed without
    probes, so that no span absorbs their time."""
    if instr is None:
        return quietest_cpu()
    instr.reset_counts()
    return quietest_cpu(probing=False)


def measure_end(instr, watch: Stopwatch,
                totals: dict[str, Any] | None) -> tuple[float, dict | None]:
    """Reference seconds on ``watch``; folds the traced phase into ``totals``."""
    elapsed = watch.stop()
    if instr is None:
        return elapsed, None
    totals = totals or {"layers": {}, "messages": {}, "edges": {}, "delay_sum": 0.0,
                        "delivered": 0, "can_skip_calls": 0, "skips": 0, "wall_s": 0.0}
    for name, row in instr.ledger.layers().items():
        acc = totals["layers"].setdefault(name, {"calls": 0, "self_s": 0.0})
        acc["calls"] += row["calls"]
        acc["self_s"] += row["self_s"]
    for row in instr.ledger.edge_table():
        acc = totals["edges"].setdefault((row["parent"], row["child"]), [0, 0.0])
        acc[0] += row["spans"]
        acc[1] += row["total_s"]
    for (net, mtype), (n, b) in instr.messages.items():
        acc = totals["messages"].setdefault((net, mtype), [0, 0])
        acc[0] += n
        acc[1] += b
    for key in ("delay_sum", "delivered", "can_skip_calls", "skips"):
        totals[key] += getattr(instr, key)
    totals["wall_s"] += elapsed
    return elapsed, totals


# -- monitor: flat mesh, exact engine, GridView + open-loop bulletin reads ---------
MONITOR_NODES = 512
#: One heartbeat and one GridView refresh period.
MONITOR_WINDOW = 30.0
#: One bulletin read every READ_PERIOD simulated seconds, cycling kinds.
READ_PERIOD = 0.5
READ_KINDS = ("query_bulletin", "exec_query", "read_view")
VIEW_NAME = "bench.nodes_by_state"
#: Nodes per state: its counts must add up to every node in the cluster.
COUNT_BY_STATE = Query(table="nodes", group_by=("state",), aggs=(Agg("count"),))


def read_rows_ok(kind: str, reply: dict[str, Any], nodes: int) -> bool:
    """A read is correct when it accounts for every node."""
    if kind == "query_bulletin":
        return reply.get("row_count") == nodes and not reply.get("partitions_missing")
    return sum(row.get("count", 0) for row in reply.get("rows", [])) == nodes


class Reader:
    """Open loop of bulletin reads from one node: one read due every
    ``period`` simulated seconds, cycling through ``kinds``."""

    def __init__(self, sim: Simulator, kernel, node: str, waiter: Waiter,
                 kinds: tuple[str, ...], period: float) -> None:
        client = kernel.client(node)
        self.issue: dict[str, Callable[[], Any]] = {
            "query_bulletin": lambda: client.query_bulletin("node_metrics", aggregate=["cpu"]),
            "exec_query": lambda: client.exec_query(COUNT_BY_STATE),
            "read_view": lambda: client.read_view(VIEW_NAME),
        }
        self.sim, self.waiter, self.kinds, self.period = sim, waiter, kinds, period
        self.scheduled = 0

    def _read(self, i: int) -> None:
        kind = self.kinds[i % len(self.kinds)]
        self.waiter.watch(kind, self.sim.now, self.issue[kind]())

    def start(self, window: float) -> None:
        """Schedule the reads due in ``[now, now + window)``."""
        t_start = self.sim.now
        self.scheduled = int(window / self.period)
        for i in range(self.scheduled):
            self.sim.schedule_at(t_start + i * self.period, self._read, i)

    def outcomes(self, nodes: int, rep: Rep) -> list[float]:
        """Check every read; returns the latencies of the correct ones."""
        latencies = []
        done = 0
        for kind, due, finished, reply in self.waiter.outcomes:
            if kind not in self.kinds:
                continue
            done += 1
            rep.attempted += 1
            if reply is None or reply.get("error"):
                rep.failed += 1
            elif not read_rows_ok(kind, reply, nodes):
                rep.failed += 1
                rep.problems.append(f"{kind} at {due:.2f}s did not account for {nodes} nodes")
            else:
                latencies.append(finished - due)
        if done != self.scheduled:
            rep.problems.append(f"{self.scheduled - done} bulletin reads never completed")
        return latencies


def refresh_outcomes(sim: Simulator, since: float, nodes: int, rep: Rep) -> list[float]:
    """Check every GridView refresh after ``since``; returns their latencies."""
    latencies = []
    for record in sim.trace.records("gridview.refresh"):
        if record.time <= since:
            continue
        rep.attempted += 1
        latencies.append(record["latency"])
        if record["rows"] != nodes:
            rep.failed += 1
            rep.problems.append(f"refresh at {record.time:.3f}s saw {record['rows']} rows, "
                                f"expected {nodes}")
    for record in sim.trace.records("gridview.refresh_failed"):
        if record.time > since:
            rep.attempted += 1
            rep.failed += 1
    if not latencies:
        rep.problems.append("no GridView refresh completed in the measured window")
    return latencies


def publish_storm(sim: Simulator, kernel, waiter: Waiter, publishers: list[str],
                  event_type: str) -> float:
    """One publish from each entry of ``publishers``, all due now; runs
    STORM_SETTLE simulated seconds and returns the federation batches
    the storm cost."""
    batches0 = sim.trace.counter("es.forward_batches")
    due = sim.now
    for seq, node in enumerate(publishers):
        waiter.watch("publish", due,
                     kernel.client(node).publish(event_type, {"node": node, "seq": seq}))
    sim.run(until=sim.now + STORM_SETTLE)
    return sim.trace.counter("es.forward_batches") - batches0


def publish_outcomes(waiter: Waiter, rep: Rep) -> None:
    """Count publishes; one without an acknowledgement failed."""
    for kind, _, _, reply in waiter.outcomes:
        if kind == "publish":
            rep.attempted += 1
            if reply is None:
                rep.failed += 1


def _monitoring_setup(seed: int, nodes: int, region_size: int | None,
                      fast_forward: bool, rep: Rep, view: bool):
    """Build, boot and warm a 16-nodes-per-partition cluster with GridView
    (and the read view, when asked); records the set-up timings."""
    watch = quietest_cpu()
    sim = Simulator(seed=seed, trace_capacity=50_000, fast_forward=fast_forward)
    # Only gridview.* records are read back; counters are kept regardless.
    sim.trace.set_record_filter(("gridview.",))
    cluster = Cluster(sim, spec_for(nodes, region_size))
    t1 = watch.lap()
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=30.0))
    kernel.boot()
    t2 = watch.lap()
    gv = install_gridview(kernel, refresh_interval=30.0)
    waiter = Waiter(sim)
    reader = next(n for n in cluster.compute_nodes("p1")
                  if cluster.node(n).role is NodeRole.COMPUTE)
    if view:
        waiter.watch("register_view", 0.0,
                     kernel.client(reader).register_view(VIEW_NAME, COUNT_BY_STATE))
    sim.run(until=5.0)  # first detector exports have landed
    t3 = watch.stop()
    rep.setup_s.append(t3)
    rep.setup_parts = {"setup.cluster_s": t1, "setup.boot_s": t2 - t1,
                       "setup.warm_s": t3 - t2}
    if view and not (waiter.outcomes and waiter.outcomes[0][3] and waiter.outcomes[0][3].get("ok")):
        rep.problems.append("view registration did not complete during set-up")
    waiter.outcomes.clear()
    return sim, cluster, kernel, gv, waiter, reader


def run_monitor(seed: int, instr=None, nodes: int = MONITOR_NODES,
                window: float = MONITOR_WINDOW) -> Rep:
    """512 nodes, flat mesh, exact engine: heartbeats, GridView refreshes,
    an open loop of bulletin reads from one compute node, then a
    single-node publish storm."""
    rep = Rep()
    sim, cluster, kernel, gv, waiter, reader = _monitoring_setup(
        seed, nodes, None, False, rep, view=True)
    reads = Reader(sim, kernel, reader, waiter, READ_KINDS, READ_PERIOD)
    watch = measure_start(instr)
    counters = Counters(sim, cluster)
    t_start = sim.now
    reads.start(window)
    sim.run(until=t_start + window)
    window_msgs, window_bytes = counters.traffic()
    storm_batches = publish_storm(sim, kernel, waiter, [gv.node_id] * STORM_EVENTS,
                                  "app.started")
    rep.wall_s, rep.trace = measure_end(instr, watch, None)
    rep.counts = counters.delta()

    read_latencies = reads.outcomes(nodes, rep)
    refreshes = refresh_outcomes(sim, t_start, nodes, rep)
    publish_outcomes(waiter, rep)
    partitions = len(cluster.partitions)
    rep.sim = {
        **latency_stats(read_latencies),
        "sim.msgs_per_node_s": window_msgs / nodes / window,
        "sim.bytes_per_node_s": window_bytes / nodes / window,
        "sim.refresh_ms": 1000.0 * sum(refreshes) / max(1, len(refreshes)),
        "sim.fed_msgs_per_partition": storm_batches / partitions,
        "sim.detect_p50_ms": 0.0,
    }
    return rep


# -- federate: two-tier federation, fast-forward, all-pairs storm ------------
FEDERATE_NODES = 2048
FEDERATE_REGION = 16
FEDERATE_WINDOW = 30.0
#: Federated aggregate reads only: a view or full scans at this size
#: would dominate the host time the workload exists to expose.
FEDERATE_READ_PERIOD = 0.75


def run_federate(seed: int, instr=None, nodes: int = FEDERATE_NODES,
                 region_size: int = FEDERATE_REGION, window: float = FEDERATE_WINDOW) -> Rep:
    """2048 nodes in regions of 16 partitions, fast-forward on: a
    monitoring window with an open loop of federated aggregate reads, a
    single-node publish storm, then one publish from every partition at
    once (the all-pairs storm)."""
    rep = Rep()
    sim, cluster, kernel, gv, waiter, reader = _monitoring_setup(
        seed, nodes, region_size, True, rep, view=False)
    reads = Reader(sim, kernel, reader, waiter, ("query_bulletin",), FEDERATE_READ_PERIOD)
    watch = measure_start(instr)
    counters = Counters(sim, cluster)
    t_start = sim.now
    reads.start(window)
    sim.run(until=t_start + window)
    window_msgs, window_bytes = counters.traffic()
    publish_storm(sim, kernel, waiter, [gv.node_id] * STORM_EVENTS, "app.started")
    cross0 = sim.trace.counter("es.forward_batches_cross")
    allpairs_batches = publish_storm(sim, kernel, waiter,
                                     [part.server for part in cluster.spec.partitions],
                                     "config.changed")
    rep.wall_s, rep.trace = measure_end(instr, watch, None)
    rep.counts = counters.delta()

    refreshes = refresh_outcomes(sim, t_start, nodes, rep)
    read_latencies = reads.outcomes(nodes, rep)
    publish_outcomes(waiter, rep)
    if sim.trace.counter("es.forward_batches_cross") - cross0 <= 0:
        rep.problems.append("no federation batch crossed a region in the all-pairs storm")
    partitions = len(cluster.partitions)
    rep.sim = {
        **latency_stats(read_latencies),
        "sim.msgs_per_node_s": window_msgs / nodes / window,
        "sim.bytes_per_node_s": window_bytes / nodes / window,
        "sim.refresh_ms": 1000.0 * sum(refreshes) / max(1, len(refreshes)),
        "sim.fed_msgs_per_partition": allpairs_batches / partitions,
        "sim.detect_p50_ms": 0.0,
    }
    return rep


# -- serve: the serving campaign (mirrors run_serve_campaign) -------------------
SERVE_REQUESTS = 100_000
SERVE_RATE = 2000.0


def serve_problems(detail: dict[str, Any], requests: int) -> list[str]:
    """Accounting gates of the serving campaign (rejected and failed
    requests are failed operations, not wrong results)."""
    problems = []
    generated = detail["generated"]
    outcomes = {k: sum(c[k] for c in detail["classes"].values())
                for k in ("completed", "rejected", "failed")}
    if generated != requests:
        problems.append(f"generated {generated} of {requests} requests")
    if sum(outcomes.values()) != generated:
        problems.append("request outcomes do not add up to requests generated")
    if generated and outcomes["completed"] / generated < 0.97:
        problems.append(f"completed {outcomes['completed']}/{generated} < 97%")
    if detail["drift"] != 0:
        problems.append(f"lost-capacity drift {detail['drift']} != 0")
    if detail["sla_down"] != detail["sla_up"]:
        problems.append("dangling SLA violation")
    return problems


def _serve_setup(seed: int, rep: Rep):
    """Build, boot and warm the serving cluster, deploy the app and arm
    the traffic generator and autoscaler; records the set-up timings."""
    watch = quietest_cpu()
    sim = Simulator(seed=seed, trace_capacity=0)
    cluster = Cluster(sim, ClusterSpec.build(partitions=2, computes=6))
    t1 = watch.lap()
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=5.0,
                                                          health_report_interval=2.5))
    kernel.boot()
    t2 = watch.lap()
    injector = FaultInjector(cluster)
    sim.run(until=6.0)
    workers = [n for n in cluster.compute_nodes() if cluster.node(n).role is NodeRole.COMPUTE]
    runtime = install_business_runtime(kernel, worker_nodes=workers, partition_id="p0")
    sim.run(until=sim.now + 2.0)
    runtime.deploy(BizAppSpec(name=APP, tiers=TIERS))
    sim.run(until=sim.now + 3.0)
    arrival = build_profile("diurnal", SERVE_RATE)
    generator = TrafficGenerator(runtime, APP, list(REQUEST_CLASSES), profile=arrival,
                                 queue_cap=256, slots_per_replica=16, span_sample=0)
    scaler = Autoscaler(
        runtime, APP, SCALE_BOUNDS,
        policy=AutoscalePolicy(interval=5.0, cooldown=20.0, queue_high=16),
        class_slos={c.name: c.slo_p99 for c in REQUEST_CLASSES if c.slo_p99},
    )
    scaler.start()
    t3 = watch.stop()
    rep.setup_s.append(t3)
    rep.setup_parts = {"setup.cluster_s": t1, "setup.boot_s": t2 - t1,
                       "setup.warm_s": t3 - t2}
    return sim, cluster, kernel, injector, runtime, generator, arrival


def run_serve(seed: int, instr=None, requests: int = SERVE_REQUESTS) -> Rep:
    """Diurnal open-loop traffic through a three-tier app with admission
    control and autoscaling; a web worker is killed at 40% of the run and
    recovered at 60%.  Same configuration and call sequence as
    ``repro.experiments.serve_campaign.run_serve_campaign``."""
    rep = Rep()
    sim, cluster, kernel, injector, runtime, generator, arrival = _serve_setup(seed, rep)

    watch = measure_start(instr)
    counters = Counters(sim, cluster)
    start = sim.now
    duration = requests / arrival.mean_rate()
    generator.start(max_requests=requests)
    sim.run(until=start + 0.4 * duration)
    victim = next(r.node for r in runtime.apps[APP].tier_replicas("web") if r.healthy)
    injector.crash_node(victim)
    sim.run(until=start + 0.6 * duration)
    injector.boot_node(victim)
    for svc in ("ppm", "detector", "wd"):
        if not cluster.hostos(victim).process_alive(svc):
            kernel.start_service(svc, victim)
    step = max(duration / 20.0, 1.0)
    while not generator.done:
        sim.run(until=sim.now + step)
    drain_deadline = sim.now + 120.0
    while generator.inflight and sim.now < drain_deadline:
        sim.run(until=sim.now + 1.0)
    rep.wall_s, rep.trace = measure_end(instr, watch, None)
    rep.counts = counters.delta()

    classes = generator.class_summary()
    rejected = sum(c["rejected"] for c in classes.values())
    failed = sum(c["failed"] for c in classes.values())
    audit = runtime.capacity_audit()
    rep.detail = {"classes": classes, "generated": generator.generated,
                  "duration_s": sim.now - start, "drift": audit["drift"], "killed": victim,
                  "sla_down": sim.trace.counter("bizrt.sla.down"),
                  "sla_up": sim.trace.counter("bizrt.sla.up")}
    rep.attempted = generator.generated
    rep.failed = rejected + failed
    rep.problems += serve_problems(rep.detail, requests)

    merged = None
    for cls in REQUEST_CLASSES:
        hist = sim.trace.histogram(f"bizreq.latency.{cls.name}")
        if hist is None:
            continue
        if merged is None:
            merged = Histogram(hist.bounds)
        merged.counts = [a + b for a, b in zip(merged.counts, hist.counts)]
        merged.count += hist.count
        merged.sum += hist.sum
        merged.min, merged.max = min(merged.min, hist.min), max(merged.max, hist.max)
    nodes = len(cluster.nodes)
    sim_s = sim.now - start
    msgs, nbytes = rep.counts["cluster.network.msgs"], rep.counts["cluster.network.bytes"]
    pct = tail_percentile(merged.count if merged else 0)
    rep.sim = {
        "sim.op_p50_ms": 1000.0 * histogram_quantile(merged, 50.0) if merged else 0.0,
        "sim.op_tail_ms": 1000.0 * histogram_quantile(merged, pct) if merged else 0.0,
        "sim.op_samples": merged.count if merged else 0,
        "sim.op_tail_pct": pct,
        "sim.msgs_per_node_s": msgs / nodes / sim_s,
        "sim.bytes_per_node_s": nbytes / nodes / sim_s,
        "sim.refresh_ms": 0.0,
        "sim.fed_msgs_per_partition": 0.0,
        "sim.detect_p50_ms": 0.0,
    }
    return rep


# -- failover: Tables 1-3 fault classes (mirrors run_campaign) --------------------
INJECTIONS = 80
HEARTBEAT = 10.0


def _pick_target(cluster, kernel, component: str, rng) -> str | None:
    if component == "wd":
        candidates = [n for n in cluster.compute_nodes()
                      if cluster.node(n).up and cluster.hostos(n).process_alive("wd")]
    else:
        live = kernel.gsd if component == "gsd" else kernel.es
        candidates = [kernel.placement[(component, p.partition_id)]
                      for p in cluster.partitions[1:]  # spare the leader for gsd kills
                      if live(p.partition_id).alive]
    if not candidates:
        return None
    return str(rng.choice(sorted(candidates)))


def _find_marks(sim, component: str, situation: str, target: str, t0: float):
    match = {"network": "data"} if situation == "network" else {}
    marks = []
    for category, extra in (("failure.detected", {}),
                            ("failure.diagnosed", {"kind": situation}),
                            ("failure.recovered", {"kind": situation})):
        record = next((r for r in sim.trace.iter_records(
            category, component=component, node=target, **extra, **match) if r.time > t0), None)
        if record is None:
            return None
        marks.append(record.time)
    return marks


def _fault_setup(seed: int, rep: Rep):
    """Build, boot and warm one 4-partition campaign cluster (two beats);
    adds to the set-up timings."""
    watch = quietest_cpu()
    sim = Simulator(seed=seed, trace_capacity=None)
    cluster = Cluster(sim, ClusterSpec.build(partitions=4, computes=6))
    t1 = watch.lap()
    kernel = PhoenixKernel(cluster, timings=KernelTimings(heartbeat_interval=HEARTBEAT))
    kernel.boot()
    t2 = watch.lap()
    injector = FaultInjector(cluster)
    sim.run(until=2.0 * HEARTBEAT)
    t3 = watch.stop()
    rep.setup_s.append(t3)
    for key, value in (("setup.cluster_s", t1), ("setup.boot_s", t2 - t1),
                       ("setup.warm_s", t3 - t2)):
        rep.setup_parts[key] = rep.setup_parts.get(key, 0.0) + value
    return sim, cluster, kernel, injector


def run_fault_class(component: str, situation: str, seed: int, injections: int,
                    rep: Rep, instr=None) -> dict[str, Any]:
    """One fault class on its own 4-partition cluster, injections one after
    another at random phases (the sequence of ``run_campaign_class``)."""
    sim, cluster, kernel, injector = _fault_setup(seed, rep)
    rng = sim.rngs.stream(f"campaign.{component}.{situation}")

    watch = measure_start(instr)
    counters = Counters(sim, cluster)
    sim_start = sim.now
    out = {"injected": 0, "recovered": 0, "detect": [], "diagnose": [], "recover": []}
    for i in range(injections):
        sim.run(until=sim.now + float(rng.uniform(0.2, 1.2)) * HEARTBEAT)
        target = _pick_target(cluster, kernel, component, rng)
        if target is None:
            continue
        t_inject = sim.now
        span = sim.trace.span("campaign.fault", component=component, situation=situation,
                              case=f"c{i}", target=target)
        injector.current_span = span
        if situation == "process":
            injector.kill_process(target, component, case=f"c{i}")
        elif situation == "node":
            injector.crash_node(target, case=f"c{i}")
        else:
            injector.fail_nic(target, "data", case=f"c{i}")
        out["injected"] += 1
        deadline = t_inject + 6.0 * HEARTBEAT
        marks = None
        while sim.now < deadline:
            sim.run(until=min(sim.now + HEARTBEAT, deadline))
            marks = _find_marks(sim, component, situation, target, t_inject)
            if marks is not None:
                break
        if marks is None:
            span.end(recovered=False)
            injector.current_span = None
            continue
        detected, diagnosed, recovered = marks
        out["recovered"] += 1
        out["detect"].append(detected - t_inject)
        out["diagnose"].append(diagnosed - detected)
        out["recover"].append(recovered - diagnosed)
        if situation == "node":
            injector.boot_node(target)
            for svc in ("ppm", "detector", "wd"):
                if not cluster.hostos(target).process_alive(svc):
                    kernel.start_service(svc, target)
        elif situation == "network":
            injector.restore_nic(target, "data")
        span.end(recovered=True)
        injector.current_span = None
        sim.run(until=sim.now + 2.0 * HEARTBEAT)
    elapsed, rep.trace = measure_end(instr, watch, rep.trace)
    rep.wall_s += elapsed
    add_counts(rep.counts, counters.delta())
    out["failover_spans"] = sum(
        1 for r in sim.trace.iter_records("gsd.failover") if r.get("duration") is not None)
    out["fault_spans"] = sum(
        1 for r in sim.trace.iter_records("campaign.fault") if r.get("duration") is not None)
    out["sim_s"] = sim.now - sim_start
    out["nodes"] = len(cluster.nodes)
    return out


def failover_problems(outcomes: dict[tuple[str, str], dict[str, Any]],
                      injections: int) -> list[str]:
    """Every planned injection must happen and be recovered."""
    problems = []
    for (component, situation), out in outcomes.items():
        if out["injected"] != injections:
            problems.append(f"{component}/{situation}: injected {out['injected']} "
                            f"of {injections}")
        if out["recovered"] != out["injected"]:
            problems.append(f"{component}/{situation}: "
                            f"{out['injected'] - out['recovered']} injections unrecovered")
    return problems


def run_failover(seed: int, instr=None, injections: int = INJECTIONS) -> Rep:
    """Every Tables 1-3 fault class, ``injections`` faults each, one after
    another; an injection fails when it is not recovered in six beats."""
    rep = Rep()
    outcomes = {}
    for component, situation in FAULT_CLASSES:
        outcomes[(component, situation)] = run_fault_class(
            component, situation, seed, injections, rep, instr)
    rep.detail = {"classes": outcomes}
    rep.problems += failover_problems(outcomes, injections)
    outages, detects, node_seconds = [], [], 0.0
    for out in outcomes.values():
        rep.attempted += injections
        rep.failed += injections - out["recovered"]
        outages += [a + b + c for a, b, c in zip(out["detect"], out["diagnose"], out["recover"])]
        detects += out["detect"]
        node_seconds += out["nodes"] * out["sim_s"]
    rep.sim = {
        **latency_stats(outages),
        "sim.msgs_per_node_s": rep.counts["cluster.network.msgs"] / node_seconds,
        "sim.bytes_per_node_s": rep.counts["cluster.network.bytes"] / node_seconds,
        "sim.refresh_ms": 0.0,
        "sim.fed_msgs_per_partition": 0.0,
        "sim.detect_p50_ms": 1000.0 * quantile(sorted(detects), 50.0) if detects else 0.0,
    }
    return rep


class Workload(NamedTuple):
    """A workload's full repetition and its set-up alone."""

    run: Callable[..., Rep]
    setup: Callable[[int, Rep], Any]


WORKLOADS: dict[str, Workload] = {
    "monitor": Workload(run_monitor, lambda seed, rep: _monitoring_setup(
        seed, MONITOR_NODES, None, False, rep, view=True)),
    "federate": Workload(run_federate, lambda seed, rep: _monitoring_setup(
        seed, FEDERATE_NODES, FEDERATE_REGION, True, rep, view=False)),
    "serve": Workload(run_serve, _serve_setup),
    "failover": Workload(run_failover, _fault_setup),
}
