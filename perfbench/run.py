"""Simulator benchmark: one workload per invocation, result as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload monitor --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload federate --seed 1 --seconds 30 --trace 1

``--trace 0`` repeats the workload (a fresh set-up each time) for about
``--seconds`` host seconds and reports the end-to-end metrics as medians
over the repetitions.  ``--trace 1`` runs the workload once untraced and
once with the per-layer wrappers installed, reports the per-layer
ledger, and writes the full ledger (layer edges, messages and bytes per
network and mtype) to ``perfbench/out/``.  Every repetition of a seed
must reproduce the same simulated results and work counts; a mismatch
counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics: (name, unit).  Host-side first, then simulated.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("sim.op_p50_ms", "ms"),
    ("sim.op_tail_ms", "ms"),
    ("sim.msgs_per_node_s", "msg/s"),
    ("sim.bytes_per_node_s", "B/s"),
)

#: Set-ups timed per run: one per repetition (five per failover
#: repetition), topped up with set-up-only runs while time remains.
SETUPS_PER_RUN = 10

#: Simulated results every repetition of a seed must reproduce exactly.
SIM_KEYS = (
    "sim.op_p50_ms", "sim.op_tail_ms", "sim.op_samples", "sim.op_tail_pct",
    "sim.msgs_per_node_s", "sim.bytes_per_node_s", "sim.refresh_ms",
    "sim.fed_msgs_per_partition", "sim.detect_p50_ms",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Per-layer metrics reported by ``--trace 1``: (name, unit)."""
    from tracing import LAYERS

    metrics = []
    for layer in LAYERS:
        metrics += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    metrics += [
        ("sim.core.events", "count"),
        ("sim.core.ff_skipped", "count"),
        ("sim.core.us_per_event", "us"),
        ("cluster.network.msgs", "count"),
        ("cluster.network.bytes", "B"),
        ("cluster.network.delay_ms", "ms"),
        ("cluster.transport.rpc_retries", "count"),
        ("kernel.quiesce.skip_ratio", "ratio"),
        ("kernel.events.events_per_batch", "count"),
        ("kernel.group.failovers", "count"),
        ("setup.cluster_s", "s"),
        ("setup.boot_s", "s"),
        ("setup.warm_s", "s"),
        ("tracing_overhead_s", "s"),
        ("unattributed_s", "s"),
        ("sim.op_samples", "count"),
        ("sim.op_tail_pct", "%"),
        ("sim.refresh_ms", "ms"),
        ("sim.fed_msgs_per_partition", "count"),
        ("sim.detect_p50_ms", "ms"),
    ]
    return metrics


def deterministic(rep) -> dict[str, float]:
    """The results a repetition of the same seed must reproduce bit-for-bit."""
    return {**{k: rep.sim[k] for k in SIM_KEYS}, **rep.counts}


def mismatches(reference: dict[str, float], other: dict[str, float]) -> list[str]:
    return sorted(k for k in reference if other.get(k) != reference[k])


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, list, int, int]:
    """Repeat the workload for about ``seconds``, then spend what is left
    on extra set-ups (up to SETUPS_PER_RUN in all); returns (metrics,
    problems, attempted, failed)."""
    from workloads import Rep

    reps, rep_times = [], []
    begin = time.perf_counter()
    while True:
        gc.collect()  # each repetition starts from a clean heap, outside its timings
        started = time.perf_counter()
        reps.append(workload.run(seed))
        rep_times.append(time.perf_counter() - started)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(rep_times) > seconds:
            break
    setups = [s for rep in reps for s in rep.setup_s]
    while len(setups) < SETUPS_PER_RUN:
        if time.perf_counter() - begin + statistics.median(setups) > seconds:
            break
        gc.collect()
        extra = Rep()
        workload.setup(seed, extra)
        setups += extra.setup_s
    first = reps[0]
    problems = list(first.problems)
    failed = first.failed
    reference = deterministic(first)
    for i, rep in enumerate(reps[1:], start=2):
        bad = mismatches(reference, deterministic(rep))
        failed += len(bad)
        problems += [f"repetition {i} differs from repetition 1 on {k}" for k in bad]
    values = {
        "wall_s": statistics.median(rep.wall_s for rep in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": 1.0 - failed / first.attempted,
        **{k: first.sim[k] for k in SIM_KEYS},
    }
    print(f"repetitions: {len(reps)} (wall_s {', '.join(f'{r.wall_s:.3f}' for r in reps)}), "
          f"set-ups: {len(setups)}, operations: {first.attempted} attempted, {failed} failed; "
          f"op tail = p{first.sim['sim.op_tail_pct']:g} of "
          f"{first.sim['sim.op_samples']} samples")
    return values, problems, first.attempted, failed


def run_traced(name: str, run, seed: int) -> tuple[dict, list, int, int]:
    """One untraced and one traced repetition; returns the per-layer
    metrics, problems, attempted and failed."""
    import hostclock
    from tracing import LAYERS, Instrumentation

    hostclock.PROBING = False  # both runs in plain host seconds, like for like
    gc.collect()
    plain = run(seed)
    gc.collect()
    instr = Instrumentation()
    instr.install()
    try:
        traced = run(seed, instr)
    finally:
        instr.uninstall()
    problems = list(plain.problems)
    bad = mismatches(deterministic(plain), deterministic(traced))
    failed = plain.failed + len(bad)
    problems += [f"traced run differs from untraced run on {k}" for k in bad]

    ledger = traced.trace
    counts = plain.counts
    values: dict[str, float] = {}
    for layer in LAYERS:
        row = ledger["layers"][layer]
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.self_s"] = row["self_s"]
    events = counts["sim.core.events"]
    batches = counts["es.forward_batches"]
    values.update({
        "sim.core.events": events,
        "sim.core.ff_skipped": counts["sim.core.ff_skipped"],
        "sim.core.us_per_event": 1e6 * plain.wall_s / events if events else 0.0,
        "cluster.network.msgs": counts["cluster.network.msgs"],
        "cluster.network.bytes": counts["cluster.network.bytes"],
        "cluster.network.delay_ms":
            1000.0 * ledger["delay_sum"] / ledger["delivered"] if ledger["delivered"] else 0.0,
        "cluster.transport.rpc_retries": counts["cluster.transport.rpc_retries"],
        "kernel.quiesce.skip_ratio":
            ledger["skips"] / ledger["can_skip_calls"] if ledger["can_skip_calls"] else 0.0,
        "kernel.events.events_per_batch":
            counts["es.forward_batched_events"] / batches if batches else 0.0,
        "kernel.group.failovers": counts["kernel.group.failovers"],
        **plain.setup_parts,
        "tracing_overhead_s": traced.wall_s - plain.wall_s,
        "unattributed_s": ledger["wall_s"] - sum(r["self_s"] for r in ledger["layers"].values()),
        **{k: plain.sim[k] for k in ("sim.op_samples", "sim.op_tail_pct", "sim.refresh_ms",
                                     "sim.fed_msgs_per_partition", "sim.detect_p50_ms")},
    })
    write_ledger(name, seed, ledger, plain, traced, values)
    return values, problems, plain.attempted, failed


def write_ledger(workload: str, seed: int, ledger: dict, plain, traced, values: dict) -> None:
    """Write the traced run's full ledger as ``perfbench/out/<workload>-seed<n>.json``.

    Messages are per (network, mtype) as accepted by ``Network.transmit``;
    on fast-forward runs the heartbeats and exports replayed analytically
    never pass through it and appear as one ``(fast-forward replay)`` row,
    so the rows add up to the fabric counters.
    """
    messages = [
        {"network": net, "mtype": mtype, "msgs": n, "bytes": b}
        for (net, mtype), (n, b) in sorted(ledger["messages"].items(),
                                           key=lambda kv: (-kv[1][1], kv[0]))
    ]
    replay_msgs = traced.counts["cluster.network.msgs"] - sum(r["msgs"] for r in messages)
    replay_bytes = traced.counts["cluster.network.bytes"] - sum(r["bytes"] for r in messages)
    if replay_msgs:
        messages.append({"network": "*", "mtype": "(fast-forward replay)",
                         "msgs": replay_msgs, "bytes": replay_bytes})
    edges = [
        {"parent": p, "child": c, "spans": n, "total_s": s}
        for (p, c), (n, s) in sorted(ledger["edges"].items(), key=lambda kv: -kv[1][1])
    ]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
        "metrics": values,
        "layers": ledger["layers"],
        "edges": edges,
        "messages": messages,
    }, indent=1) + "\n")
    print(f"ledger written to {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.trace:
        values, problems, attempted, failed = run_traced(args.workload, workload.run, args.seed)
        units = dict(per_layer_metrics())
    else:
        values, problems, attempted, failed = run_untraced(workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    for problem in problems:
        print(f"problem: {problem}")
    for name, unit in units.items():
        print(f"{name:36s} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
