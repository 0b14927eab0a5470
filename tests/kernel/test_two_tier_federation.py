"""Two-tier federation (DESIGN.md §16): regions, aggregators, digests.

Covers the hierarchical topology end to end: the spec's positional
region grouping, the kernel's epoch-fenced aggregator election, the
event service's funnel routing (intra-region mesh, digested cross-region
hops through aggregators, one-hop ingress relay), delta digestion, and
the bulletin's region-scoped query / AS OF fan-out.
"""

import types

import pytest

from repro.cluster import Cluster, ClusterSpec, FaultInjector
from repro.errors import ClusterError
from repro.kernel import KernelTimings, PhoenixKernel
from repro.kernel.bulletin.query import Agg, Query
from repro.kernel.events import types as ev
from repro.kernel.events.digest import digest_batch
from repro.sim import Simulator
from tests.kernel.conftest import drive
from tests.kernel.test_events import publish, subscribe_collector


def boot_two_tier(seed=11, partitions=6, region_size=2, computes=2, until=1.0, **timing_kwargs):
    sim = Simulator(seed=seed)
    cluster = Cluster(
        sim, ClusterSpec.build(partitions=partitions, computes=computes, region_size=region_size)
    )
    # Health reporting populates the ``nodes`` logical table the query
    # tests read (same knob the query CLI's testbed uses).
    timing_kwargs.setdefault("health_report_interval", 2.5)
    kernel = PhoenixKernel(cluster, timings=KernelTimings(**timing_kwargs))
    kernel.boot()
    sim.run(until=until)
    return sim, cluster, kernel


# -- spec-level region topology ----------------------------------------------


def test_spec_regions_positional_grouping():
    spec = ClusterSpec.build(partitions=5, computes=1, region_size=2)
    assert spec.regions() == (("p0", "p1"), ("p2", "p3"), ("p4",))
    assert [spec.region_of(f"p{i}") for i in range(5)] == [0, 0, 1, 1, 2]


def test_spec_flat_is_one_region():
    spec = ClusterSpec.build(partitions=3, computes=1)
    assert spec.regions() == (("p0", "p1", "p2"),)
    assert spec.region_of("p2") == 0


def test_spec_region_size_validated():
    with pytest.raises(ClusterError):
        ClusterSpec.build(partitions=2, computes=1, region_size=0)


# -- kernel aggregator election ----------------------------------------------


def test_aggregator_election_first_present_per_region():
    sim, cluster, kernel = boot_two_tier(until=30.0)
    assert len(kernel.regions) == 3
    assert kernel.region_aggregators == {0: "p0", 1: "p2", 2: "p4"}
    assert kernel.is_aggregator("p2") and not kernel.is_aggregator("p3")
    assert kernel.region_partitions("p3") == ("p2", "p3")
    assert kernel.remote_aggregators("p2") == ["p0", "p4"]
    # One peer set, in configured partition order: the region mesh plus
    # the other regions' aggregators.
    assert kernel.federation_peers("p3") == ["p0", "p2", "p4"]
    assert kernel.federation_peers("p3", remote=False) == ["p2"]


def test_flat_mode_has_no_aggregators():
    sim = Simulator(seed=11)
    cluster = Cluster(sim, ClusterSpec.build(partitions=3, computes=2))
    kernel = PhoenixKernel(cluster)
    kernel.boot()
    sim.run(until=30.0)
    assert kernel.regions == (("p0", "p1", "p2"),)
    assert kernel.region_aggregators == {}
    assert sim.trace.records("region.aggregator") == []
    assert not kernel.is_aggregator("p0")
    assert kernel.remote_aggregators("p0") == []
    assert kernel.federation_peers("p1") == ["p0", "p2"]


def test_aggregator_election_is_epoch_fenced():
    sim, cluster, kernel = boot_two_tier(until=30.0)
    epoch = kernel._aggregator_epoch
    assert epoch > 0
    # A stale view (healed minority replaying history) cannot roll the
    # aggregator map backwards.
    stale = types.SimpleNamespace(
        epoch=epoch - 1, members=(("p1", "p1s0"), ("p3", "p3s0"), ("p5", "p5s0"))
    )
    kernel.note_view(stale)
    assert kernel.region_aggregators == {0: "p0", 1: "p2", 2: "p4"}
    # The same membership at a newer epoch does re-elect.
    fresh = types.SimpleNamespace(epoch=epoch + 1, members=stale.members)
    kernel.note_view(fresh)
    assert kernel.region_aggregators == {0: "p1", 1: "p3", 2: "p5"}


def test_aggregator_fails_over_on_server_crash():
    """Crashing the region-1 aggregator's server re-elects p3 (the
    region's next configured partition) once the meta-group evicts p2."""
    sim, cluster, kernel = boot_two_tier(
        until=30.0, heartbeat_interval=5.0, deadline_grace=0.1
    )
    assert kernel.region_aggregators[1] == "p2"
    FaultInjector(cluster).crash_node("p2s0")
    sim.run(until=sim.now + 60.0)
    marks = sim.trace.records("region.aggregator")
    assert any(r["region"] == 1 and r["partition"] == "p3" for r in marks)


# -- delta digestion ----------------------------------------------------------


def _delta(seq, key, value, table="nodes", partition="p0", epoch=1, op="put"):
    return {
        "event_id": f"e{seq}",
        "type": ev.DB_DELTA,
        "source": "p0s0",
        "partition": partition,
        "time": float(seq),
        "data": {
            "table": table, "partition": partition, "epoch": epoch,
            "seq": seq, "key": key, "op": op,
            "row": None if op == "del" else {"v": value}, "t": float(seq),
        },
        "span": "",
    }


def test_digest_folds_contiguous_run_keeping_latest_per_key():
    batch = [_delta(1, "a", 1), _delta(2, "b", 1), _delta(3, "a", 2)]
    out = digest_batch(batch)
    assert len(out) == 1
    digest = out[0]
    assert digest["type"] == ev.DB_DELTA_DIGEST
    assert digest["event_id"] == "e3+dig3"
    data = digest["data"]
    assert (data["seq_lo"], data["seq_hi"]) == (1, 3)
    # Intermediate version of "a" dropped; survivors in seq order.
    assert [(d["key"], d["seq"]) for d in data["deltas"]] == [("b", 2), ("a", 3)]
    assert data["deltas"][1]["row"] == {"v": 2}


def test_digest_gap_splits_runs_and_single_deltas_pass_through():
    batch = [_delta(1, "a", 1), _delta(2, "a", 2), _delta(4, "a", 4)]
    out = digest_batch(batch)
    assert [p["type"] for p in out] == [ev.DB_DELTA_DIGEST, ev.DB_DELTA]
    assert out[0]["data"]["seq_hi"] == 2
    assert out[1]["data"]["seq"] == 4  # lone run: plain delta, untouched


def test_digest_separates_streams_and_passes_foreign_events():
    other = {"event_id": "x1", "type": ev.APP_STARTED, "source": "n", "partition": "p1",
             "time": 0.0, "data": {}, "span": ""}
    batch = [
        _delta(1, "a", 1), other, _delta(2, "a", 2),
        _delta(1, "j", 9, table="jobs"),
    ]
    out = digest_batch(batch)
    # The nodes run folds (surfacing at its last member, after `other`);
    # the jobs stream is a lone delta and survives verbatim.
    assert [p["type"] for p in out] == [ev.APP_STARTED, ev.DB_DELTA_DIGEST, ev.DB_DELTA]
    assert out[2]["data"]["table"] == "jobs"


def test_digest_passes_epoch_announcement_through():
    """A restarted bulletin's epoch announcement (an empty digest) must
    cross a region hop verbatim and in place, between delta runs."""
    announce = {
        "event_id": "a1", "type": ev.DB_DELTA_DIGEST, "source": "p0b0", "partition": "p0",
        "time": 0.0, "span": "",
        "data": {"table": "nodes", "partition": "p0", "epoch": 2,
                 "seq_lo": 1, "seq_hi": 0, "deltas": [], "t": 0.0},
    }
    batch = [_delta(1, "a", 1, epoch=2), announce, _delta(2, "a", 2, epoch=2)]
    out = digest_batch(batch)
    assert out[0] is announce
    assert out[1]["type"] == ev.DB_DELTA_DIGEST and out[1]["data"]["seq_hi"] == 2


def test_digest_is_idempotent_on_digests():
    once = digest_batch([_delta(1, "a", 1), _delta(2, "a", 2)])
    assert digest_batch(list(once)) == once


# -- event service funnel routing ---------------------------------------------


def test_cross_region_event_delivered_once_via_aggregators():
    sim, cluster, kernel = boot_two_tier(until=30.0)
    inbox = subscribe_collector(
        kernel, sim, "p0c0", "c1", types=(ev.APP_STARTED,), partition="p0"
    )
    # Published five regions of hops away: p5's ES -> aggregator p4 ->
    # cross hop to aggregator p0 -> local delivery (+ relay into p1).
    publish(kernel, sim, "p5c0", ev.APP_STARTED, {"app": "x"}, partition="p5")
    sim.run(until=sim.now + 5.0)
    assert [e.data["app"] for e in inbox] == ["x"]
    assert sim.trace.counter("es.forward_batches_cross") > 0
    assert sim.trace.counter("es.forward_batches") > sim.trace.counter("es.forward_batches_cross")


def test_non_aggregator_partitions_open_no_cross_region_streams():
    """Every partition publishes; only aggregators talk across regions,
    so per-partition datagrams stay O(P/R + R), not O(P)."""
    sim, cluster, kernel = boot_two_tier(until=30.0)
    inboxes = [
        subscribe_collector(
            kernel, sim, f"p{i}c0", f"c{i}", types=(ev.APP_STARTED,), partition=f"p{i}"
        )
        for i in range(6)
    ]
    b0 = sim.trace.counter("es.forward_batches")
    for i in range(6):
        publish(kernel, sim, f"p{i}c1", ev.APP_STARTED, {"src": i}, partition=f"p{i}")
    sim.run(until=sim.now + 5.0)
    # Everyone still sees all six events exactly once...
    for inbox in inboxes:
        assert sorted(e.data["src"] for e in inbox) == list(range(6))
    # ...in fewer total datagrams than the flat all-pairs mesh would use.
    batches = sim.trace.counter("es.forward_batches") - b0
    assert batches < 6 * 5


# -- bulletin queries over the two-tier fabric --------------------------------


def test_global_query_full_coverage_through_region_fanout():
    sim, cluster, kernel = boot_two_tier(until=35.0)
    client = kernel.client("p3c0")
    reply = drive(sim, client.query_bulletin("node_metrics"), max_time=30.0)
    assert reply is not None and reply["partitions_missing"] == []
    assert len(reply["rows"]) == cluster.size
    assert set(reply["watermarks"]) == {f"p{i}" for i in range(6)}


def test_global_aggregate_composes_across_regions():
    sim, cluster, kernel = boot_two_tier(until=35.0)
    client = kernel.client("p0c0")
    reply = drive(
        sim, client.query_bulletin("node_metrics", aggregate=("cpu_pct",)), max_time=30.0
    )
    assert reply is not None and reply["partitions_missing"] == []
    agg = reply["aggregate"]["cpu_pct"]
    assert agg["count"] == cluster.size
    assert agg["min"] <= agg["sum"] / agg["count"] <= agg["max"]


def test_exec_query_group_by_covers_all_partitions():
    sim, cluster, kernel = boot_two_tier(until=35.0)
    client = kernel.client("p5c0")
    query = Query(table="nodes", group_by=("state",), aggs=(Agg("count", "*", "n"),))
    reply = drive(sim, client.exec_query(query), max_time=30.0)
    assert reply is not None
    assert sum(row["n"] for row in reply["rows"]) == cluster.size


def test_as_of_pulls_remote_regions_through_aggregator_summaries():
    sim, cluster, kernel = boot_two_tier(until=35.0)
    client = kernel.client("p0c0")
    # Checkpointing runs only under view-driven delta maintenance.
    reply = drive(sim, client.register_view("tt.nodes", Query(table="nodes")), max_time=30.0)
    assert reply and reply.get("ok")
    sim.run(until=sim.now + 30.0)
    past = drive(sim, client.exec_query(Query(table="nodes", as_of=sim.now - 2.0)), max_time=30.0)
    assert past is not None and past["partitions_missing"] == []
    assert len(past["rows"]) == cluster.size
    assert set(past["versions"]) == {f"p{i}" for i in range(6)}
    # Remote regions answered via DB_ASOF aggregator summaries, not 1:1 pulls.
    assert sim.trace.counter("db.asof_summaries") > 0
