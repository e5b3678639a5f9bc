"""``OutputPort.close`` as one burst: same machine, fewer live objects.

Every close — plain, profiled or traced — hands the interconnect one burst
(the per-destination generator couriers it stands for are the reference in
``tests/hardware/test_burst.py`` and ``test_observed_path.py``).  Watching
a run must not change what the machine is charged, a profile must still
find the operator behind each courier, and the burst must keep what the
producers × consumers storm holds alive proportional to the producers.
"""

import gc

import pytest

from repro.bench.harness import build_gamma, run_stored
from repro.engine.node import ExecutionContext
from repro.engine.ports import EOS_BYTES, InputPort, OutputPort
from repro.engine.split_table import Destination, SplitTable
from repro.hardware import GammaConfig
from repro.hardware.network import _FastCourier
from repro.workloads import wisconsin_schema
from repro.workloads.queries import join_abprime, selection_query

N = 4_000

QUERIES = {
    "selection": lambda into: selection_query("burstA", N, 0.01, into=into),
    "joinABprime": lambda into: join_abprime(
        "burstA", "burstBprime", key=False, into=into
    ),
}

#: Kernel events of the two 32-site queries, pinned exactly as
#: ``tests/storage/test_allocation.py`` pins tracked objects: event count
#: is how fast the simulator reaches a decision, so a change that adds
#: events fails here.  One start event per close burst and no resume
#: after a courier delivers took them from 8 677 and 38 918; a change
#: that removes more lowers the pin and says why.
EVENT_BUDGET = {"selection": 6_621, "joinABprime": 31_117}


def _machine():
    return build_gamma(
        GammaConfig.paper_default().with_sites(32),
        relations=[("burstA", N, "heap"), ("burstBprime", N // 10, "heap")],
    )


def test_event_budget_at_32_sites():
    machine = _machine()
    events = {
        name: run_stored(machine, make_query, name="burst_out")
        .stats["sim_events"]
        for name, make_query in QUERIES.items()
    }
    assert events == EVENT_BUDGET


def test_plain_and_profiled_runs_agree_at_32_sites():
    machine = _machine()
    for make_query in QUERIES.values():
        plain = run_stored(machine, make_query, name="burst_out")
        profiled = run_stored(
            machine, make_query, profile=True, name="burst_out"
        )
        assert plain.profile is None and profiled.profile is not None
        assert plain.response_time == profiled.response_time
        assert plain.utilisations == profiled.utilisations
        assert plain.stats == profiled.stats
        assert plain.stats["sim_events"] > plain.stats["control_messages"] > 32 * 32
        # An operator's packets and closes travel as couriers that are no
        # process; their time is still the operator's, not ``(other)``'s —
        # so each shipper holds the ring for longer than the one 64-byte
        # completion message per site its own processes send.
        profile = profiled.profile
        completion = machine.config.network.ring_time(EOS_BYTES)
        shippers = [s for s in profile.spans.values() if s.tuples_out]
        assert shippers
        for span in shippers:
            sites = len(profile.placements[span.op_id])
            assert span.by_node["ring"] > 2 * sites * completion, span.op_id


@pytest.mark.parametrize("consumers", ["same nodes", "other nodes"])
def test_a_close_storm_holds_one_entry_per_producer(consumers):
    side = 64
    config = GammaConfig.paper_default().with_sites(side)
    ctx = ExecutionContext(config)
    consumer_nodes = (
        ctx.disk_nodes if consumers == "same nodes" else ctx.diskless_nodes
    )
    ports = [
        InputPort(ctx, f"in{i}", node) for i, node in enumerate(consumer_nodes)
    ]
    destinations = [Destination(port.node.name, port) for port in ports]
    for port in ports:
        port.add_producer(side)
    for node in ctx.disk_nodes:
        split = SplitTable.by_hash(
            destinations, wisconsin_schema(), "unique2", config.costs
        )
        out = OutputPort(ctx, node, split, 208, f"out.{node.name}")
        ctx.sim.spawn(out.close())
    gc.collect()
    ctx.sim.run(until=0.0)  # every start event fires; the clock stands still

    remote = side - 1 if consumers == "same nodes" else side
    queues = [
        ctx.net.interfaces[node.name].server._queue for node in ctx.disk_nodes
    ]
    assert ctx.sim.now == 0.0
    assert ctx.stats["control_messages"] == side * side
    # One EndOfStream per pair is in service on each sender interface,
    # the rest wait — as one object per producer.
    assert [len(queue) for queue in queues] == [remote - 1] * side
    assert all(len({id(entry) for entry in queue}) == 1 for queue in queues)
    couriers = sum(type(obj) is _FastCourier for obj in gc.get_objects())
    # Only a same-node EndOfStream has a courier yet: one per producer.
    assert couriers == side * (side - remote)
