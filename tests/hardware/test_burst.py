"""The interconnect's chains against the courier generators they stand for.

The reference is a test-local generator that serves a message's three
hops as three ``Use`` yields (the short-circuit as a ``Delay``), counting
the message on the interconnect as it goes; a courier is a process that
runs it and then ``Put``\\ s the message.  Everything the package ships —
a process waiting on ``transfer``, a fire-and-forget ``send``, a
``broadcast`` to many destinations — must be indistinguishable from the
reference in everything the simulated machine can see: when and in what
order each mailbox receives, every server's accounting and every
``Server.hooks`` call, every counter and the final clock.  They take
fewer kernel events to get there, and exactly as many fewer as the
scenario implies: a delivering chain has no resume after a ``Put`` (one
event and one sequence number per message), and a broadcast posts one
start event where its D couriers posted D.  A waiting ``transfer``
saves nothing.
"""

from dataclasses import dataclass
from typing import Any, Generator, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import GAMMA_NETWORK, Interconnect
from repro.sim import Delay, Get, Put, Simulation, Store, Use

SRC = "n0"
NODES = [f"n{i}" for i in range(6)]
REMOTE = ["n1", "n2", "n3", "n2", "n4", "n5"]  # n2 hosts two mailboxes

#: Where the same-node destination sits in the list (None: absent).
LAYOUTS = {
    "absent": None, "first": 0, "middle": 3, "last": len(REMOTE),
}


@dataclass(frozen=True)
class Address:
    node_name: str
    store: Store


def reference_transfer(
    net: Interconnect, src: str, dst: str, nbytes: int
) -> Generator[Any, Any, None]:
    """A message as three ``Use`` yields: the interconnect's former
    ``transfer`` body, kept here so the shipped chain is never its own
    reference."""
    if src == dst:
        net.messages_short_circuited += 1
        yield Delay(net.model.short_circuit_s)
        return
    net.messages_sent += 1
    net.bytes_on_ring += nbytes
    src_nic = net.interfaces[src]
    dst_nic = net.interfaces[dst]
    src_nic.messages += 1
    src_nic.bytes_sent += nbytes
    yield Use(
        src_nic.server,
        net.model.message_overhead_s + net.model.interface_time(nbytes),
    )
    yield Use(net.ring, net.model.ring_time(nbytes))
    yield Use(dst_nic.server, net.model.interface_time(nbytes))


class Wire:
    """One interconnect with its observers, driven the reference way
    (``shipped=False``) or through the package's own methods."""

    def __init__(self, nodes: list[str], shipped: bool) -> None:
        self.sim = Simulation()
        self.net = Interconnect(GAMMA_NETWORK, nodes)
        self.shipped = shipped
        self.deliveries: list[tuple[float, str, Any]] = []
        self.hook_calls: list[tuple[str, Optional[str], float, float]] = []
        self.servers = [self.net.ring] + [
            self.net.interfaces[n].server for n in nodes
        ]
        for server in self.servers:
            server.hooks = (self._hook,)

    def _hook(self, server: Any, who: Any, start: float, duration: float):
        # A courier process stands for the process that spawned it, as the
        # profiler's parent walk has it; a chain names that process itself.
        while who is not None and who.name == "courier":
            who = who.parent
        self.hook_calls.append(
            (server.name, None if who is None else who.name, start, duration)
        )

    def transfer(
        self, src: str, dst: str, nbytes: int
    ) -> Generator[Any, Any, None]:
        if self.shipped:
            yield from self.net.transfer(src, dst, nbytes)
        else:
            yield from reference_transfer(self.net, src, dst, nbytes)

    def courier(
        self, src: str, dest: Address, nbytes: int, message: Any
    ) -> Generator[Any, Any, None]:
        yield from self.transfer(src, dest.node_name, nbytes)
        yield Put(dest.store, message)

    def send(self, src: str, dest: Address, nbytes: int, message: Any):
        if self.shipped:
            self.net.send(
                self.sim, src, dest.node_name, nbytes, dest.store, message
            )
        else:
            self.sim.spawn(
                self.courier(src, dest, nbytes, message), name="courier"
            )

    def broadcast(
        self, src: str, dests: list[Address], nbytes: int, message: Any
    ):
        if self.shipped:
            self.net.broadcast(self.sim, src, dests, nbytes, message)
        else:
            for dest in dests:
                self.send(src, dest, nbytes, message)

    def consumer(self, store: Store, expected: int):
        for _ in range(expected):
            message = yield Get(store)
            self.deliveries.append((self.sim.now, store.name, message))

    def observed(self) -> dict[str, Any]:
        sim, net = self.sim, self.net
        return {
            "deliveries": self.deliveries,
            "hook_calls": self.hook_calls,
            "servers": {
                s.name: (
                    s.requests, s.busy_time, s.wait_stats.as_dict(),
                    s.mean_queue_length(sim.now), s.utilisation(sim.now),
                )
                for s in self.servers
            },
            "net": (
                net.messages_sent, net.messages_short_circuited,
                net.bytes_on_ring,
            ),
            "nics": {
                n: (iface.messages, iface.bytes_sent)
                for n, iface in net.interfaces.items()
            },
            "now": sim.now,
            "events": sim.events_processed,
            "seq": sim._seq,
        }


def _assert_saved(shipped: dict, reference: dict, saved: int) -> None:
    for counter in ("events", "seq"):
        assert shipped.pop(counter) == reference.pop(counter) - saved
    assert shipped == reference


# ---------------------------------------------------------------------------
# One contended close
# ---------------------------------------------------------------------------


def _scenario(mode: str, local_at: Any) -> dict[str, Any]:
    """One producer sends a 64-byte message to every destination in one
    step, on a sender interface busy with data messages, while a rival
    node keeps the ring and two receivers busy.  ``mode`` says how the
    64-byte messages go: ``generator`` (the reference, everything else
    too), ``wait`` (a courier process waiting on ``transfer``), ``fast``
    (one ``send`` each) or ``burst`` (one ``broadcast``)."""
    wire = Wire(NODES, shipped=mode != "generator")
    sim = wire.sim
    nodes = list(REMOTE)
    if local_at is not None:
        nodes.insert(local_at, SRC)
    dests = [
        Address(node, Store(f"box{i}@{node}")) for i, node in enumerate(nodes)
    ]
    remote = [dest for dest in dests if dest.node_name != SRC]

    def producer():
        yield Delay(0.001)
        # The sender interface is busy with one data message, a second
        # waits ahead of the burst and a third is issued right behind it.
        sim.spawn(wire.courier(SRC, remote[0], 2048, "data-in-service"),
                  name="courier")
        sim.spawn(wire.courier(SRC, remote[1], 2048, "data-ahead"),
                  name="courier")
        if mode == "burst":
            wire.broadcast(SRC, dests, 64, "eos")
        elif mode == "fast":
            for dest in dests:
                wire.send(SRC, dest, 64, "eos")
        else:
            for dest in dests:
                sim.spawn(wire.courier(SRC, dest, 64, "eos"), name="courier")
        sim.spawn(wire.courier(SRC, remote[2], 2048, "data-behind"),
                  name="courier")

    def rival():
        for i in range(12):
            yield from wire.transfer("n5", REMOTE[i % 2 + 1], 1024)

    sim.spawn(producer(), name="producer")
    sim.spawn(rival(), name="rival")
    for dest in dests:
        sim.spawn(
            wire.consumer(dest.store, 1 + (dest in remote[:3])),
            name=f"consumer@{dest.node_name}",
        )
    sim.run()
    return wire.observed()


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("mode", ["wait", "fast", "burst"])
def test_burst_is_indistinguishable_from_generator_couriers(mode, layout):
    reference = _scenario("generator", LAYOUTS[layout])
    shipped = _scenario(mode, LAYOUTS[layout])
    # One courier per destination delivers; a broadcast is one start event.
    destinations = len(REMOTE) + (layout != "absent")
    saved = {
        "wait": 0,
        "fast": destinations,
        "burst": 2 * destinations - 1,
    }[mode]
    _assert_saved(shipped, reference, saved)
    # The scenario really is the contended one the burst has to survive.
    sender = reference["servers"][f"{SRC}.nic"]
    assert sender[0] == len(REMOTE) + 3  # requests
    assert sender[2]["max"] > 0.0  # requests waited
    delivered = [message for _, _, message in reference["deliveries"]]
    assert delivered.count("eos") == destinations
    # Every interval was charged to a process: the producer's couriers
    # to the producer, the rival's messages to the rival.
    owners = {who for _, who, _, _ in reference["hook_calls"]}
    assert owners == {"producer", "rival"}


def test_burst_with_only_same_node_destinations():
    sim = Simulation()
    net = Interconnect(GAMMA_NETWORK, NODES)
    dests = [Address(SRC, Store(f"box{i}")) for i in range(3)]
    net.broadcast(sim, SRC, dests, 64, "eos")
    sim.run()
    assert [len(dest.store) for dest in dests] == [1, 1, 1]
    assert sim.now == GAMMA_NETWORK.short_circuit_s
    assert net.messages_short_circuited == 3 and net.messages_sent == 0
    assert net.interfaces[SRC].server.requests == 0


# ---------------------------------------------------------------------------
# Generated mixes
# ---------------------------------------------------------------------------

#: One action of a sender: (kind, pause before it, bytes, destination
#: node indices — one for wait/send, several for a broadcast).
_ACTION = st.tuples(
    st.sampled_from(["wait", "send", "broadcast"]),
    st.sampled_from([0.0, 0.0005, 0.004, 0.02]),
    st.integers(64, 8192),
    st.lists(st.integers(0, 5), min_size=1, max_size=5),
)


def _mix(
    n_nodes: int, senders: list[tuple[int, list[Any]]], shipped: bool
) -> tuple[dict[str, Any], int]:
    """Run the mix; return what the machine saw and the events the shipped
    path saves over the reference."""
    nodes = NODES[:n_nodes]
    wire = Wire(nodes, shipped)
    sim = wire.sim
    boxes = {node: Store(f"box@{node}") for node in nodes}
    expected = dict.fromkeys(nodes, 0)
    saved = 0
    plans: list[tuple[str, list[tuple[str, float, int, list[str]]]]] = []
    for s, (src_index, actions) in enumerate(senders):
        src = nodes[src_index % n_nodes]
        plan = []
        for kind, pause, nbytes, targets in actions:
            dsts = [nodes[t % n_nodes] for t in targets]
            if kind != "broadcast":
                dsts = dsts[:1]
            for dst in dsts:
                expected[dst] += 1
            saved += {"wait": 0, "send": 1}.get(kind, 2 * len(dsts) - 1)
            plan.append((kind, pause, nbytes, dsts))
        plans.append((src, plan))

    def sender(s: int, src: str, plan: list[Any]) -> Generator[Any, Any, None]:
        for a, (kind, pause, nbytes, dsts) in enumerate(plan):
            yield Delay(pause)
            message = f"s{s}.a{a}"
            dests = [Address(dst, boxes[dst]) for dst in dsts]
            if kind == "wait":
                yield from wire.transfer(src, dsts[0], nbytes)
                yield Put(boxes[dsts[0]], message)
            elif kind == "send":
                wire.send(src, dests[0], nbytes, message)
            else:
                wire.broadcast(src, dests, nbytes, message)

    for s, (src, plan) in enumerate(plans):
        sim.spawn(sender(s, src, plan), name=f"sender{s}")
    for node, box in boxes.items():
        sim.spawn(wire.consumer(box, expected[node]), name=f"consumer@{node}")
    sim.run()
    return wire.observed(), saved


@settings(max_examples=150, deadline=None)
@given(
    n_nodes=st.integers(4, 6),
    senders=st.lists(
        st.tuples(st.integers(0, 5), st.lists(_ACTION, min_size=1, max_size=5)),
        min_size=2, max_size=4,
    ),
)
def test_generated_mixes_match_the_generator_couriers(n_nodes, senders):
    reference, saved = _mix(n_nodes, senders, shipped=False)
    shipped, _ = _mix(n_nodes, senders, shipped=True)
    _assert_saved(shipped, reference, saved)
