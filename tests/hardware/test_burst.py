"""``Interconnect.transfer_burst`` against the courier generators it stands for.

One producer sends the same 64-byte message to every destination in one
process step.  The reference is one generator courier (``transfer`` then
``Put``) per destination; the burst — and the per-destination callback
courier, ``transfer_fast`` — must be indistinguishable from it in
everything the simulated machine can see: when and in what order each
mailbox receives, every server's accounting, every counter and the final
clock.  They take fewer kernel events to get there, and exactly as many
fewer as the scenario implies: a callback courier delivers without the
generator's resume after its ``Put`` (one event and one sequence number
per message), and a burst posts one start event where its D couriers
posted D.
"""

from dataclasses import dataclass
from typing import Any

import pytest

from repro.hardware import GAMMA_NETWORK, Interconnect
from repro.sim import Delay, Get, Put, Simulation, Store

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


def _scenario(mode: str, local_at: Any) -> dict[str, Any]:
    sim = Simulation()
    net = Interconnect(GAMMA_NETWORK, NODES)
    nodes = list(REMOTE)
    if local_at is not None:
        nodes.insert(local_at, SRC)
    dests = [
        Address(node, Store(f"box{i}@{node}")) for i, node in enumerate(nodes)
    ]
    remote = [dest for dest in dests if dest.node_name != SRC]
    deliveries: list[tuple[float, str, Any]] = []

    def courier(src: str, dest: Address, nbytes: int, message: Any):
        yield from net.transfer(src, dest.node_name, nbytes)
        yield Put(dest.store, message)

    def consumer(dest: Address, expected: int):
        for _ in range(expected):
            message = yield Get(dest.store)
            deliveries.append((sim.now, dest.store.name, message))

    def producer():
        yield Delay(0.001)
        # The sender interface is busy with one data message, a second
        # waits ahead of the burst and a third is issued right behind it.
        sim.spawn(courier(SRC, remote[0], 2048, "data-in-service"))
        sim.spawn(courier(SRC, remote[1], 2048, "data-ahead"))
        if mode == "burst":
            net.transfer_burst(sim, SRC, dests, 64, "eos")
        elif mode == "fast":
            for dest in dests:
                net.transfer_fast(
                    sim, SRC, dest.node_name, 64, dest.store, "eos"
                )
        else:
            for dest in dests:
                sim.spawn(courier(SRC, dest, 64, "eos"))
        sim.spawn(courier(SRC, remote[2], 2048, "data-behind"))

    def rival():
        # Another node keeps the ring and two receiver interfaces busy
        # while the burst drains.
        for i in range(12):
            yield from net.transfer("n5", REMOTE[i % 2 + 1], 1024)

    sim.spawn(producer())
    sim.spawn(rival())
    for dest in dests:
        sim.spawn(consumer(dest, 1 + (dest in remote[:3])))
    sim.run()

    servers = [net.ring] + [net.interfaces[n].server for n in NODES]
    return {
        "deliveries": deliveries,
        "servers": {
            s.name: (
                s.requests, s.busy_time, s.wait_stats.as_dict(),
                s.mean_queue_length(sim.now), s.utilisation(sim.now),
            )
            for s in servers
        },
        "net": (
            net.messages_sent, net.messages_short_circuited,
            net.bytes_on_ring,
        ),
        "nics": {
            n: (net.interfaces[n].messages, net.interfaces[n].bytes_sent)
            for n in NODES
        },
        "now": sim.now,
        "events": sim.events_processed,
        "seq": sim._seq,
    }


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("mode", ["burst", "fast"])
def test_burst_is_indistinguishable_from_generator_couriers(mode, layout):
    reference = _scenario("generator", LAYOUTS[layout])
    shipped = _scenario(mode, LAYOUTS[layout])
    # One courier per destination delivers; a burst is one start event.
    destinations = len(REMOTE) + (layout != "absent")
    saved = destinations + (destinations - 1 if mode == "burst" else 0)
    for counter in ("events", "seq"):
        assert shipped.pop(counter) == reference.pop(counter) - saved
    assert shipped == reference
    # The scenario really is the contended one the burst has to survive.
    sender = reference["servers"][f"{SRC}.nic"]
    assert sender[0] == len(REMOTE) + 3  # requests
    assert sender[2]["max"] > 0.0  # requests waited
    delivered = [message for _, _, message in reference["deliveries"]]
    assert delivered.count("eos") == len(REMOTE) + (layout != "absent")


def test_burst_with_only_same_node_destinations():
    sim = Simulation()
    net = Interconnect(GAMMA_NETWORK, NODES)
    dests = [Address(SRC, Store(f"box{i}")) for i in range(3)]
    net.transfer_burst(sim, SRC, dests, 64, "eos")
    sim.run()
    assert [len(dest.store) for dest in dests] == [1, 1, 1]
    assert sim.now == GAMMA_NETWORK.short_circuit_s
    assert net.messages_short_circuited == 3 and net.messages_sent == 0
    assert net.interfaces[SRC].server.requests == 0
