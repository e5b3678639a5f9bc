"""Interconnect model: token ring, per-node network interfaces, messages.

Gamma's 80 Mbit/s Proteon token ring is never the bottleneck (the paper says
so explicitly); the 4 Mbit/s Unibus path between a VAX's memory and its ring
interface is.  The model therefore charges every inter-node message to three
FIFO servers — sender interface, shared ring, receiver interface — while
messages between processes on the *same* node are "short-circuited" by the
communications software and only pay a small CPU-side copy cost.

One method, ``Interconnect._hops``, counts a message and lists that path
as ``(server, seconds)`` hops (the short-circuit a plain delay); one
:class:`~repro.sim.Chain` serves the hops in turn, then resumes the
sending process or delivers the message into its mailbox.  A port close
shares the sender-interface hop of its D messages (``_Burst``).

The paper's two anchor numbers are honoured:

* "Assuming seven milliseconds for a small inter-node message" — the fixed
  protocol overhead charged at the sender interface.
* 2 KB network packets moving through a 4 Mbit/s interface ⇒ ~4.1 ms of
  interface occupancy per packet, which is what throttles high-selectivity
  queries (Figures 2, 5, 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Sequence

from ..errors import ConfigError
from ..sim import Chain, Server


@dataclass(frozen=True)
class NetworkModel:
    """Timing parameters for the interconnect.

    Attributes:
        ring_bandwidth: Shared ring bandwidth, bytes/second.
        interface_bandwidth: Per-node memory-to-network path, bytes/second.
        message_overhead_s: Fixed protocol cost per message at the sender.
        short_circuit_s: Cost of an intra-node message (software copy).
    """

    ring_bandwidth: float = 80e6 / 8
    interface_bandwidth: float = 4e6 / 8
    message_overhead_s: float = 0.0055
    short_circuit_s: float = 0.0006

    def __post_init__(self) -> None:
        if self.ring_bandwidth <= 0 or self.interface_bandwidth <= 0:
            raise ConfigError("bandwidths must be positive")
        if self.message_overhead_s < 0 or self.short_circuit_s < 0:
            raise ConfigError("overheads must be non-negative")

    def ring_time(self, nbytes: int) -> float:
        return nbytes / self.ring_bandwidth

    def interface_time(self, nbytes: int) -> float:
        return nbytes / self.interface_bandwidth


class NetworkInterface:
    """The per-node memory↔network path (a Unibus on Gamma)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.server = Server(f"{name}.nic")
        self.messages = 0
        self.bytes_sent = 0


class Interconnect:
    """A shared ring plus one :class:`NetworkInterface` per node.

    Every message is one :class:`~repro.sim.Chain` over the hops
    :meth:`_hops` lists, sent one of three ways:

    * :meth:`transfer` — the sending process waits for as long as the
      message occupies the sender interface, the ring and the receiver
      interface in turn, which is exactly the latency a Gamma operator
      experiences before it can reuse its output buffer;
    * :meth:`send` — fire and forget: the message is delivered into a
      store and nobody waits (data packets);
    * :meth:`broadcast` — :meth:`send` of one message to many
      destinations in one step (a port close).
    """

    def __init__(self, model: NetworkModel, node_names: list[str]) -> None:
        self.model = model
        self.ring = Server("ring")
        self.interfaces: dict[str, NetworkInterface] = {}
        for name in node_names:
            if name in self.interfaces:
                raise ConfigError(f"duplicate node name {name!r}")
            self.interfaces[name] = NetworkInterface(name)
        self.messages_sent = 0
        self.messages_short_circuited = 0
        self.bytes_on_ring = 0

    def _hops(
        self, src: str, dst: str, nbytes: int
    ) -> tuple[tuple[Optional[Server], float], ...]:
        """Count one message from ``src`` to ``dst`` and list its hops.

        Same-node messages are short-circuited: a fixed small delay, no
        interface or ring occupancy (matching Section 2 of the paper).
        """
        model = self.model
        if src == dst:
            self.messages_short_circuited += 1
            return ((None, model.short_circuit_s),)
        self.messages_sent += 1
        self.bytes_on_ring += nbytes
        src_nic = self.interfaces[src]
        src_nic.messages += 1
        src_nic.bytes_sent += nbytes
        iface_time = model.interface_time(nbytes)
        return (
            (src_nic.server, model.message_overhead_s + iface_time),
            (self.ring, model.ring_time(nbytes)),
            (self.interfaces[dst].server, iface_time),
        )

    def transfer(
        self, src: str, dst: str, nbytes: int
    ) -> Generator[Any, Any, None]:
        """Move ``nbytes`` from node ``src`` to node ``dst`` while the
        calling process waits: ``yield from net.transfer(...)``."""
        yield Chain(self._hops(src, dst, nbytes))

    def send(
        self,
        sim: Any,
        src: str,
        dst: str,
        nbytes: int,
        store: Any,
        message: Any,
    ) -> None:
        """Fire-and-forget transfer delivering ``message`` into ``store``.

        Timeline-identical to spawning a courier process around
        :meth:`transfer` followed by ``Put(store, message)``: the same
        server ``_use`` calls at the same simulated times in the same
        relative sequence order, and the message reaches the store at
        the same (time, seq) — without a :class:`~repro.sim.Process`,
        which the simulation's process list would retain (a million
        finished couriers at 1000 sites).  ``events_processed`` is one
        lower per message: the chain has no resume after a ``Put``.

        Couriers cannot deadlock (input-port stores are unbounded), so the
        lost deadlock diagnostics are moot.  The chain's ``owner`` is the
        process dispatching it — what ``spawn`` would have recorded as the
        courier's parent — so a profiler attributes its service intervals
        to the same operator.
        """
        # The start event is the spawn-resume that started the courier.
        sim._schedule_now(Chain(
            self._hops(src, dst, nbytes), sim, sim._current, store, message
        ))

    def broadcast(
        self,
        sim: Any,
        src: str,
        destinations: Sequence[Any],
        nbytes: int,
        message: Any,
    ) -> None:
        """:meth:`send` of one ``message`` to every destination.

        Each destination names its node (``node_name``) and its mailbox
        (``store``).  Timeline-identical to one :meth:`send` per
        destination issued in list order with no yield in between — see
        :class:`_Burst` — but what waits on the sender interface is one
        object however long the list is, and the D start events are one.
        """
        _Burst(self, sim, src, destinations, nbytes, message)


class _Burst:
    """One message to many destinations, issued in a single kernel event.

    Stands for one :meth:`Interconnect.send` chain per destination.  It
    posts one start event where those chains posted D; when it fires,
    :meth:`_start` issues every destination's first hop in list order —
    the sender-interface ``Use``, or for a same-node destination the
    chain of its short-circuit delay and delivery.  Every waiting ``Use``
    is the *same* queue entry, so the sender interface holds one object
    for the whole burst, and a remote message gets a chain of its own
    (ring, receiver interface, delivery) only when it comes off the
    sender interface.  The burst is the ``resume`` of every one of its
    sender-interface requests, and it counts its messages once, in bulk.

    Why the timeline is the chains' (DESIGN §5.9, "The close burst"):
    the D start events held consecutive sequence numbers and scheduled
    only future or later-sequenced work, so nothing ran between them and
    one event doing all D starts draws the same relative order; the
    sender interface serves equal-duration requests first come first
    served, so the burst's k-th completion is the k-th remote
    destination's; and ``Server._complete`` starts the next queued
    request before it calls ``resume``, so the next completion is
    scheduled before this message's ring ``Use`` exactly as before.
    """

    __slots__ = (
        "net", "sim", "owner", "src", "destinations", "sent",
        "entry", "ring_s", "receiver_s", "message",
    )

    def __init__(
        self,
        net: Interconnect,
        sim: Any,
        src: str,
        destinations: Sequence[Any],
        nbytes: int,
        message: Any,
    ) -> None:
        model = net.model
        src_nic = net.interfaces[src]
        remote = sum(dest.node_name != src for dest in destinations)
        net.messages_short_circuited += len(destinations) - remote
        net.messages_sent += remote
        net.bytes_on_ring += remote * nbytes
        src_nic.messages += remote
        src_nic.bytes_sent += remote * nbytes
        self.net = net
        self.sim = sim
        # The closing process: it owns every message of the burst.
        self.owner = sim._current
        self.src = src
        self.destinations = destinations
        self.sent = 0  # index after the last destination off the sender
        self.receiver_s = model.interface_time(nbytes)
        self.ring_s = model.ring_time(nbytes)
        # The start event fires at the instant it is posted, so this is
        # the enqueue time Server._use would stamp on each request.
        self.entry = (
            model.message_overhead_s + self.receiver_s, self, sim.now, None
        )
        self.message = message
        if destinations:
            sim._schedule_now(self._start)

    def _start(self) -> None:
        """Issue every destination's first hop, in list order."""
        sim = self.sim
        src = self.src
        sender = self.net.interfaces[src].server
        entry = self.entry
        local = ((None, self.net.model.short_circuit_s),)
        for dest in self.destinations:
            if dest.node_name == src:
                Chain(local, sim, self.owner, dest.store, self.message)()
            else:
                sender._use_entry(sim, entry)

    def __call__(self, _value: Any = None) -> None:
        # A message came off the sender interface: the next remote one.
        destinations = self.destinations
        src = self.src
        i = self.sent
        while destinations[i].node_name == src:
            i += 1
        self.sent = i + 1
        dest = destinations[i]
        net = self.net
        Chain(
            (
                (net.ring, self.ring_s),
                (net.interfaces[dest.node_name].server, self.receiver_s),
            ),
            self.sim, self.owner, dest.store, self.message,
        )()


#: Gamma's Proteon 80 Mbit/s token ring behind 4 Mbit/s Unibus interfaces.
GAMMA_NETWORK = NetworkModel()

#: The Teradata Y-net: 12 MB/s aggregate, generous per-node injection rate
#: (the Y-net is a combining tree, so the shared stage dominates).
YNET_NETWORK = NetworkModel(
    ring_bandwidth=12e6,
    interface_bandwidth=1.5e6,
    message_overhead_s=0.004,
    short_circuit_s=0.0006,
)
