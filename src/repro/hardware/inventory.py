"""Each machine's hardware, listed once.

An :class:`Inventory` is the one place a machine names its servers for
the instrumentation planes.  Every row is a server with the node it sits
on, its lane on that node and its resource class (``cpu``, ``disk`` or
``net``):

* the trace draws one swim-lane per row (process = node, thread = lane);
* the profiler splits busy time by the row's resource class and node;
* the telemetry sampler builds its cluster groups, machine-wide network
  series and per-site lanes from the rows;
* utilisations are keyed ``node.lane`` — just ``node`` when the node is
  its own lane (``ring``, ``ynet``).

The planes subscribe through the servers' one hook slot
(:attr:`repro.sim.Server.hooks`); nothing else walks a machine's
servers to observe them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.kernel import Simulation
    from ..sim.resources import Server, ServiceHook


class InventoryRow(NamedTuple):
    """One hardware server and where the planes show it."""

    server: "Server"
    node: str
    lane: str
    resource: str

    @property
    def key(self) -> str:
        """``node.lane``, or ``node`` when the node is its own lane."""
        if self.node == self.lane:
            return self.node
        return f"{self.node}.{self.lane}"


class Inventory:
    """The servers of one simulated machine, in wiring order.

    ``sites`` names the data sites — the nodes that get per-site
    telemetry lanes on a small machine (Gamma's disk sites, the
    DBC/1012's AMPs).
    """

    def __init__(
        self,
        sim: "Simulation",
        rows: Sequence[InventoryRow],
        sites: Sequence[str],
    ) -> None:
        self.sim = sim
        self.rows = tuple(rows)
        self.sites = tuple(sites)

    def subscribe(self, hook: "ServiceHook") -> None:
        """Add ``hook`` to every listed server's hooks."""
        for row in self.rows:
            row.server.hooks += (hook,)

    def utilisations(self) -> dict[str, float]:
        """``{row.key: busy fraction}`` up to the simulation's clock."""
        now = self.sim.now
        return {row.key: row.server.utilisation(now) for row in self.rows}
