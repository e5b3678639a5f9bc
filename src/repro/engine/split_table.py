"""Split tables: the demultiplexing structure at every operator output.

"The output is a stream of tuples that is demultiplexed through a structure
we term a split table" (Section 2).  For a tuple bound for an N-process
join, the split table hashes the join attribute to a value in 1..N and
forwards the tuple to that process's port; result relations use a
round-robin split instead.  A split table routes one packet's batch of
tuples at a time; every value-routed split goes through the exchange's
:func:`~repro.engine.skew.router`, the same router Teradata's
redistribution uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..catalog import gamma_hash
from ..errors import PlanError
from ..sim import Store
from ..storage import Schema
from .bitfilter import BitVectorFilter
from .ir import Exchange, ExchangeKind
from .ports import InputPort
from .skew import BatchRoute, router


@dataclass(frozen=True)
class Destination:
    """One split-table entry: the address of a receiving process."""

    node_name: str
    port: InputPort

    @property
    def store(self) -> Store:
        """The mailbox messages for this process are put into."""
        return self.port.store


class SplitTable:
    """Routes batches of tuples to destinations: by value, by whole
    record, round-robin, or all to one destination.

    ``route_batch(records)`` returns one destination per record — a
    destination index, None for a tuple the bit filter drops, or a tuple
    of indices for a broadcast hot key — and ``route_cost`` is the CPU
    an :class:`~repro.engine.ports.OutputPort` charges per routed tuple.
    ``destinations`` is kept as a tuple: given one (an exchange's, which
    the driver builds once), every producer's table shares it.
    """

    def __init__(
        self,
        destinations: Sequence[Destination],
        route_batch: Callable[[Sequence[tuple]], list[Any]],
        route_cost: float,
    ) -> None:
        if not destinations:
            raise PlanError("split table needs at least one destination")
        self.destinations = tuple(destinations)
        self.route_batch = route_batch
        self.route_cost = route_cost

    def route(self, record: tuple) -> Any:
        """One record's destination, as :attr:`route_batch` gives it.
        Production code routes whole batches."""
        return self.route_batch((record,))[0]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def by_hash(
        cls,
        destinations: Sequence[Destination],
        schema: Schema,
        attr: str,
        costs: Any,
        bit_filter: Optional[BitVectorFilter] = None,
        route: Optional[BatchRoute] = None,
    ) -> "SplitTable":
        """Split on the value of ``attr`` — the join redistribution path.

        ``route`` is the exchange's batch router
        (:func:`~repro.engine.skew.router`, or the join's post-overflow
        hash switch); without one the split is Gamma's plain hash.  With
        a bit-vector filter installed, tuples whose value cannot be in
        the build side are dropped (routed to None) and only the kept
        tuples are routed, in order — so a hot-spray cursor advances for
        kept tuples only.
        """
        pos = schema.position(attr)
        if route is None:
            route = router(
                Exchange(ExchangeKind.HASH, attr=attr), len(destinations)
            )
        if bit_filter is None:
            def route_batch(records: Sequence[tuple]) -> list[Any]:
                return route(records, pos)
        else:
            might_contain_batch = bit_filter.might_contain_batch

            def route_batch(records: Sequence[tuple]) -> list[Any]:
                keep = might_contain_batch([record[pos] for record in records])
                kept = [record for record, ok in zip(records, keep) if ok]
                dests = iter(route(kept, pos))
                return [next(dests) if ok else None for ok in keep]

        return cls(destinations, route_batch, costs.split_hash)

    @classmethod
    def by_record_hash(
        cls,
        destinations: Sequence[Destination],
        positions: Sequence[int],
        costs: Any,
    ) -> "SplitTable":
        """Hash on a combination of attributes (the whole projected tuple).

        Used for duplicate-eliminating projections: identical projected
        tuples must meet at the same node."""
        n = len(destinations)
        pos = tuple(positions)

        def route_batch(records: Sequence[tuple]) -> list[Any]:
            return [
                gamma_hash(tuple(record[p] for p in pos), n)
                for record in records
            ]

        return cls(destinations, route_batch, costs.split_hash)

    @classmethod
    def round_robin(
        cls, destinations: Sequence[Destination]
    ) -> "SplitTable":
        """Round-robin split — the default for result relations.  Each
        batch continues where the previous one left off."""
        n = len(destinations)
        state = {"next": 0}

        def route_batch(records: Sequence[tuple]) -> list[Any]:
            idx = state["next"]
            count = len(records)
            state["next"] = (idx + count) % n
            return [(idx + i) % n for i in range(count)]

        return cls(destinations, route_batch, 0.0)

    @classmethod
    def single(cls, destination: Destination) -> "SplitTable":
        """Everything to one destination (host return, scalar collector)."""
        return cls(
            (destination,), lambda records: [0] * len(records), 0.0
        )
