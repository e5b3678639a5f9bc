"""Split tables: the demultiplexing structure at every operator output.

"The output is a stream of tuples that is demultiplexed through a structure
we term a split table" (Section 2).  For a tuple bound for an N-process
join, the split table hashes the join attribute to a value in 1..N and
forwards the tuple to that process's port; result relations use a
round-robin split instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..catalog import gamma_hash
from ..errors import PlanError
from ..sim import Store
from ..storage import Schema
from .bitfilter import BitVectorFilter
from .ports import InputPort


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
    """Routes tuples to destinations by hash, round-robin, or singleton."""

    def __init__(
        self,
        destinations: Sequence[Destination],
        route: Callable[[tuple], Optional[int]],
        route_cost: float,
        kind: str,
        route_batch: Optional[
            Callable[[Sequence[tuple]], list[Any]]
        ] = None,
    ) -> None:
        if not destinations:
            raise PlanError("split table needs at least one destination")
        self.destinations = list(destinations)
        self.route = route
        self.route_cost = route_cost
        self.kind = kind
        self.filter: Optional[BitVectorFilter] = None
        # Batched routing: one call per packet instead of one per tuple.
        # Constructors install a specialized closure; the fallback simply
        # maps route() over the batch, so the destinations are identical
        # by construction.
        if route_batch is None:
            def route_batch(records: Sequence[tuple]) -> list[Any]:
                return [route(record) for record in records]
        self.route_batch = route_batch

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<SplitTable {self.kind} x{len(self.destinations)}>"

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
    ) -> "SplitTable":
        """Hash split on ``attr`` — the join redistribution path.

        With a bit-vector filter installed, tuples whose join attribute
        cannot be in the build side are dropped before routing.
        """
        pos = schema.position(attr)
        n = len(destinations)

        # gamma_hash, inlined into the closures: route() runs once per
        # emitted tuple, and the n > 0 precondition is established here
        # (destinations is non-empty) rather than re-checked per call.
        # The bucket arithmetic is bit-identical to gamma_hash.
        from ..catalog.partitioning import stable_hash

        from .columnar import BatchedBitProbe, hash_route_batch

        if bit_filter is None:
            def route(record: tuple) -> Optional[int]:
                value = record[pos]
                h = (
                    (hash(value) if type(value) is int else stable_hash(value))
                    * 2654435761
                ) & 0xFFFFFFFF
                h ^= h >> 17
                h = (h * 0x9E3779B1) & 0xFFFFFFFF
                h ^= h >> 13
                return h % n

            def route_batch(records: Sequence[tuple]) -> list[Any]:
                return hash_route_batch(records, pos, n)
        else:
            might_contain = bit_filter.might_contain
            batched_probe = BatchedBitProbe(
                bit_filter.n_bits, bit_filter._seeds, bit_filter._bits
            )

            def route(record: tuple) -> Optional[int]:
                value = record[pos]
                if not might_contain(value):
                    return None
                h = (
                    (hash(value) if type(value) is int else stable_hash(value))
                    * 2654435761
                ) & 0xFFFFFFFF
                h ^= h >> 17
                h = (h * 0x9E3779B1) & 0xFFFFFFFF
                h ^= h >> 13
                return h % n

            def route_batch(records: Sequence[tuple]) -> list[Any]:
                out: list[Any] = [None] * len(records)
                mask = batched_probe.test(records, pos)
                if mask is not None:
                    # Vector path: every value already passed the
                    # all-ints gate, so ``hash(value)`` is the fast case.
                    for i, keep in enumerate(mask):
                        if keep:
                            h = (
                                hash(records[i][pos]) * 2654435761
                            ) & 0xFFFFFFFF
                            h ^= h >> 17
                            h = (h * 0x9E3779B1) & 0xFFFFFFFF
                            h ^= h >> 13
                            out[i] = h % n
                    return out
                for i, record in enumerate(records):
                    value = record[pos]
                    if might_contain(value):
                        h = (
                            (
                                hash(value) if type(value) is int
                                else stable_hash(value)
                            )
                            * 2654435761
                        ) & 0xFFFFFFFF
                        h ^= h >> 17
                        h = (h * 0x9E3779B1) & 0xFFFFFFFF
                        h ^= h >> 13
                        out[i] = h % n
                return out

        table = cls(
            destinations, route, costs.split_hash, "hash",
            route_batch=route_batch,
        )
        table.filter = bit_filter
        return table

    @classmethod
    def by_function(
        cls,
        destinations: Sequence[Destination],
        schema: Schema,
        attr: str,
        fn: Callable[[Any], int],
        costs: Any,
        bit_filter: Optional[BitVectorFilter] = None,
    ) -> "SplitTable":
        """Split by an arbitrary value→index function.

        Used after a join-overflow hash switch: the scheduler installs the
        new subpartitioning function into the probing selections' split
        tables (Section 6.2.2).
        """
        pos = schema.position(attr)

        if bit_filter is None:
            def route(record: tuple) -> Optional[int]:
                return fn(record[pos])
        else:
            def route(record: tuple) -> Optional[int]:
                value = record[pos]
                if not bit_filter.might_contain(value):
                    return None
                return fn(value)

        table = cls(destinations, route, costs.split_hash, "function")
        table.filter = bit_filter
        return table

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

        def route(record: tuple) -> Optional[int]:
            return gamma_hash(tuple(record[p] for p in pos), n)

        return cls(destinations, route, costs.split_hash, "record-hash")

    @classmethod
    def round_robin(
        cls, destinations: Sequence[Destination]
    ) -> "SplitTable":
        """Round-robin split — the default for result relations."""
        n = len(destinations)
        state = {"next": 0}

        def route(record: tuple) -> Optional[int]:
            idx = state["next"]
            state["next"] = (idx + 1) % n
            return idx

        def route_batch(records: Sequence[tuple]) -> list[Any]:
            idx = state["next"]
            count = len(records)
            state["next"] = (idx + count) % n
            return [(idx + i) % n for i in range(count)]

        return cls(
            destinations, route, 0.0, "round-robin", route_batch=route_batch
        )

    @classmethod
    def single(cls, destination: Destination) -> "SplitTable":
        """Everything to one destination (host return, scalar collector)."""
        return cls(
            [destination], lambda record: 0, 0.0, "single",
            route_batch=lambda records: [0] * len(records),
        )
