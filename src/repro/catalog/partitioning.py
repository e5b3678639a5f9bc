"""Horizontal partitioning (declustering) strategies.

Gamma supports four ways of distributing the tuples of a relation across
all disk drives (Section 2 of the paper): round-robin, hashed, range
partitioned with user-specified key ranges, and range partitioned with
uniform distribution.  The same hash function is used at load time and at
join time — the property behind the Local-join short-circuit advantage in
Figures 9/10.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import Any, Optional, Sequence
from zlib import crc32

from ..errors import CatalogError
from ..storage import Schema


def stable_hash(value: Any) -> int:
    """A process-stable replacement for builtin ``hash``.

    Python salts ``str``/``bytes`` hashing per process (``PYTHONHASHSEED``),
    so any partitioning decision derived from ``hash("...")`` differs
    between the parent and the ``run_sweep`` worker processes — and between
    runs.  Integers (and tuples of integers) hash identically everywhere,
    so they keep the builtin path bit-for-bit; salted types are routed
    through crc32 of their UTF-8 bytes instead.
    """
    if type(value) is int:
        # The dominant case (Wisconsin attributes): identical to the
        # fall-through ``hash(value)`` below, minus the isinstance ladder.
        return hash(value)
    if isinstance(value, str):
        return crc32(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return crc32(bytes(value))
    if isinstance(value, tuple):
        return hash(tuple(stable_hash(v) for v in value))
    return hash(value)


def gamma_mix(value: Any) -> int:
    """The 32-bit mix that :func:`gamma_hash` reduces modulo its bucket
    count: ``gamma_hash(v, n) == gamma_mix(v) % n`` for every ``n``.

    This is the definition.  Two hot paths repeat it for speed, and
    ``tests/engine/test_columnar.py`` holds them to it:
    :func:`~repro.engine.columnar.hash_route_batch`'s loop over small or
    mixed batches, and :func:`~repro.engine.columnar.gamma_mix_array`
    over large all-int ones.  A caller that needs several bucketings of
    one value (the DBC/1012 load derives both the AMP and the hash-key
    storage order of a tuple from its key) mixes the value once.
    """
    h = (
        (hash(value) if type(value) is int else stable_hash(value))
        * 2654435761
    ) & 0xFFFFFFFF
    # Fold the high bits down so that regular key patterns (multiples of
    # 100, say) cannot alias with small bucket counts.
    h ^= h >> 17
    h = (h * 0x9E3779B1) & 0xFFFFFFFF
    h ^= h >> 13
    return h


def gamma_hash(value: Any, n_buckets: int) -> int:
    """The randomising function applied to partitioning/join attributes.

    A deterministic multiplicative hash (Knuth) — stable across runs and
    across processes (see :func:`stable_hash`), well mixed for the
    Wisconsin integer attributes, and shared by the load path, the split
    tables and the join operators.
    """
    if n_buckets <= 0:
        raise CatalogError("hash needs at least one bucket")
    return gamma_mix(value) % n_buckets


class PartitioningStrategy(ABC):
    """Maps each tuple of a relation to a home site."""

    #: Strategy name used in catalogs and reports.
    kind: str = "abstract"

    @abstractmethod
    def prepare(self, records: Sequence[tuple], schema: Schema, n_sites: int) -> None:
        """Inspect the load set (needed by uniform-range) before assigning."""

    @abstractmethod
    def site_of(self, record: tuple, n_sites: int) -> int:
        """Home site of ``record``."""

    def sites_of(self, records: Sequence[tuple], n_sites: int) -> list[int]:
        """Home site of each of ``records``, in order — what calling
        :meth:`site_of` on one after the other returns."""
        site_of = self.site_of
        return [site_of(record, n_sites) for record in records]

    def site_for_key(self, value: Any, n_sites: int) -> Optional[int]:
        """Site holding key ``value``, when derivable (hash/range only).

        Returning a site lets the scheduler direct an exact-match selection
        to a single processor, the optimisation behind Gamma's 0.15-0.20 s
        single-tuple selects in Table 1.
        """
        return None

    def sites_for_range(
        self, low: Any, high: Any, n_sites: int
    ) -> Optional[list[int]]:
        """Sites that may hold keys in [low, high], when derivable.

        Only range declustering can prune sites for a range predicate —
        one of its advantages over hashing that [RIES78] evaluates.
        """
        return None

    def partition(
        self, records: Sequence[tuple], schema: Schema, n_sites: int
    ) -> list[list[tuple]]:
        """Split ``records`` into one bucket per site."""
        if n_sites < 1:
            raise CatalogError("need at least one site")
        self.prepare(records, schema, n_sites)
        buckets: list[list[tuple]] = [[] for _ in range(n_sites)]
        for record in records:
            buckets[self.site_of(record, n_sites)].append(record)
        return buckets


class RoundRobin(PartitioningStrategy):
    """Tuples dealt to sites in rotation — the default for query results."""

    kind = "round-robin"

    def __init__(self) -> None:
        self._counter = 0

    def prepare(self, records: Sequence[tuple], schema: Schema, n_sites: int) -> None:
        self._counter = 0

    def site_of(self, record: tuple, n_sites: int) -> int:
        site = self._counter % n_sites
        self._counter += 1
        return site


class Hashed(PartitioningStrategy):
    """A randomising function applied to the key attribute picks the site."""

    kind = "hashed"

    def __init__(self, attr: str) -> None:
        self.attr = attr
        self._pos: Optional[int] = None

    def prepare(self, records: Sequence[tuple], schema: Schema, n_sites: int) -> None:
        self._pos = schema.position(self.attr)

    def bind(self, schema: Schema) -> "Hashed":
        """Resolve the attribute position without a load set."""
        self._pos = schema.position(self.attr)
        return self

    def site_of(self, record: tuple, n_sites: int) -> int:
        if self._pos is None:
            raise CatalogError("Hashed strategy not prepared/bound")
        return gamma_hash(record[self._pos], n_sites)

    def sites_of(self, records: Sequence[tuple], n_sites: int) -> list[int]:
        if self._pos is None:
            raise CatalogError("Hashed strategy not prepared/bound")
        # Lazy for the same layering reason as in :meth:`partition`.
        from ..engine.columnar import hash_route_batch

        return hash_route_batch(records, self._pos, n_sites)

    def site_for_key(self, value: Any, n_sites: int) -> Optional[int]:
        return gamma_hash(value, n_sites)

    def partition(
        self, records: Sequence[tuple], schema: Schema, n_sites: int
    ) -> list[list[tuple]]:
        """Batched load-time declustering: one vectorized hash pass.

        Same bucket contents and order as the per-record base-class loop
        (``hash_route_batch`` matches ``gamma_hash`` bit for bit).
        """
        if n_sites < 1:
            raise CatalogError("need at least one site")
        self.prepare(records, schema, n_sites)
        # Imported lazily: engine.columnar sits above catalog in the
        # layering, and only this method crosses that boundary.
        from ..engine.columnar import partition_batch

        return partition_batch(records, self._pos, n_sites)


class RangePartitioned(PartitioningStrategy):
    """User-specified key ranges: site ``i`` holds keys <= boundaries[i]
    (the last site takes everything above the final boundary)."""

    kind = "range"

    def __init__(self, attr: str, boundaries: Sequence[Any]) -> None:
        if not boundaries:
            raise CatalogError("range partitioning needs boundaries")
        if list(boundaries) != sorted(boundaries):
            raise CatalogError("range boundaries must be sorted")
        self.attr = attr
        self.boundaries = list(boundaries)
        self._pos: Optional[int] = None

    def prepare(self, records: Sequence[tuple], schema: Schema, n_sites: int) -> None:
        if len(self.boundaries) != n_sites - 1:
            raise CatalogError(
                f"{n_sites} sites need {n_sites - 1} boundaries,"
                f" got {len(self.boundaries)}"
            )
        self._pos = schema.position(self.attr)

    def site_of(self, record: tuple, n_sites: int) -> int:
        if self._pos is None:
            raise CatalogError("RangePartitioned strategy not prepared")
        return bisect_left(self.boundaries, record[self._pos])

    def site_for_key(self, value: Any, n_sites: int) -> Optional[int]:
        return bisect_left(self.boundaries, value)

    def sites_for_range(
        self, low: Any, high: Any, n_sites: int
    ) -> Optional[list[int]]:
        first = bisect_left(self.boundaries, low)
        last = min(n_sites - 1, bisect_left(self.boundaries, high))
        return list(range(first, last + 1))


class UniformRange(PartitioningStrategy):
    """System-derived ranges giving each site an equal share of the load
    set (the paper's fourth strategy)."""

    kind = "uniform-range"

    def __init__(self, attr: str) -> None:
        self.attr = attr
        self._delegate: Optional[RangePartitioned] = None
        self._single_site = False

    def prepare(self, records: Sequence[tuple], schema: Schema, n_sites: int) -> None:
        pos = schema.position(self.attr)
        if n_sites == 1:
            self._delegate = None
            self._single_site = True
            return
        self._single_site = False
        keys = sorted(record[pos] for record in records)
        boundaries = []
        for i in range(1, n_sites):
            cut = (i * len(keys)) // n_sites
            boundaries.append(keys[cut - 1] if cut > 0 else keys[0])
        # Strictly increasing boundaries are not guaranteed with duplicate
        # keys; collapse is fine for bisect-based assignment.
        self._delegate = RangePartitioned(self.attr, boundaries)
        self._delegate.prepare(records, schema, n_sites)

    def site_of(self, record: tuple, n_sites: int) -> int:
        if self._single_site:
            return 0
        if self._delegate is None:
            raise CatalogError("UniformRange strategy not prepared")
        return self._delegate.site_of(record, n_sites)

    def site_for_key(self, value: Any, n_sites: int) -> Optional[int]:
        if self._single_site:
            return 0
        if self._delegate is None:
            return None
        return self._delegate.site_for_key(value, n_sites)

    def sites_for_range(
        self, low: Any, high: Any, n_sites: int
    ) -> Optional[list[int]]:
        if self._single_site:
            return [0]
        if self._delegate is None:
            return None
        return self._delegate.sites_for_range(low, high, n_sites)
