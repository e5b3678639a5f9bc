"""Bit-vector filters [BABB79].

The Gamma optimizer can insert an array of bit-vector filters into a split
table: the join build phase sets a bit for every join-attribute value it
stores, and the selection producing probe tuples tests the bit before
shipping a tuple — discarding most non-matching tuples at the disk sites
instead of paying network and probe costs for them.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..catalog.partitioning import stable_hash
from ..errors import ConfigError


class BitVectorFilter:
    """A fixed-size Bloom-style filter with ``n_hashes`` probes."""

    def __init__(self, n_bits: int = 1 << 16, n_hashes: int = 2) -> None:
        if n_bits < 8:
            raise ConfigError("filter needs at least 8 bits")
        if n_hashes < 1:
            raise ConfigError("filter needs at least one hash")
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self._bits = bytearray(n_bits // 8 + 1)
        self._seeds = tuple(range(n_hashes))
        self.set_count = 0

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<BitVectorFilter {self.n_bits}b set={self.set_count}>"

    @property
    def size_bytes(self) -> int:
        return len(self._bits)

    def add(self, value: Any) -> None:
        """Set the bits for ``value`` (build side)."""
        self.set_count += 1
        # Bit positions come from CPython's tuple hash of (seed, stable
        # hash) — a family independent of gamma_hash; string keys set the
        # same bits in every process.
        sv = hash(value) if type(value) is int else stable_hash(value)
        bits = self._bits
        n_bits = self.n_bits
        for seed in self._seeds:
            h = hash((seed, sv))
            h ^= h >> 16
            bit = (h & 0x7FFFFFFF) % n_bits
            bits[bit >> 3] |= 1 << (bit & 7)

    def might_contain(self, value: Any) -> bool:
        """Probe side: False means *definitely* absent."""
        sv = hash(value) if type(value) is int else stable_hash(value)
        bits = self._bits
        n_bits = self.n_bits
        for seed in self._seeds:
            h = hash((seed, sv))
            h ^= h >> 16
            bit = (h & 0x7FFFFFFF) % n_bits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    def might_contain_batch(self, values: Sequence[Any]) -> list[bool]:
        """:meth:`might_contain` of each of ``values``, in order.

        A batch of at least ``NUMPY_THRESHOLD`` ints inside the
        ``hash(v) == v`` range is probed in numpy
        (:func:`~repro.engine.columnar.bit_probe_array`); any other batch
        value by value.
        """
        # Imported on first use, as in ``skew.router``: columnar loads
        # numpy.
        from .columnar import NUMPY_THRESHOLD, bit_probe_array, int_array

        if len(values) >= NUMPY_THRESHOLD:
            arr = int_array(values)
            if arr is not None:
                return bit_probe_array(
                    arr, self._bits, self.n_bits, self._seeds
                )
        return [self.might_contain(value) for value in values]

    def union(self, other: "BitVectorFilter") -> None:
        """Merge another node's filter into this one (the scheduler ORs
        per-node filters before installing them in split tables)."""
        if other.n_bits != self.n_bits or other.n_hashes != self.n_hashes:
            raise ConfigError("cannot union differently-shaped filters")
        for i, byte in enumerate(other._bits):
            self._bits[i] |= byte
        self.set_count += other.set_count
