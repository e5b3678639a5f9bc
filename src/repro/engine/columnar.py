"""Batched columnar fast paths for the operator hot loops.

The engine's tuples are plain Python tuples, and at paper scales (tens of
sites, ~40-tuple pages) per-record Python loops are affordable.  Scaling
the simulator to hundreds or thousands of sites multiplies the tuple
traffic until those loops dominate wall-clock time, so the hot per-batch
kernels — split-table routing, partitioning-site assignment, bit-filter
tests — also exist here in columnar form: extract one attribute column
from a batch and push it through a vectorized numpy pipeline.

Two invariants make the fast paths safe:

* **Bit-identical results.**  Every vectorized kernel reproduces the
  scalar arithmetic exactly (``gamma_hash``'s Knuth mix in uint64 wraps
  identically to Python's masked bignum arithmetic; CPython's tuple hash
  is replicated lane-for-lane for the bit filters) and is only entered
  when that equivalence provably holds — int values inside the
  ``hash(v) == v`` range.  Everything else falls back to the scalar loop.
* **Unchanged cost model.**  These kernels change how fast the simulator
  *computes* a decision, never what the simulated machine is *charged*
  for it; golden timelines are unaffected.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Optional, Sequence

import numpy as _np

from ..catalog.artifacts import load_artifact, rows_of
from ..catalog.partitioning import gamma_mix, stable_hash

#: Minimum batch size for the vectorized kernels.  Below this the numpy
#: call overhead (array construction + ufunc dispatch) exceeds the scalar
#: loop; measured crossover on CPython 3.11 sits around 24-48 elements.
NUMPY_THRESHOLD = 32

#: ``hash(v) == v`` for ints in [0, 2**61 - 1); outside that range CPython
#: reduces modulo the Mersenne prime and the uint64 pipeline would diverge.
_MERSENNE61 = (1 << 61) - 1


def int_array(values: Sequence[Any]) -> Optional["Any"]:
    """``values`` as an int64 array, or None when unsafe.

    Returns None unless every value is a genuine ``int`` (``bool`` and
    ``float`` would silently coerce) inside the ``hash(v) == v`` range.
    """
    for value in values:
        if type(value) is not int:
            return None
    try:
        arr = _np.fromiter(values, dtype=_np.int64, count=len(values))
    except OverflowError:
        return None
    if len(arr) and (int(arr.min()) < 0 or int(arr.max()) >= _MERSENNE61):
        return None
    return arr


def _int_column(
    records: Sequence[tuple], pos: int
) -> Optional["Any"]:
    """Column ``pos`` of ``records`` as :func:`int_array` gives it."""
    return int_array([record[pos] for record in records])


def gamma_mix_array(arr: "Any") -> "Any":
    """Vectorized :func:`repro.catalog.partitioning.gamma_mix` (uint64).

    ``arr`` must hold values with ``hash(v) == v`` (the caller gates
    this); the Knuth multiplicative mix then runs entirely in uint64,
    where wrapping products agree with Python's arbitrary-precision
    arithmetic masked to 32 bits.
    """
    h = (arr.astype(_np.uint64) * _np.uint64(2654435761)) & _np.uint64(
        0xFFFFFFFF
    )
    h ^= h >> _np.uint64(17)
    h = (h * _np.uint64(0x9E3779B1)) & _np.uint64(0xFFFFFFFF)
    h ^= h >> _np.uint64(13)
    return h


def gamma_hash_array(arr: "Any", n_buckets: int) -> "Any":
    """Vectorized :func:`repro.catalog.partitioning.gamma_hash`, under
    :func:`gamma_mix_array`'s precondition."""
    return gamma_mix_array(arr) % _np.uint64(n_buckets)


def mix_column(values: Sequence[Any]) -> "Any":
    """``gamma_mix`` of each of ``values``, as a uint32 array.

    Large all-int columns go through :func:`gamma_mix_array`; anything
    else (strings, out-of-range ints, short columns) value by value.
    """
    if len(values) >= NUMPY_THRESHOLD:
        arr = int_array(values)
        if arr is not None:
            return gamma_mix_array(arr).astype(_np.uint32)
    return _np.fromiter(
        map(gamma_mix, values), dtype=_np.uint32, count=len(values)
    )


def key_mixes(records: Sequence[tuple], pos: int) -> "Any":
    """:func:`mix_column` of column ``pos`` of ``records`` — a load
    artifact, so a shared relation mixes each key column once."""
    return load_artifact(
        records, ("mix", pos),
        lambda: mix_column([record[pos] for record in records]),
    )


def scatter(
    records: Sequence[tuple], routes: "Any", n_buckets: int,
    order: Optional["Any"] = None,
) -> list[list[tuple]]:
    """Deal ``records`` into ``n_buckets`` lists: the record at
    ``order[i]`` (``i`` when no order is given) goes to bucket
    ``routes[i]``, and each bucket keeps the order the records come in."""
    if order is not None:
        take = order.tolist()
        rows = rows_of(records)
        # One C-level gather; ``itemgetter`` of one index is no tuple.
        records = (
            itemgetter(*take)(rows) if len(take) > 1
            else [rows[i] for i in take]
        )
    buckets: list[list[tuple]] = [[] for _ in range(n_buckets)]
    appends = [bucket.append for bucket in buckets]
    for record, route in zip(records, routes.tolist()):
        appends[route](record)
    return buckets


def hash_route_batch(
    records: Sequence[tuple], pos: int, n: int
) -> list[int]:
    """Destination indices for a batch: ``gamma_hash(record[pos], n)``.

    The workhorse behind hash split tables and load-time declustering.
    Large all-int batches go through :func:`gamma_hash_array`; everything
    else through a scalar loop with ``stable_hash``'s int fast path.
    """
    if len(records) >= NUMPY_THRESHOLD:
        arr = _int_column(records, pos)
        if arr is not None:
            return gamma_hash_array(arr, n).tolist()
    out: list[int] = []
    append = out.append
    for record in records:
        value = record[pos]
        h = (
            (hash(value) if type(value) is int else stable_hash(value))
            * 2654435761
        ) & 0xFFFFFFFF
        h ^= h >> 17
        h = (h * 0x9E3779B1) & 0xFFFFFFFF
        h ^= h >> 13
        append(h % n)
    return out


# ---------------------------------------------------------------------------
# CPython tuple-hash replication (bit-filter probes hash ``(seed, value)``)
# ---------------------------------------------------------------------------

_XX_P1 = 11400714785074694791
_XX_P2 = 14029467366897019727
_XX_P5 = 2870177450012600261
_U64 = 0xFFFFFFFFFFFFFFFF


def _tuple_hash_pair_array(seed: int, lanes: "Any") -> "Any":
    """Vectorized ``hash((seed, v))`` for int64 ``lanes`` with
    ``hash(v) == v``.

    Replicates CPython's xxHash-style tuple hash (Objects/tupleobject.c)
    lane for lane in uint64, then reinterprets the accumulator as the
    signed ``Py_hash_t`` CPython returns (with the -1 → -2 fixup).
    """
    p1 = _np.uint64(_XX_P1)
    p2 = _np.uint64(_XX_P2)
    # Lane 1: the seed (a plain scalar) — folded in Python ints masked to
    # 64 bits, so the intended wraparound never trips numpy's scalar
    # overflow warning.  Array ops below wrap silently, as specified.
    acc0 = (_XX_P5 + ((hash(seed) * _XX_P2) & _U64)) & _U64
    acc0 = ((acc0 << 31) | (acc0 >> 33)) & _U64
    acc0 = (acc0 * _XX_P1) & _U64
    # Lane 2: the values.
    with _np.errstate(over="ignore"):
        acc = _np.uint64(acc0) + lanes.astype(_np.uint64) * p2
    acc = (acc << _np.uint64(31)) | (acc >> _np.uint64(33))
    acc = acc * p1
    acc = acc + _np.uint64((2 ^ (_XX_P5 ^ 3527539)) & _U64)
    signed = acc.astype(_np.int64)
    # CPython never returns -1 from a hash (it signals an error).
    signed[signed == -1] = -2
    return signed


class BatchedBitProbe:
    """Vectorized ``BitVectorFilter.might_contain`` over a value batch.

    Built over a filter's bit array; ``test(records, pos)`` returns a
    boolean list matching the scalar probe exactly, or ``None`` when the
    batch is not eligible for the vector path (caller falls back).

    The numpy view aliases the *live* ``bytearray`` (zero-copy), so bits
    set or unioned into the filter after construction are visible — the
    probe can be built once per split table even though filters keep
    mutating until the build phase drains.  The aliased buffer pins the
    bytearray's size; ``BitVectorFilter`` never resizes ``_bits``.
    """

    __slots__ = ("n_bits", "seeds", "_bits_view")

    def __init__(self, n_bits: int, seeds: Sequence[int], bits: bytearray):
        self.n_bits = n_bits
        self.seeds = tuple(seeds)
        self._bits_view = _np.frombuffer(bits, dtype=_np.uint8)

    def test(
        self, records: Sequence[tuple], pos: int
    ) -> Optional[list[bool]]:
        if len(records) < NUMPY_THRESHOLD:
            return None
        arr = _int_column(records, pos)
        if arr is None:
            return None
        ok = _np.ones(len(records), dtype=bool)
        n_bits = _np.int64(self.n_bits)
        for seed in self.seeds:
            h = _tuple_hash_pair_array(seed, arr)
            h = h ^ (h >> _np.int64(16))
            bit = (h & _np.int64(0x7FFFFFFF)) % n_bits
            ok &= (
                self._bits_view[bit >> _np.int64(3)]
                >> (bit & _np.int64(7)).astype(_np.uint8)
            ) & _np.uint8(1) != 0
        return ok.tolist()


# ---------------------------------------------------------------------------
# Array-of-column tuple pools
# ---------------------------------------------------------------------------


class ColumnBatch:
    """A batch of tuples stored column-wise.

    Integer columns of batches at or above ``NUMPY_THRESHOLD`` become
    int64 numpy arrays; other columns stay lists.  The batch round-trips
    losslessly: ``ColumnBatch.from_records(rs).to_records() == list(rs)``.

    This is the storage shape the vectorized kernels want — extracting a
    column is O(1) instead of a per-record gather — and what load-time
    partitioning and wide-packet configurations batch tuples into.
    """

    __slots__ = ("columns", "count", "_int_cols")

    def __init__(
        self, columns: list[Any], count: int, int_cols: tuple[bool, ...]
    ) -> None:
        self.columns = columns
        self.count = count
        self._int_cols = int_cols

    @classmethod
    def from_records(cls, records: Sequence[tuple]) -> "ColumnBatch":
        count = len(records)
        if count == 0:
            return cls([], 0, ())
        width = len(records[0])
        columns: list[Any] = []
        int_flags: list[bool] = []
        for pos in range(width):
            column = [record[pos] for record in records]
            is_int = all(type(v) is int for v in column)
            if is_int and count >= NUMPY_THRESHOLD:
                try:
                    column = _np.fromiter(
                        column, dtype=_np.int64, count=count
                    )
                except OverflowError:
                    is_int = False
            columns.append(column)
            int_flags.append(is_int)
        return cls(columns, count, tuple(int_flags))

    def column(self, pos: int) -> Any:
        return self.columns[pos]

    def to_records(self) -> list[tuple]:
        if self.count == 0:
            return []
        cols = [
            c.tolist() if isinstance(c, _np.ndarray) else c
            for c in self.columns
        ]
        return list(zip(*cols))

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """A new batch holding the given row positions, in order."""
        idx = _np.asarray(indices, dtype=_np.int64)
        columns = [
            c[idx] if isinstance(c, _np.ndarray)
            else [c[i] for i in indices]
            for c in self.columns
        ]
        return ColumnBatch(columns, len(indices), self._int_cols)

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        batches = [b for b in batches if b.count]
        if not batches:
            return cls([], 0, ())
        first = batches[0]
        if len(batches) == 1:
            return first
        columns: list[Any] = []
        for pos in range(len(first.columns)):
            parts = [b.columns[pos] for b in batches]
            if all(isinstance(p, _np.ndarray) for p in parts):
                columns.append(_np.concatenate(parts))
            else:
                merged: list[Any] = []
                for p in parts:
                    merged.extend(
                        p.tolist() if isinstance(p, _np.ndarray) else p
                    )
                columns.append(merged)
        count = sum(b.count for b in batches)
        return cls(columns, count, first._int_cols)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<ColumnBatch {self.count}x{len(self.columns)}>"


def partition_batch(
    records: Sequence[tuple], pos: int, n_sites: int
) -> list[list[tuple]]:
    """Bucket ``records`` by ``gamma_hash(record[pos], n_sites)``.

    The load-time declustering kernel: the key column's mixes (kept on a
    shared relation), one vectorized modulo and one scatter, instead of a
    per-record ``site_of`` call.  Identical bucket contents and order to
    the scalar path, since ``gamma_hash(v, n) == gamma_mix(v) % n``.
    """
    sites = key_mixes(records, pos) % _np.uint32(n_sites)
    return scatter(records, sites, n_sites)
