"""Batched columnar fast paths for the operator hot loops.

The engine's tuples are plain Python tuples, and at paper scales (tens of
sites, ~40-tuple pages) per-record Python loops are affordable.  Scaling
the simulator to hundreds or thousands of sites multiplies the tuple
traffic until those loops dominate wall-clock time, so the hot per-batch
kernels — value routing, load-time declustering, bit-filter probes —
work on a batch: extract one attribute column and, when the batch is
large enough and all-int, push it through a vectorized numpy pipeline.

Two invariants make the fast paths safe:

* **Bit-identical results.**  Every vectorized kernel reproduces the
  scalar arithmetic exactly (``gamma_mix``'s Knuth mix in uint64 wraps
  identically to Python's masked bignum arithmetic; CPython's tuple hash
  is replicated lane-for-lane for the bit filters) and is only entered
  when that equivalence provably holds — int values inside the
  ``hash(v) == v`` range.  Everything else takes the scalar loop: the
  batch in hand picks the path.
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

    The one hash router (``skew.router`` hands it to both machines) and
    the load-time declustering kernel.  Large all-int batches go through
    :func:`gamma_mix_array`; everything else through ``gamma_mix``
    written out in the loop, with ``stable_hash``'s int fast path.
    """
    if len(records) >= NUMPY_THRESHOLD:
        arr = int_array([record[pos] for record in records])
        if arr is not None:
            return (gamma_mix_array(arr) % _np.uint64(n)).tolist()
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


def bit_probe_array(
    arr: "Any", bits: bytearray, n_bits: int, seeds: Sequence[int]
) -> list[bool]:
    """Vectorized ``might_contain`` of each of ``arr``'s values (as
    :func:`int_array` gives them) for the filter with these ``bits``,
    ``n_bits`` and ``seeds`` — the numpy half of
    ``BitVectorFilter.might_contain_batch``."""
    ok = _np.ones(len(arr), dtype=bool)
    view = _np.frombuffer(bits, dtype=_np.uint8)
    width = _np.int64(n_bits)
    for seed in seeds:
        h = _tuple_hash_pair_array(seed, arr)
        h = h ^ (h >> _np.int64(16))
        bit = (h & _np.int64(0x7FFFFFFF)) % width
        ok &= (
            view[bit >> _np.int64(3)]
            >> (bit & _np.int64(7)).astype(_np.uint8)
        ) & _np.uint8(1) != 0
    return ok.tolist()


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
