"""Parity tests: every columnar fast path must agree with its scalar
twin on randomized inputs, including the values that force fallbacks
(floats, bools, strings, negative and 64-bit-plus integers)."""

import random

import pytest

from repro.catalog import gamma_hash
from repro.catalog.partitioning import Hashed, PartitioningStrategy
from repro.engine.bitfilter import BitVectorFilter
from repro.engine.columnar import (
    NUMPY_THRESHOLD,
    BatchedBitProbe,
    ColumnBatch,
    hash_route_batch,
    partition_batch,
)
from repro.engine.plan import ExactMatch, RangePredicate, TruePredicate
from repro.engine.split_table import Destination, SplitTable
from repro.hardware import GammaConfig
from repro.storage import Schema
from repro.storage.schema import int_attr, string_attr

RNG_SEED = 19880601


def _schema() -> Schema:
    """A 3-attribute schema matching this file's (int, int, str) records."""
    return Schema([
        int_attr("unique1"), int_attr("unique2"), string_attr("padding"),
    ])


def _int_records(rng, count, lo=0, hi=1 << 40):
    return [
        (rng.randrange(lo, hi), rng.randrange(lo, hi), f"s{i}")
        for i in range(count)
    ]


def _mixed_records(rng, count):
    """Batches that must reject the vector path: non-int and out-of-range
    key values mixed among plain ints."""
    pool = [
        lambda: rng.randrange(0, 1 << 40),          # vector-eligible
        lambda: -rng.randrange(1, 1 << 20),          # negative
        lambda: (1 << 61) - 1 + rng.randrange(4),    # Mersenne wrap
        lambda: rng.random() * 1e6,                  # float truncation trap
        lambda: rng.random() < 0.5,                  # bool coercion trap
        lambda: f"key-{rng.randrange(1000)}",        # string
    ]
    return [
        (rng.choice(pool)(), i, f"s{i}") for i in range(count)
    ]


def _scalar_route(records, pos, n):
    return [gamma_hash(r[pos], n) for r in records]


@pytest.mark.parametrize("count", [1, NUMPY_THRESHOLD - 1,
                                   NUMPY_THRESHOLD, 257, 1024])
@pytest.mark.parametrize("n", [1, 7, 32, 1000])
def test_hash_route_batch_matches_gamma_hash_ints(count, n):
    rng = random.Random(RNG_SEED + count * 31 + n)
    records = _int_records(rng, count)
    assert hash_route_batch(records, 0, n) == _scalar_route(records, 0, n)


@pytest.mark.parametrize("count", [NUMPY_THRESHOLD, 500])
def test_hash_route_batch_matches_on_fallback_values(count):
    rng = random.Random(RNG_SEED + count)
    records = _mixed_records(rng, count)
    assert hash_route_batch(records, 0, 17) == _scalar_route(records, 0, 17)


def test_partition_batch_matches_scalar_partition():
    rng = random.Random(RNG_SEED)
    schema = _schema()
    strategy = Hashed("unique1")
    for records in (
        _int_records(rng, 4), _int_records(rng, 300),
        _mixed_records(rng, 300), [],
    ):
        scalar = PartitioningStrategy.partition(
            strategy, records, schema, 13
        )
        assert strategy.partition(records, schema, 13) == scalar
        assert partition_batch(records, 0, 13) == scalar


@pytest.mark.parametrize("n_hashes", [1, 2, 3])
def test_batched_bit_probe_matches_might_contain(n_hashes):
    rng = random.Random(RNG_SEED + n_hashes)
    filt = BitVectorFilter(n_bits=1 << 12, n_hashes=n_hashes)
    members = [rng.randrange(0, 1 << 40) for _ in range(500)]
    for value in members:
        filt.add(value)
    probe = BatchedBitProbe(filt.n_bits, filt._seeds, filt._bits)
    records = [(v,) for v in members[:100]] + [
        ((rng.randrange(0, 1 << 40)),) for _ in range(400)
    ]
    records = [(v[0], 0) for v in records]
    mask = probe.test(records, 0)
    assert mask is not None
    assert mask == [filt.might_contain(r[0]) for r in records]
    # Ineligible batches decline the vector path instead of guessing.
    assert probe.test(records[: NUMPY_THRESHOLD - 1], 0) is None
    assert probe.test([(1.5, 0)] * NUMPY_THRESHOLD, 0) is None


def test_batched_bit_probe_sees_later_filter_mutations():
    filt = BitVectorFilter(n_bits=1 << 12, n_hashes=2)
    probe = BatchedBitProbe(filt.n_bits, filt._seeds, filt._bits)
    records = [(v, 0) for v in range(NUMPY_THRESHOLD)]
    assert probe.test(records, 0) == [False] * len(records)
    for value, _ in records:
        filt.add(value)
    # The probe aliases the live bit array: adds after construction count.
    assert probe.test(records, 0) == [True] * len(records)

    other = BitVectorFilter(n_bits=1 << 12, n_hashes=2)
    extra = [(v, 0) for v in range(10_000, 10_000 + NUMPY_THRESHOLD)]
    for value, _ in extra:
        other.add(value)
    filt.union(other)
    assert probe.test(extra, 0) == [
        filt.might_contain(v) for v, _ in extra
    ]


def _destinations(n):
    return [Destination(f"n{i}", None) for i in range(n)]


@pytest.mark.parametrize("with_filter", [False, True])
def test_split_table_route_batch_matches_route(with_filter):
    rng = random.Random(RNG_SEED + with_filter)
    schema = _schema()
    costs = GammaConfig.paper_default().costs
    bit_filter = None
    if with_filter:
        bit_filter = BitVectorFilter(n_bits=1 << 12, n_hashes=2)
        for _ in range(200):
            bit_filter.add(rng.randrange(0, 1 << 40))
    table = SplitTable.by_hash(
        _destinations(11), schema, "unique1", costs, bit_filter=bit_filter
    )
    for records in (
        _int_records(rng, 5), _int_records(rng, 400),
        _mixed_records(rng, 400),
    ):
        assert table.route_batch(records) == [
            table.route(r) for r in records
        ]


def test_round_robin_route_batch_matches_route_with_carryover():
    table_a = SplitTable.round_robin(_destinations(7))
    table_b = SplitTable.round_robin(_destinations(7))
    rng = random.Random(RNG_SEED)
    for count in (3, 11, 1, 40):
        records = _int_records(rng, count)
        # Same shared-counter semantics: batches continue where the
        # previous batch left off.
        assert table_a.route_batch(records) == [
            table_b.route(r) for r in records
        ]


def test_single_route_batch_matches_route():
    table = SplitTable.single(_destinations(1)[0])
    records = [(i, i, "x") for i in range(10)]
    assert table.route_batch(records) == [
        table.route(r) for r in records
    ]


@pytest.mark.parametrize("predicate", [
    TruePredicate(),
    RangePredicate("unique2", 100, 5_000),
    ExactMatch("unique1", 4242),
])
def test_compile_batch_matches_compile(predicate):
    rng = random.Random(RNG_SEED)
    schema = _schema()
    records = [
        (rng.randrange(0, 10_000), rng.randrange(0, 10_000), "p")
        for _ in range(300)
    ]
    scalar = predicate.compile(schema)
    batch = predicate.compile_batch(schema)
    assert batch(records) == [r for r in records if scalar(r)]
    assert batch([]) == []


def test_true_predicate_compile_batch_is_identity():
    schema = _schema()
    records = [(1, 2, "x"), (3, 4, "y")]
    assert TruePredicate().compile_batch(schema)(records) == records


@pytest.mark.parametrize("count", [0, 1, NUMPY_THRESHOLD, 200])
def test_column_batch_round_trip(count):
    rng = random.Random(RNG_SEED + count)
    records = _mixed_records(rng, count)
    batch = ColumnBatch.from_records(records)
    assert len(batch) == count
    assert batch.to_records() == records


def test_column_batch_take_and_concat():
    rng = random.Random(RNG_SEED)
    records = _int_records(rng, 100)
    batch = ColumnBatch.from_records(records)
    picked = batch.take([5, 0, 99, 42])
    assert picked.to_records() == [
        records[5], records[0], records[99], records[42]
    ]
    rejoined = ColumnBatch.concat(
        [batch.take(range(0, 60)), ColumnBatch.from_records([]),
         batch.take(range(60, 100))]
    )
    assert rejoined.to_records() == records
