"""Parity tests: every columnar fast path must agree with the per-value
definition it speeds up (``gamma_hash``, ``might_contain``, a predicate
written out in the test) on randomized inputs, including the values that
force fallbacks (floats, bools, strings, negative and 64-bit-plus
integers)."""

import random

import pytest

from repro.catalog import gamma_hash
from repro.catalog.partitioning import Hashed, PartitioningStrategy
from repro.engine.bitfilter import BitVectorFilter
from repro.engine.columnar import (
    NUMPY_THRESHOLD,
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
    values = members[:100] + [rng.randrange(0, 1 << 40) for _ in range(400)]
    fallback = [value for value, *_ in _mixed_records(rng, 300)]
    # The vector path, a batch too short for it, and a batch it rejects.
    for batch in (values, values[: NUMPY_THRESHOLD - 1], fallback):
        assert filt.might_contain_batch(batch) == [
            filt.might_contain(v) for v in batch
        ]


def test_batched_bit_probe_sees_later_filter_mutations():
    filt = BitVectorFilter(n_bits=1 << 12, n_hashes=2)
    values = list(range(NUMPY_THRESHOLD))
    assert filt.might_contain_batch(values) == [False] * len(values)
    for value in values:
        filt.add(value)
    assert filt.might_contain_batch(values) == [True] * len(values)

    other = BitVectorFilter(n_bits=1 << 12, n_hashes=2)
    extra = list(range(10_000, 10_000 + NUMPY_THRESHOLD))
    for value in extra:
        other.add(value)
    filt.union(other)
    assert filt.might_contain_batch(extra) == [True] * len(extra)


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
        # The per-value definition: a tuple the filter rejects is dropped,
        # every other tuple goes to gamma_hash of its key.
        expected = [
            None
            if bit_filter is not None and not bit_filter.might_contain(r[0])
            else gamma_hash(r[0], 11)
            for r in records
        ]
        assert table.route_batch(records) == expected
        assert [table.route(r) for r in records] == expected


def test_round_robin_route_batch_matches_route_with_carryover():
    table_a = SplitTable.round_robin(_destinations(7))
    table_b = SplitTable.round_robin(_destinations(7))
    rng = random.Random(RNG_SEED)
    start = 0
    for count in (3, 11, 1, 0, 40):
        records = _int_records(rng, count)
        # Batches continue where the previous batch left off, and the
        # one-record view shares the same counter.
        expected = [(start + i) % 7 for i in range(count)]
        assert table_a.route_batch(records) == expected
        assert [table_b.route(r) for r in records] == expected
        start += count


def test_single_route_batch_matches_route():
    table = SplitTable.single(_destinations(1)[0])
    records = [(i, i, "x") for i in range(10)]
    assert table.route_batch(records) == [0] * 10
    assert table.route(records[0]) == 0


@pytest.mark.parametrize("predicate", [
    TruePredicate(),
    RangePredicate("unique2", 100, 5_000),
    ExactMatch("unique1", 4242),
])
def test_compile_batch_matches_a_comprehension(predicate):
    rng = random.Random(RNG_SEED)
    schema = _schema()
    records = [
        (rng.randrange(0, 10_000), rng.randrange(0, 10_000), "p")
        for _ in range(300)
    ]
    records.append((4242, 100, "p"))
    if isinstance(predicate, RangePredicate):
        expected = [r for r in records if 100 <= r[1] <= 5_000]
    elif isinstance(predicate, ExactMatch):
        expected = [r for r in records if r[0] == 4242]
    else:
        expected = list(records)
    batch = predicate.compile_batch(schema)
    assert batch(records) == expected
    assert batch([]) == []


def test_true_predicate_compile_batch_is_identity():
    schema = _schema()
    records = [(1, 2, "x"), (3, 4, "y")]
    assert TruePredicate().compile_batch(schema)(records) == records
