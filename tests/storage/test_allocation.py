"""The storage plane's allocation discipline (DESIGN 5.9).

A loaded relation adds O(pages) objects the cyclic collector tracks,
never O(tuples), a bulk load allocates no tracked temporary per tuple,
and the first scan, which builds a fragment's column, leaves none per
tuple behind: a full collection costs time proportional to the tracked
objects alive, and every 700 net allocations of one trigger a young
collection.

The storage and catalog layers also keep a per-entry integer as a machine
word, not an ``int`` object: a dense index's packed RIDs, a load's
statistics pass and a Teradata locate map are held to byte budgets.

Tracked-object counts are process-global, so CI also runs this file in an
interpreter of its own (``ledger-smoke``).
"""

import gc
import tracemalloc
from array import array
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog import Hashed, collect_statistics, gamma_mix
from repro.catalog import relation as relation_module
from repro.catalog.relation import AttrStats
from repro.engine import GammaMachine, RangePredicate
from repro.errors import StorageError
from repro.storage import (
    RID,
    AttrType,
    Schema,
    StoredFile,
    int_attr,
    string_attr,
)
from repro.storage import column as column_module
from repro.storage.heap import PAGE_BITS, SLOT_BITS, pack_rid, unpack_rid
from repro.teradata import TeradataMachine
from repro.teradata import amp as amp_module
from repro.teradata.amp import hash_partition
from repro.workloads import generate_tuples, wisconsin_schema

N = 20_000

#: Collections a 20 000-tuple load may trigger.  At two tracked objects
#: per page (the page and its slot list) and 700 net allocations per young
#: collection the four loads below take 3, 4, 3 and 3; while the storage
#: plane still held an object per tuple they took 33, 69, 33 and 33.
MAX_COLLECTIONS = 10


def tracked_budget(pages: int) -> int:
    """Tracked objects a load may leave behind: two and a half per data
    page (index nodes are far fewer than pages) and a constant."""
    return 5 * pages // 2 + 300


def collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def gamma_heap(tuples):
    return GammaMachine().load_relation(
        "r", wisconsin_schema(), tuples, partitioning=Hashed("unique1")
    )


def gamma_indexed(tuples):
    return GammaMachine().load_relation(
        "r", wisconsin_schema(), tuples, partitioning=Hashed("unique1"),
        clustered_on="unique1", secondary_on=["unique2"],
    )


def teradata_heap(tuples):
    return TeradataMachine().load_relation(
        "r", wisconsin_schema(), tuples, primary_key="unique1"
    )


def teradata_indexed(tuples):
    return TeradataMachine().load_relation(
        "r", wisconsin_schema(), tuples, primary_key="unique1",
        secondary_on=["unique2"],
    )


@pytest.mark.parametrize(
    "load", [gamma_heap, gamma_indexed, teradata_heap, teradata_indexed]
)
def test_a_load_allocates_per_page_not_per_tuple(load):
    tuples = list(generate_tuples(N, seed=7))
    load(tuples[:100])  # imports and one-off caches are not the load's
    gc.collect()
    objects_before = len(gc.get_objects())
    collections_before = collections()

    relation = load(tuples)

    triggered = collections() - collections_before
    gc.collect()
    tracked = gc.get_objects()
    assert relation.num_records == N
    pages = sum(fragment.num_pages for fragment in relation.fragments)
    assert len(tracked) - objects_before <= tracked_budget(pages)
    assert not any(type(obj) is RID for obj in tracked)
    assert triggered <= MAX_COLLECTIONS


#: Tracked objects the first filtering scan of a loaded relation may
#: leave behind, for the whole relation: each fragment caches its column
#: in numpy arrays, which the collector does not track.
SCAN_BUDGET = 100


def first_scans(relation):
    """Every full-fragment filter the relation has, each the first since
    the load (so each builds its column)."""
    predicate = RangePredicate("unique2", 0, N // 10)
    for fragment in relation.fragments:
        schema = fragment.schema
        batch = predicate.compile_batch(schema)
        column = predicate.compile_column(schema)
        if isinstance(fragment, StoredFile):
            for _page in fragment.filter_pages(batch, column):
                pass
            list(fragment.clustered_scan(0, N // 10)[1])
        else:
            fragment.select(batch, column)
            fragment.indexes["unique2"].matching(0, N // 10)


@pytest.mark.parametrize("load", [gamma_indexed, teradata_indexed])
def test_a_first_scan_allocates_nothing_per_tuple(load):
    relation = load(list(generate_tuples(N, seed=7)))
    first_scans(load(list(generate_tuples(100, seed=7))))  # one-off caches
    gc.collect()
    objects_before = len(gc.get_objects())

    first_scans(relation)

    gc.collect()
    assert len(gc.get_objects()) - objects_before <= SCAN_BUDGET
    for fragment in relation.fragments:  # the scans did build columns
        owner = fragment.heap if isinstance(fragment, StoredFile) else fragment
        assert owner._columns


# ---------------------------------------------------------------------------
# byte budgets: machine words, not int objects
# ---------------------------------------------------------------------------

def traced(build):
    """``build()``'s bytes still allocated after a full collection, and
    its peak, both above what was allocated before it."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        result = build()
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - before


def gamma_clustered(tuples):
    return GammaMachine().load_relation(
        "r", wisconsin_schema(), tuples, partitioning=Hashed("unique1"),
        clustered_on="unique1",
    )


#: Bytes a dense secondary index may keep per entry: a key slot and an
#: 8-byte packed RID in its leaves, plus node overhead (17.4 measured);
#: an ``int`` object per RID made it 49.1.
INDEX_BYTES_PER_ENTRY = 32


def test_a_dense_index_keeps_its_rids_as_machine_words():
    gamma_clustered(list(generate_tuples(100, seed=7))).add_secondary_index(
        "unique2"
    )  # one-off imports and caches
    relation = gamma_clustered(list(generate_tuples(N, seed=7)))

    _none, kept, _peak = traced(lambda: relation.add_secondary_index("unique2"))

    assert kept / N <= INDEX_BYTES_PER_ENTRY


#: Peak bytes of the statistics pass over 20 000 Wisconsin tuples: one
#: int64 column at a time (0.50 MB measured); a ``set`` of each int
#: column's values peaked at 5.05 MB.
STATISTICS_PEAK_BYTES = 1_000_000


def test_the_statistics_pass_peaks_at_a_column_of_words():
    schema = wisconsin_schema()
    tuples = list(generate_tuples(N, seed=7))
    collect_statistics(schema, tuples[:100])  # imports numpy

    stats, _kept, peak = traced(lambda: collect_statistics(schema, tuples))

    assert stats["unique1"] == AttrStats(0, N - 1, N)
    assert peak <= STATISTICS_PEAK_BYTES


#: Bytes a Teradata locate map may keep per tuple: its dict slots and the
#: repeated-value set, the ordinals being the process's shared ints (37.4
#: measured); an ``int`` object per ordinal made it 58.2.
LOCATE_BYTES_PER_TUPLE = 48


def test_a_locate_map_holds_no_int_per_ordinal():
    for fragment in teradata_heap(list(generate_tuples(100, seed=7))).fragments:
        fragment.locate("unique2", 3)  # one-off imports and caches
    relation = teradata_heap(list(generate_tuples(N, seed=7)))

    def locate_everywhere():
        for fragment in relation.fragments:
            fragment.locate("unique2", 3)

    _none, kept, _peak = traced(locate_everywhere)

    assert kept / N <= LOCATE_BYTES_PER_TUPLE
    fragment = relation.fragments[0]
    ordinals = fragment._located["unique2"].first.values()
    assert all(ordinal is column_module._INTS[ordinal] for ordinal in ordinals)


# ---------------------------------------------------------------------------
# packed RIDs
# ---------------------------------------------------------------------------

class TestPackedRid:
    @pytest.mark.parametrize(
        "page_no", [0, 1, 2**14 - 1, 2**14, 2**40, 2**PAGE_BITS - 1]
    )
    @pytest.mark.parametrize("slot", [0, 1, 2**SLOT_BITS - 1])
    def test_round_trip_at_the_bounds(self, page_no, slot):
        # Through a signed machine word, as a dense index's leaves keep it.
        packed = array("q", [pack_rid(page_no, slot)])[0]
        assert unpack_rid(packed) == RID(page_no, slot)

    @pytest.mark.parametrize("slot", [2**SLOT_BITS, 2**SLOT_BITS + 1, -1])
    def test_slot_past_the_bounds_raises(self, slot):
        with pytest.raises(StorageError):
            pack_rid(3, slot)

    @pytest.mark.parametrize("page_no", [2**PAGE_BITS, 2**PAGE_BITS + 1, -1])
    def test_page_past_the_bounds_raises(self, page_no):
        with pytest.raises(StorageError, match="does not fit"):
            pack_rid(page_no, 0)

    @given(
        a=st.tuples(st.integers(0, 2**20), st.integers(0, 2**SLOT_BITS - 1)),
        b=st.tuples(st.integers(0, 2**20), st.integers(0, 2**SLOT_BITS - 1)),
    )
    def test_packed_rids_order_as_rids_do(self, a, b):
        assert (pack_rid(*a) < pack_rid(*b)) == (RID(*a) < RID(*b))


# ---------------------------------------------------------------------------
# hash-key order and statistics against the versions they replaced
# ---------------------------------------------------------------------------

def hash_partition_with_pairs(records, key_pos, n_amps):
    """``hash_partition`` as it was: one sort over a (hash, key) pair per
    record."""
    keys = [record[key_pos] for record in records]
    mixes = list(map(gamma_mix, keys))
    place = [
        (mix % amp_module.HASH_ORDER_BUCKETS, key)
        for mix, key in zip(mixes, keys)
    ]
    buckets = [[] for _ in range(n_amps)]
    for i in sorted(range(len(keys)), key=place.__getitem__):
        buckets[mixes[i] % n_amps].append(records[i])
    return buckets


@settings(max_examples=60, deadline=None)
@given(
    keys=st.one_of(
        st.lists(st.integers(-50, 50), max_size=200),
        st.lists(st.text("abc", max_size=3), max_size=200),
    ),
    n_amps=st.integers(1, 20),
    # Four buckets make records of different keys tie on the hash, which
    # 2**30 buckets all but never do.
    hash_buckets=st.sampled_from([1 << 30, 4]),
)
def test_hash_partition_equals_the_pair_sort(keys, n_amps, hash_buckets):
    # The load position tells records of one key apart.
    records = [(position, key) for position, key in enumerate(keys)]
    with mock.patch.object(amp_module, "HASH_ORDER_BUCKETS", hash_buckets):
        assert hash_partition(records, 1, n_amps) == (
            hash_partition_with_pairs(records, 1, n_amps)
        )


def collect_statistics_transposed(schema, records):
    """``collect_statistics`` as it was: one ``zip(*records)``."""
    stats = {}
    if not records:
        return stats
    sample = relation_module.DISTINCT_SAMPLE
    for attribute, values in zip(schema.attributes, zip(*records)):
        if attribute.type is not AttrType.INT:
            continue
        distinct = set(values[:sample])
        bounds = distinct if len(values) <= sample else values
        stats[attribute.name] = AttrStats(
            minimum=min(bounds), maximum=max(bounds),
            distinct_hint=len(distinct),
        )
    return stats


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.integers(-1000, 1000), st.text("xy", max_size=2),
            st.integers(0, 3),
        ),
        max_size=60,
    ),
    # A sample shorter than the column takes the other min/max branch.
    sample=st.sampled_from([100_000, 5]),
)
def test_collect_statistics_equals_the_transposition(records, sample):
    schema = Schema([int_attr("a"), string_attr("s", 4), int_attr("b")])
    with mock.patch.object(relation_module, "DISTINCT_SAMPLE", sample):
        assert collect_statistics(schema, records) == (
            collect_statistics_transposed(schema, records)
        )


#: What an int attribute's column may hold besides plain ints: the int64
#: path must match the transposition on each or decline to the ``set``.
COLUMN_VALUES = st.one_of(
    st.integers(-1000, 1000),
    st.booleans(),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(2**63 - 2, 2**64),  # at and past the end of int64
    st.integers(-(2**64), -(2**63) + 1),
)


@settings(max_examples=100, deadline=None)
@given(
    column=st.one_of(
        st.lists(COLUMN_VALUES, max_size=40),
        # One repeated value.
        st.tuples(COLUMN_VALUES, st.integers(1, 40)).map(
            lambda value_count: [value_count[0]] * value_count[1]
        ),
    ),
    sample=st.sampled_from([100_000, 5]),
)
@example(column=[3, True, 0, False, 7], sample=100_000)  # a bool
@example(column=[3, True, 0, False, 7, 1, 9], sample=5)
@example(column=[1, 2.5, -4], sample=100_000)  # a float
@example(column=[1, 2, 3, 4, 5, 2.5], sample=5)
@example(column=[0, 2**63], sample=100_000)  # beyond int64
@example(column=[0, 1, 2, 3, 4, -(2**63) - 1], sample=5)
@example(column=[2**63 - 1, -(2**63)], sample=100_000)  # int64's ends
@example(column=[42] * 9, sample=100_000)  # one repeated value
@example(column=[42] * 9, sample=5)
@example(column=[], sample=100_000)  # an empty relation
@example(column=[], sample=5)
def test_collect_statistics_is_exact_past_plain_ints(column, sample):
    schema = Schema([int_attr("a"), string_attr("s", 4), int_attr("b")])
    records = [(value, "x", serial) for serial, value in enumerate(column)]
    with mock.patch.object(relation_module, "DISTINCT_SAMPLE", sample):
        stats = collect_statistics(schema, records)
        assert stats == collect_statistics_transposed(schema, records)
    for attr in stats.values():  # Python numbers, never numpy scalars
        assert type(attr.distinct_hint) is int
        assert {type(attr.minimum), type(attr.maximum)} <= {int, bool, float}


# ---------------------------------------------------------------------------
# index contents through updates
# ---------------------------------------------------------------------------

def small_schema():
    return Schema([int_attr("key"), int_attr("other"), int_attr("payload")])


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(st.integers(0, 60), max_size=40),
    operations=st.lists(
        st.tuples(
            st.sampled_from(["append", "delete", "replace"]),
            st.integers(0, 60),  # a key to append / which record to pick
            st.integers(0, 2),  # ``other``: few values, many duplicates
        ),
        max_size=60,
    ),
    clustered=st.booleans(),
)
def test_secondary_index_follows_every_update(initial, operations, clustered):
    """128-byte pages hold two records and six index entries, so the
    appends split data pages and leaves, and the entries of one ``other``
    value span leaves."""
    records = [(key, key % 3, serial) for serial, key in enumerate(initial)]
    sf = StoredFile.create(
        "r", small_schema(), 128, records,
        clustered_on="key" if clustered else None,
    )
    sf.add_secondary_index("other")
    model = Counter(records)
    for serial, (operation, pick, other) in enumerate(operations, len(records)):
        live = list(sf.heap.rids())
        if operation == "append":
            record = (pick, other, serial)
            sf.append(record)
            model[record] += 1
        elif live:
            rid, record = live[pick % len(live)]
            model[record] -= 1
            if operation == "delete":
                assert sf.delete_record(rid)[0] == record
            else:
                new = (record[0], other, serial)
                sf.replace_record(rid, new)
                model[new] += 1

    tree = sf.secondary["other"]
    tree.check_invariants()
    assert Counter(sf.records()) == +model
    assert sorted((key, unpack_rid(packed)) for key, packed in tree.items()) == (
        sorted((record[1], rid) for rid, record in sf.heap.rids())
    )
