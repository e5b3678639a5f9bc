"""The storage plane's allocation discipline (DESIGN 5.9).

A loaded relation adds O(pages) objects the cyclic collector tracks,
never O(tuples), a bulk load allocates no tracked temporary per tuple,
and the first scan, which builds a fragment's column, leaves none per
tuple behind: a full collection costs time proportional to the tracked
objects alive, and every 700 net allocations of one trigger a young
collection.

Tracked-object counts are process-global, so CI also runs this file in an
interpreter of its own (``ledger-smoke``).
"""

import gc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
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
from repro.storage.heap import SLOT_BITS, pack_rid, unpack_rid
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
# packed RIDs
# ---------------------------------------------------------------------------

class TestPackedRid:
    @pytest.mark.parametrize("page_no", [0, 1, 2**14 - 1, 2**14, 2**40])
    @pytest.mark.parametrize("slot", [0, 1, 2**SLOT_BITS - 1])
    def test_round_trip_at_the_bounds(self, page_no, slot):
        assert unpack_rid(pack_rid(page_no, slot)) == RID(page_no, slot)

    @pytest.mark.parametrize("slot", [2**SLOT_BITS, 2**SLOT_BITS + 1, -1])
    def test_slot_past_the_bounds_raises(self, slot):
        with pytest.raises(StorageError):
            pack_rid(3, slot)

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
