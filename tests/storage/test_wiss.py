"""Tests for the StoredFile facade (WiSS)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import Schema, StoredFile, int_attr


def schema():
    return Schema([int_attr("key"), int_attr("other"), int_attr("payload")])


def records(n, shuffle_seed=None):
    recs = [(i, (i * 7919) % n, i * 10) for i in range(n)]
    if shuffle_seed is not None:
        import random

        random.Random(shuffle_seed).shuffle(recs)
    return recs


def _find(sf, key):
    """``(rid, record)`` of the stored record whose key is ``key``."""
    return next((rid, r) for rid, r in sf.heap.rids() if r[0] == key)


class TestCreate:
    def test_heap_preserves_input_order(self):
        recs = records(100, shuffle_seed=1)
        sf = StoredFile.create("r", schema(), 4096, recs)
        assert list(sf.records()) == recs

    def test_clustered_sorts_by_key(self):
        sf = StoredFile.create(
            "r", schema(), 4096, records(100, shuffle_seed=1), clustered_on="key"
        )
        keys = [r[0] for r in sf.records()]
        assert keys == sorted(keys)

    def test_clustered_index_is_sparse(self):
        sf = StoredFile.create(
            "r", schema(), 4096, records(1000), clustered_on="key"
        )
        # One index entry per data page, far fewer than records.
        assert sf.clustered_index.size == sf.num_pages

    def test_secondary_index_is_dense(self):
        sf = StoredFile.create("r", schema(), 4096, records(500))
        sf.add_secondary_index("other")
        assert sf.secondary["other"].size == 500

    def test_duplicate_secondary_rejected(self):
        sf = StoredFile.create("r", schema(), 4096, records(10))
        sf.add_secondary_index("other")
        with pytest.raises(StorageError):
            sf.add_secondary_index("other")

    def test_has_index_on(self):
        sf = StoredFile.create("r", schema(), 4096, records(10), clustered_on="key")
        sf.add_secondary_index("other")
        assert sf.has_index_on("key")
        assert sf.has_index_on("other")
        assert not sf.has_index_on("payload")


class TestScans:
    def test_full_scan_sees_everything(self):
        sf = StoredFile.create("r", schema(), 4096, records(300))
        pages = list(sf.filter_pages(lambda records: records, None))
        seen = [r for _pg, _live, recs in pages for r in recs]
        assert len(seen) == sum(live for _pg, live, _recs in pages) == 300

    def test_clustered_scan_returns_only_range(self):
        sf = StoredFile.create(
            "r", schema(), 4096, records(1000), clustered_on="key"
        )
        _descent, pages = sf.clustered_scan(100, 199)
        got = sorted(r[0] for _pg, recs in pages for r in recs)
        assert got == list(range(100, 200))

    def test_clustered_scan_reads_fraction_of_pages(self):
        sf = StoredFile.create(
            "r", schema(), 4096, records(10_000), clustered_on="key"
        )
        _descent, pages = sf.clustered_scan(0, 99)  # 1% of keys
        touched = [pg for pg, _recs in pages]
        assert len(touched) < sf.num_pages / 10

    def test_clustered_scan_descent_length_is_tree_height(self):
        sf = StoredFile.create(
            "r", schema(), 4096, records(10_000), clustered_on="key"
        )
        descent, _pages = sf.clustered_scan(5000, 5100)
        assert len(descent) == sf.clustered_index.height

    def test_secondary_range_yields_rids(self):
        sf = StoredFile.create("r", schema(), 4096, records(1000))
        sf.add_secondary_index("other")
        _descent, entries = sf.secondary_range("other", 0, 49)
        fetched = [sf.fetch(rid) for _pg, _k, rid in entries]
        assert sorted(r[1] for r in fetched) == list(range(50))

    def test_secondary_range_missing_index_raises(self):
        sf = StoredFile.create("r", schema(), 4096, records(10))
        with pytest.raises(StorageError):
            sf.secondary_range("payload", 0, 1)

    def test_exact_match_clustered(self):
        sf = StoredFile.create(
            "r", schema(), 4096, records(1000), clustered_on="key"
        )
        accesses, hit = sf.exact_match_clustered(123)
        assert hit is not None
        _rid, record = hit
        assert record[0] == 123
        assert len(accesses) >= 2  # index descent + data page

    def test_exact_match_clustered_miss(self):
        sf = StoredFile.create(
            "r", schema(), 4096, records(100), clustered_on="key"
        )
        _accesses, hit = sf.exact_match_clustered(100000)
        assert hit is None

    def test_exact_match_secondary(self):
        sf = StoredFile.create("r", schema(), 4096, records(1000))
        sf.add_secondary_index("other")
        _accesses, hit = sf.exact_match_secondary("other", 7919 % 1000)
        assert hit is not None
        assert hit[1][1] == 7919 % 1000


class TestUpdates:
    def test_append_heap(self):
        sf = StoredFile.create("r", schema(), 4096, records(10))
        rid, accesses = sf.append((999, 999, 0))
        assert sf.fetch(rid) == (999, 999, 0)
        assert any(a.write for a in accesses)
        assert sf.num_records == 11

    def test_append_maintains_secondary(self):
        sf = StoredFile.create("r", schema(), 4096, records(10))
        sf.add_secondary_index("other")
        sf.append((999, 12345, 0))
        _descent, entries = sf.secondary_range("other", 12345, 12345)
        assert len(list(entries)) == 1
        assert sf.deferred_update_entries == 1

    def test_append_clustered_keeps_order(self):
        sf = StoredFile.create(
            "r", schema(), 4096, [(i * 2, 0, 0) for i in range(200)],
            clustered_on="key",
        )
        sf.append((101, 0, 0))  # odd key goes between 100 and 102
        keys = [r[0] for r in sf.records()]
        # Physical order within pages may interleave after splits, but a
        # clustered range scan must still return exactly the right records.
        assert 101 in keys
        _d, pages = sf.clustered_scan(100, 102)
        got = sorted(r[0] for _pg, recs in pages for r in recs)
        assert got == [100, 101, 102]

    def test_append_clustered_full_page_splits(self):
        sf = StoredFile.create(
            "r", schema(), 2048, [(i, 0, 0) for i in range(500)],
            clustered_on="key",
        )
        pages_before = sf.num_pages
        # Every page is packed, so an insert in the middle must split.
        sf.append((250, 1, 1))
        assert sf.num_pages == pages_before + 1
        _d, pages = sf.clustered_scan(250, 250)
        got = [r for _pg, recs in pages for r in recs]
        assert len(got) == 2  # the original 250 and the new one

    def test_split_fixes_secondary_index(self):
        sf = StoredFile.create(
            "r", schema(), 2048,
            [(i, i + 10_000, 0) for i in range(500)], clustered_on="key",
        )
        sf.add_secondary_index("other")
        sf.append((250, 99_999, 1))
        # After the split every secondary entry must still resolve.
        _d, entries = sf.secondary_range("other", 0, 99_999)
        resolved = [(key, sf.fetch(rid)[1]) for _pg, key, rid in entries]
        assert len(resolved) == 501
        assert all(key == stored for key, stored in resolved)

    def test_split_refiles_entries_of_a_non_unique_secondary(self):
        sf = StoredFile.create(
            "r", schema(), 2048, [(i, i % 3, 0) for i in range(500)],
            clustered_on="key",
        )
        sf.add_secondary_index("other")
        sf.append((250, 1, 1))
        # From below every key, so the range walks the whole leaf chain.
        _d, entries = sf.secondary_range("other", -1, 3)
        indexed = []
        for _pg, key, rid in entries:
            assert sf.fetch(rid)[1] == key
            indexed.append(rid)
        assert len(indexed) == 501
        assert sorted(indexed) == sorted(rid for rid, _rec in sf.heap.rids())

    def test_delete_record(self):
        sf = StoredFile.create("r", schema(), 4096, records(100))
        sf.add_secondary_index("other")
        rid, rec = _find(sf, 42)
        deleted, accesses = sf.delete_record(rid)
        assert deleted == rec
        assert sf.num_records == 99
        assert all(r[0] != 42 for r in sf.records())
        _d, entries = sf.secondary_range("other", rec[1], rec[1])
        assert list(entries) == []

    def test_replace_record_in_place(self):
        sf = StoredFile.create("r", schema(), 4096, records(100))
        rid, rec = _find(sf, 10)
        old, _acc = sf.replace_record(rid, (10, rec[1], 777))
        assert old == rec
        assert sf.fetch(rid) == (10, rec[1], 777)

    def test_replace_record_updates_changed_index(self):
        sf = StoredFile.create("r", schema(), 4096, records(100))
        sf.add_secondary_index("other")
        rid, rec = _find(sf, 10)
        sf.replace_record(rid, (10, 88_888, rec[2]))
        _d, entries = sf.secondary_range("other", 88_888, 88_888)
        assert [sf.fetch(r) for _pg, _k, r in entries] == [(10, 88_888, rec[2])]

    def test_clustered_index_property_missing_raises(self):
        sf = StoredFile.create("r", schema(), 4096, records(5))
        with pytest.raises(StorageError):
            sf.clustered_index


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    low=st.integers(min_value=0, max_value=300),
    span=st.integers(min_value=0, max_value=100),
)
def test_property_clustered_scan_equals_filter(n, low, span):
    sf = StoredFile.create(
        "r", schema(), 2048, records(n, shuffle_seed=7), clustered_on="key"
    )
    high = low + span
    _d, pages = sf.clustered_scan(low, high)
    got = sorted(r[0] for _pg, recs in pages for r in recs)
    assert got == [k for k in range(n) if low <= k <= high]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=200))
def test_property_secondary_index_complete(n):
    sf = StoredFile.create("r", schema(), 2048, records(n, shuffle_seed=3))
    sf.add_secondary_index("other")
    index_keys = sorted(k for k, _rid in sf.secondary["other"].items())
    data_keys = sorted(r[1] for r in sf.records())
    assert index_keys == data_keys
