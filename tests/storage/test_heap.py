"""Tests for heap files."""

import pytest

from repro.errors import RecordNotFoundError
from repro.storage import HeapFile, RID, Schema, build_heap_file, expected_pages, int_attr


def schema2():
    return Schema([int_attr("a"), int_attr("b")])


def rid_of(hf, key):
    """The RID of the first record whose first field is ``key``."""
    return next(rid for rid, record in hf.rids() if record[0] == key)


class TestHeapFile:
    def test_append_returns_stable_rids(self):
        hf = HeapFile("f", schema2(), 4096)
        rids = [hf.append((i, i * 2)) for i in range(10)]
        for i, rid in enumerate(rids):
            assert hf.fetch(rid) == (i, i * 2)

    def test_pages_fill_before_new_page(self):
        schema = schema2()
        per_page = (4096 - 32) // (schema.tuple_bytes + 30)
        hf = build_heap_file("f", schema, 4096, [(i, i) for i in range(per_page + 1)])
        assert hf.num_pages == 2
        assert hf.pages[0].num_records == per_page
        assert hf.pages[1].num_records == 1

    def test_expected_pages_helper_matches_reality(self):
        schema = schema2()
        n = 500
        hf = build_heap_file("f", schema, 4096, [(i, i) for i in range(n)])
        assert hf.num_pages == expected_pages(n, schema, 4096)

    def test_expected_pages_zero_records(self):
        assert expected_pages(0, schema2(), 4096) == 0

    def test_records_iterates_everything_in_order(self):
        hf = build_heap_file("f", schema2(), 4096, [(i, 0) for i in range(100)])
        assert [r[0] for r in hf.records()] == list(range(100))

    def test_delete_and_count(self):
        hf = build_heap_file("f", schema2(), 4096, [(i, 0) for i in range(10)])
        deleted = hf.delete(rid_of(hf, 5))
        assert deleted == (5, 0)
        assert hf.num_records == 9
        assert all(r[0] != 5 for r in hf.records())

    def test_fetch_bad_page_raises(self):
        hf = HeapFile("f", schema2(), 4096)
        with pytest.raises(RecordNotFoundError):
            hf.fetch(RID(99, 0))

    def test_replace(self):
        hf = build_heap_file("f", schema2(), 4096, [(1, 1)])
        rid = rid_of(hf, 1)
        hf.replace(rid, (1, 99))
        assert hf.fetch(rid) == (1, 99)

    def test_scan_pages_range(self):
        hf = build_heap_file("f", schema2(), 4096, [(i, 0) for i in range(300)])
        pages = list(hf.scan_pages(start_page=1, end_page=3))
        assert [p[0] for p in pages] == [1, 2]

    def test_rids_roundtrip(self):
        hf = build_heap_file("f", schema2(), 4096, [(i, 0) for i in range(50)])
        for rid, record in hf.rids():
            assert hf.fetch(rid) == record
