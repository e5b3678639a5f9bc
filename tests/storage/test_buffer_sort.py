"""Tests for the buffer pool and external sort accounting."""

import pytest

from repro.errors import StorageError
from repro.storage import BufferPool, external_sort


class TestBufferPool:
    def test_first_access_misses_second_hits(self):
        pool = BufferPool("bp", 10)
        assert pool.access("f", 0) is False
        assert pool.access("f", 0) is True
        assert pool.hits == 1
        assert pool.misses == 1

    def test_lru_eviction_order(self):
        pool = BufferPool("bp", 2)
        pool.access("f", 0)
        pool.access("f", 1)
        pool.access("f", 0)  # page 0 now most recent
        pool.access("f", 2)  # evicts page 1
        assert pool.contains("f", 0)
        assert not pool.contains("f", 1)
        assert pool.contains("f", 2)

    def test_capacity_never_exceeded(self):
        pool = BufferPool("bp", 3)
        for i in range(100):
            pool.access("f", i)
        assert len(pool) == 3

    def test_distinct_files_distinct_pages(self):
        pool = BufferPool("bp", 10)
        pool.access("f", 0)
        assert pool.access("g", 0) is False

    def test_hit_ratio(self):
        pool = BufferPool("bp", 10)
        pool.access("f", 0)
        pool.access("f", 0)
        pool.access("f", 0)
        assert pool.hit_ratio == pytest.approx(2 / 3)

    def test_zero_capacity_rejected(self):
        with pytest.raises(StorageError):
            BufferPool("bp", 0)


class TestExternalSort:
    def test_sorts_correctly(self):
        records = [(i % 7, i) for i in range(100)]
        out, _stats = external_sort(
            records, key=lambda r: r[0], record_bytes=8,
            page_size=4096, memory_bytes=1 << 20,
        )
        assert [r[0] for r in out] == sorted(r[0] for r in records)

    def test_in_memory_sort_reads_and_writes_once(self):
        records = [(i,) for i in range(1000)]
        _out, stats = external_sort(
            records, key=lambda r: r[0], record_bytes=100,
            page_size=4096, memory_bytes=10 << 20,
        )
        assert stats.merge_passes == 0
        assert stats.pages_read == stats.n_pages
        assert stats.pages_written == stats.n_pages

    def test_limited_memory_needs_merge_passes(self):
        records = [((i * 37) % 1000, i) for i in range(1000)]
        out, stats = external_sort(
            records, key=lambda r: r[0], record_bytes=200,
            page_size=4096, memory_bytes=4096,  # one page of workspace
        )
        assert [r[0] for r in out] == sorted(r[0] for r in records)
        assert stats.run_count > 1
        assert stats.merge_passes >= 1
        assert stats.pages_read > stats.n_pages

    def test_more_memory_fewer_ios(self):
        records = [((i * 37) % 1000, i) for i in range(2000)]
        _o, tight = external_sort(
            records, key=lambda r: r[0], record_bytes=200,
            page_size=4096, memory_bytes=4096,
        )
        _o, roomy = external_sort(
            records, key=lambda r: r[0], record_bytes=200,
            page_size=4096, memory_bytes=1 << 20,
        )
        assert roomy.total_page_ios < tight.total_page_ios

    def test_empty_input(self):
        out, stats = external_sort(
            [], key=lambda r: r, record_bytes=8,
            page_size=4096, memory_bytes=4096,
        )
        assert out == []
        assert stats.total_page_ios == 0

    def test_invalid_memory_rejected(self):
        with pytest.raises(StorageError):
            external_sort([], key=lambda r: r, record_bytes=8,
                          page_size=4096, memory_bytes=0)

    def test_invalid_fanin_rejected(self):
        with pytest.raises(StorageError):
            external_sort([], key=lambda r: r, record_bytes=8,
                          page_size=4096, memory_bytes=4096, merge_fanin=1)
