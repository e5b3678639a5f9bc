"""Unit and property tests for the paged B+-tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecordNotFoundError, StorageError
from repro.storage import BPlusTree, build_dense_index, build_sparse_index


def make_tree(page_size=512, pairs=None):
    tree = BPlusTree("t", page_size)
    if pairs:
        tree.bulk_load(sorted(pairs, key=lambda kp: kp[0]))
    return tree


class TestBulkLoad:
    def test_items_in_order(self):
        tree = make_tree(pairs=[(i, f"p{i}") for i in range(1000)])
        assert [k for k, _ in tree.items()] == list(range(1000))
        assert tree.size == 1000

    def test_unsorted_input_rejected(self):
        tree = BPlusTree("t", 512)
        with pytest.raises(StorageError):
            tree.bulk_load([(2, "a"), (1, "b")])

    def test_bulk_load_twice_rejected(self):
        tree = make_tree(pairs=[(1, "a")])
        with pytest.raises(StorageError):
            tree.bulk_load([(2, "b")])

    def test_empty_load_ok(self):
        tree = BPlusTree("t", 512)
        tree.bulk_load([])
        assert list(tree.items()) == []
        assert tree.height == 1

    def test_height_grows_logarithmically(self):
        small = make_tree(pairs=[(i, i) for i in range(10)])
        big = make_tree(pairs=[(i, i) for i in range(5000)])
        assert small.height <= big.height <= small.height + 4

    def test_bigger_pages_mean_shorter_trees(self):
        pairs = [(i, i) for i in range(20000)]
        short = BPlusTree("t", 8192)
        short.bulk_load(pairs)
        tall = BPlusTree("t", 512)
        tall.bulk_load(pairs)
        assert short.height < tall.height

    def test_invariants_after_bulk_load(self):
        make_tree(pairs=[(i, i) for i in range(3000)]).check_invariants()


class TestSearchAndRange:
    def test_lookup_exact(self):
        tree = make_tree(pairs=[(i, f"p{i}") for i in range(500)])
        assert tree.lookup(250) == ["p250"]
        assert tree.lookup(9999) == []

    def test_search_path_starts_at_root(self):
        tree = make_tree(pairs=[(i, i) for i in range(2000)])
        path = tree.search(1234)
        assert path.page_ids[0] == tree.root.page_id
        assert len(path.page_ids) == tree.height

    def test_range_entries_inclusive(self):
        tree = make_tree(pairs=[(i, i * 10) for i in range(100)])
        got = [(k, p) for _pg, k, p in tree.range_entries(10, 19)]
        assert got == [(k, k * 10) for k in range(10, 20)]

    def test_range_crossing_leaves(self):
        tree = make_tree(page_size=512, pairs=[(i, i) for i in range(1000)])
        got = [k for _pg, k, _p in tree.range_entries(0, 999)]
        assert got == list(range(1000))

    def test_range_empty_when_low_gt_high(self):
        tree = make_tree(pairs=[(i, i) for i in range(10)])
        assert list(tree.range_entries(5, 4)) == []

    def test_range_visits_distinct_leaf_pages(self):
        tree = make_tree(page_size=512, pairs=[(i, i) for i in range(1000)])
        leaf_pages = {pg for pg, _k, _p in tree.range_entries(0, 999)}
        assert len(leaf_pages) > 1

    def test_floor_entry(self):
        tree = make_tree(pairs=[(i * 10, i) for i in range(100)])
        _pg, key, payload = tree.floor_entry(55)
        assert key == 50
        assert payload == 5

    def test_floor_entry_below_min_raises(self):
        tree = make_tree(pairs=[(10, 1)])
        with pytest.raises(RecordNotFoundError):
            tree.floor_entry(5)

    def test_duplicate_keys_all_returned(self):
        tree = make_tree(pairs=[(1, "a"), (1, "b"), (2, "c")])
        assert sorted(tree.lookup(1)) == ["a", "b"]


class TestInsertDelete:
    def test_incremental_inserts_match_bulk(self):
        tree = BPlusTree("t", 512)
        import random

        rng = random.Random(42)
        keys = list(range(2000))
        rng.shuffle(keys)
        for k in keys:
            tree.insert(k, k)
        assert [k for k, _ in tree.items()] == list(range(2000))
        tree.check_invariants()

    def test_insert_returns_touched_pages(self):
        tree = make_tree(pairs=[(i, i) for i in range(100)])
        touched = tree.insert(50, "dup")
        assert touched  # at least the leaf

    def test_delete_removes_one_entry(self):
        tree = make_tree(pairs=[(i, i) for i in range(100)])
        tree.delete(42)
        assert tree.lookup(42) == []
        assert tree.size == 99

    def test_delete_specific_payload(self):
        tree = make_tree(pairs=[(1, "a"), (1, "b")])
        tree.delete(1, payload="a")
        assert tree.lookup(1) == ["b"]

    def test_delete_missing_raises(self):
        tree = make_tree(pairs=[(1, "a")])
        with pytest.raises(RecordNotFoundError):
            tree.delete(99)

    def test_delete_missing_payload_raises(self):
        tree = make_tree(pairs=[(1, "a")])
        with pytest.raises(RecordNotFoundError):
            tree.delete(1, payload="zzz")

    def test_root_split_grows_height(self):
        tree = BPlusTree("t", 512)
        h0 = tree.height
        for i in range(5000):
            tree.insert(i, i)
        assert tree.height > h0
        tree.check_invariants()


class TestBuilders:
    def test_dense_index_sorts_input(self):
        tree = build_dense_index("d", 4096, [(3, "c"), (1, "a"), (2, "b")])
        assert [k for k, _ in tree.items()] == [1, 2, 3]

    def test_sparse_index_floor_semantics(self):
        # Data pages with first keys 0, 100, 200 -> key 150 lives on page 1.
        tree = build_sparse_index("s", 4096, [(0, 0), (100, 1), (200, 2)])
        _pg, _key, page_no = tree.floor_entry(150)
        assert page_no == 1


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=400),
    page_size=st.sampled_from([512, 1024, 4096]),
)
def test_property_insert_preserves_sorted_order_and_invariants(keys, page_size):
    tree = BPlusTree("t", page_size)
    for k in keys:
        tree.insert(k, k)
    assert [k for k, _ in tree.items()] == sorted(keys)
    tree.check_invariants()


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=1000), min_size=1, max_size=200, unique=True
    ),
    data=st.data(),
)
def test_property_delete_then_membership(keys, data):
    tree = BPlusTree("t", 512)
    for k in sorted(keys):
        tree.insert(k, k)
    doomed = data.draw(
        st.lists(st.sampled_from(keys), max_size=len(keys), unique=True)
    )
    for k in doomed:
        tree.delete(k)
    survivors = sorted(set(keys) - set(doomed))
    assert [k for k, _ in tree.items()] == survivors
    for k in doomed:
        assert tree.lookup(k) == []


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=5000), min_size=1, max_size=300, unique=True
    ),
    bounds=st.tuples(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=0, max_value=5000),
    ),
)
def test_property_range_matches_filter(keys, bounds):
    low, high = min(bounds), max(bounds)
    tree = BPlusTree("t", 1024)
    tree.bulk_load([(k, k) for k in sorted(keys)])
    got = [k for _pg, k, _p in tree.range_entries(low, high)]
    assert got == sorted(k for k in keys if low <= k <= high)


class TestDuplicateKeyReads:
    """Entries of a duplicated key sit on both sides of a separator equal
    to it; every read must start from the leftmost leaf that holds one."""

    N = 500

    def _pairs(self):
        return sorted(((i % 3, i) for i in range(self.N)),
                      key=lambda kp: kp[0])

    def test_bulk_loaded_lookup_and_range_see_every_entry(self):
        tree = BPlusTree("t", 2048)
        tree.bulk_load(self._pairs())
        assert sorted(tree.lookup(1)) == [i for i in range(self.N)
                                          if i % 3 == 1]
        assert len(list(tree.range_entries(0, 2))) == self.N

    def test_insert_built_lookup_sees_every_entry(self):
        tree = BPlusTree("t", 2048)
        for i in range(self.N):
            tree.insert(i % 3, i)
        for key in range(3):
            assert sorted(tree.lookup(key)) == [
                i for i in range(self.N) if i % 3 == key
            ]

    def test_unique_keys_read_from_the_search_leaf(self):
        # For unique keys the left descent changes nothing: the scan
        # yields the same (leaf page, key, payload) sequence as one that
        # starts at the leaf ``search`` reaches.
        tree = make_tree(page_size=512, pairs=[(i, i) for i in range(2000)])
        for low in (0, 1, 37, 38, 999, 1998):
            path = tree.search(low)
            start = path.leaf.keys[path.index]
            got = list(tree.range_entries(low, low + 300))
            assert got[0] == (path.leaf.page_id, start, start)
            assert [k for _pg, k, _p in got] == list(
                range(low, min(low + 301, 2000)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=400),
    domain=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    bulk=st.booleans(),
    page_size=st.sampled_from([512, 1024, 2048]),
    data=st.data(),
)
def test_property_reads_match_sorted_list_model(
    n, domain, seed, bulk, page_size, data
):
    """Bulk-loaded or insert-built, with duplicates or without, after
    deletes: ``lookup``, ``range_entries`` and ``items`` agree with a
    sorted list of ``(key, payload)`` entries."""
    import random

    rng = random.Random(seed)
    if data.draw(st.booleans(), label="unique keys"):
        keys = rng.sample(range(n + domain), n)
    else:
        keys = [rng.randrange(domain) for _ in range(n)]
    model = sorted((key, i) for i, key in enumerate(keys))
    tree = BPlusTree("t", page_size)
    if bulk:
        tree.bulk_load(model)
    else:
        for payload, key in enumerate(keys):
            tree.insert(key, payload)
    if model:
        doomed = data.draw(
            st.lists(st.sampled_from(model), max_size=len(model),
                     unique=True),
            label="deleted entries",
        )
        for key, payload in doomed:
            tree.delete(key, payload)
            model.remove((key, payload))
    assert sorted(tree.items()) == model
    assert tree.size == len(model)
    top = n + domain
    for key in range(-1, top + 1):
        assert sorted(tree.lookup(key)) == [p for k, p in model if k == key]
    low = data.draw(st.integers(min_value=-1, max_value=top), label="low")
    high = data.draw(st.integers(min_value=low, max_value=top + 1),
                     label="high")
    got = [(k, p) for _pg, k, p in tree.range_entries(low, high)]
    assert [k for k, _p in got] == sorted(k for k, _p in got)
    assert sorted(got) == [(k, p) for k, p in model if low <= k <= high]
