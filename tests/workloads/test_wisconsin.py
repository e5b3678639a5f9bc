"""Tests for the Wisconsin benchmark generator."""

import hashlib
import tracemalloc

import pytest

from repro.errors import BenchmarkError
from repro.storage import column
from repro.workloads import (
    INT_ATTRS,
    TUPLE_BYTES,
    generate_hot_key_tuples,
    generate_skewed_tuples,
    generate_tuples,
    selection_range,
    wisconsin,
    wisconsin_relation,
    wisconsin_schema,
)


@pytest.fixture
def cold_source(monkeypatch):
    """An empty relation memo and int table for one test (the process's
    own come back afterwards), returned with the module so the test can
    set its bound."""
    monkeypatch.setattr(wisconsin, "_MEMO", {})
    monkeypatch.setattr(column, "_INTS", [])
    return wisconsin


class TestSchema:
    def test_208_bytes(self):
        assert wisconsin_schema().tuple_bytes == TUPLE_BYTES == 208

    def test_sixteen_attributes(self):
        assert len(wisconsin_schema()) == 16

    def test_attribute_order(self):
        names = wisconsin_schema().names()
        assert names[:13] == list(INT_ATTRS)
        assert names[13:] == ["stringu1", "stringu2", "string4"]


class TestGenerator:
    def test_unique1_unique2_are_permutations(self):
        tuples = list(generate_tuples(1000, seed=1))
        u1 = sorted(t[0] for t in tuples)
        u2 = sorted(t[1] for t in tuples)
        assert u1 == list(range(1000))
        assert u2 == list(range(1000))

    def test_unique1_unique2_uncorrelated(self):
        tuples = list(generate_tuples(1000, seed=1))
        matches = sum(1 for t in tuples if t[0] == t[1])
        assert matches < 20  # expected ~1 for a random permutation pair

    def test_deterministic_for_seed(self):
        a = list(generate_tuples(100, seed=7))
        b = list(generate_tuples(100, seed=7))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(generate_tuples(100, seed=1))
        b = list(generate_tuples(100, seed=2))
        assert a != b

    def test_derived_attributes_consistent(self):
        schema = wisconsin_schema()
        pos = {name: schema.position(name) for name in INT_ATTRS}
        for t in generate_tuples(500, seed=3):
            u1 = t[pos["unique1"]]
            assert t[pos["two"]] == u1 % 2
            assert t[pos["four"]] == u1 % 4
            assert t[pos["ten"]] == u1 % 10
            assert t[pos["hundred"]] == u1 % 100
            assert t[pos["tenthous"]] == u1 % 10000
            assert t[pos["odd100"]] % 2 == 1
            assert t[pos["even100"]] % 2 == 0

    def test_full_strings_are_unique_and_52_bytes(self):
        tuples = list(generate_tuples(200, seed=1, strings="full"))
        s1 = {t[13] for t in tuples}
        assert len(s1) == 200
        assert all(len(t[13]) == 52 for t in tuples)

    def test_cheap_strings_shared(self):
        tuples = list(generate_tuples(100, seed=1))
        assert len({id(t[13]) for t in tuples}) == 1

    def test_zero_tuples_rejected(self):
        with pytest.raises(BenchmarkError):
            list(generate_tuples(0))

    def test_bad_arguments_rejected_at_the_call(self):
        # A generator function would raise only once advanced, so a bare
        # call with a bad argument used to succeed silently.
        with pytest.raises(BenchmarkError, match="tuple"):
            generate_tuples(0)
        with pytest.raises(BenchmarkError, match="tuple"):
            generate_skewed_tuples(0, skew=1.0, domain=5)
        with pytest.raises(BenchmarkError, match="skew"):
            generate_skewed_tuples(10, skew=-0.1)
        with pytest.raises(BenchmarkError, match="skew_attr"):
            generate_skewed_tuples(10, skew_attr="stringu1")
        with pytest.raises(BenchmarkError, match="domain"):
            generate_skewed_tuples(10, domain=0)
        with pytest.raises(BenchmarkError, match="hot_fraction"):
            generate_hot_key_tuples(10, hot_fraction=1.5)
        with pytest.raises(BenchmarkError, match="tuple"):
            generate_hot_key_tuples(0)


def _sha256(tuples):
    digest = hashlib.sha256()
    for row in tuples:
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


class TestPinnedData:
    """sha256 of the generated rows, computed with the per-tuple generator
    this one replaced (parent of PR 12): the same ``random.Random(seed)``
    draws in the same order, so stored results and golden timelines hold."""

    @pytest.mark.parametrize("n, seed, strings, expected", [
        (1, 3, "cheap",
         "bb6680ad3ae382d960768d0fc6220a912910d6be44ffdf4d66fb30f75ab6c84f"),
        (1_000, 7, "cheap",
         "878032d3f564d64c0e947c2624b7a95dacc816530b6eb390a9eca9e0cba33d03"),
        (20_000, 1988, "cheap",
         "616d689f8ef81e7cab3fd869e950cfff3d8d946f004528ed74bee19fc152d974"),
        (1_000, 7, "full",
         "3c1276824d8e9095b8f1d7c62b264ea5e927e19ae826115c189685d7c9c53085"),
        (12_345, 42, "full",
         "9985403d5eb9c6e15c2e2e41ac01ade4f1e5895c42f6315e13cc30f9fbbc6838"),
    ])
    def test_uniform_relations(self, n, seed, strings, expected):
        rows = generate_tuples(n, seed=seed, strings=strings)
        assert _sha256(rows) == expected

    def test_skewed_relations(self):
        assert _sha256(generate_skewed_tuples(
            5_000, seed=11, skew=1.0, domain=500,
        )) == (
            "36cf203c33c16d64fadebb855389e7ff30064639c6d1464882f865132fe9f709"
        )
        assert _sha256(generate_skewed_tuples(
            3_000, seed=5, skew=0.5, skew_attr="tenthous", domain=100,
            strings="full",
        )) == (
            "612fcae70f187c219ada9bd6cd82b5413168158f2b421f36ee89595c479814c7"
        )

    def test_hot_key_relations(self):
        assert _sha256(generate_hot_key_tuples(
            5_000, seed=13, hot_fraction=0.3, hot_value=7, domain=1_000,
        )) == (
            "c91d902da5ae92b1ba9170f260640a47b3135485957b9d2aa1144ddf7bcdb2bc"
        )
        assert _sha256(generate_hot_key_tuples(
            2_000, seed=2, hot_fraction=0.5, strings="full",
        )) == (
            "2942b9a4b694974ce14c088682b27ab79305faf76654f649c09d588c4276dec4"
        )


class TestRelationSource:
    def test_a_tuple_allocates_nothing_but_itself(self, cold_source):
        # 353 bytes per tuple before the ints were shared (four fresh
        # ints a row); now the row, two list slots and — the table being
        # cold here — its share of the int table.
        n = 20_000
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            rows = list(generate_tuples(n))
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == n
        assert (after - before) / n <= 260

    def test_equal_values_are_one_object_across_relations(self):
        a = wisconsin_relation(3_000, seed=1)
        b = wisconsin_relation(2_500, seed=2)
        thousand = INT_ATTRS.index("thousand")
        by_value = {row[0]: row for row in b}
        for row in a[:200]:
            if row[0] in by_value:
                other = by_value[row[0]]
                assert other[0] is row[0]  # above CPython's small ints
                assert other[thousand] is row[thousand]

    def test_same_relation_object_per_key(self, cold_source):
        first = wisconsin_relation(500, seed=9)
        assert wisconsin_relation(500, seed=9) is first
        assert wisconsin_relation(500, seed=9, strings="full") is not first
        assert wisconsin_relation(500, seed=10) is not first
        assert all(a is b for a, b in zip(generate_tuples(500, seed=9), first))

    def test_relations_are_immutable(self):
        relation = wisconsin_relation(50, seed=1)
        assert type(relation) is tuple
        assert all(type(row) is tuple for row in relation)

    def test_memo_evicts_oldest_first_past_its_bound(
        self, cold_source, monkeypatch
    ):
        monkeypatch.setattr(cold_source, "MEMO_MAX_TUPLES", 250)
        for seed in (1, 2):
            wisconsin_relation(100, seed=seed)
        assert list(cold_source._MEMO) == [
            (100, 1, "cheap"), (100, 2, "cheap"),
        ]
        wisconsin_relation(100, seed=1)  # a hit does not renew its place
        wisconsin_relation(100, seed=3)
        assert list(cold_source._MEMO) == [
            (100, 2, "cheap"), (100, 3, "cheap"),
        ]
        wisconsin_relation(250, seed=4)  # exactly the bound: alone
        assert list(cold_source._MEMO) == [(250, 4, "cheap")]

    def test_over_bound_relation_is_built_but_not_kept(
        self, cold_source, monkeypatch
    ):
        monkeypatch.setattr(cold_source, "MEMO_MAX_TUPLES", 250)
        kept = wisconsin_relation(100, seed=1)
        big = wisconsin_relation(251, seed=5)
        assert len(big) == 251
        assert sorted(row[0] for row in big) == list(range(251))
        assert list(cold_source._MEMO) == [(100, 1, "cheap")]
        assert wisconsin_relation(100, seed=1) is kept
        assert wisconsin_relation(251, seed=5) is not big
        assert wisconsin_relation(251, seed=5) == big
        assert len(column._INTS) <= 250


class TestSelectionRange:
    def test_one_percent_of_10k(self):
        r = selection_range(10_000, 0.01)
        assert r.count == 100
        assert r.attr == "unique2"

    def test_ten_percent(self):
        r = selection_range(10_000, 0.10)
        assert r.count == 1000

    def test_hundred_percent(self):
        r = selection_range(1000, 1.0)
        assert r.count == 1000
        assert r.low == 0

    def test_zero_percent_is_empty_range(self):
        r = selection_range(1000, 0.0)
        assert r.high < r.low or r.high < 0

    def test_range_selects_exact_count(self):
        n = 5000
        r = selection_range(n, 0.01)
        tuples = generate_tuples(n, seed=5)
        hits = sum(1 for t in tuples if r.low <= t[1] <= r.high)
        assert hits == r.count == 50

    def test_bad_selectivity_rejected(self):
        with pytest.raises(BenchmarkError):
            selection_range(100, 1.5)
