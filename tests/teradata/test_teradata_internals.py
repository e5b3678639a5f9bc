"""Unit tests for the DBC/1012 internals: dense hash index, fragments,
merge join, and the executor's cost structure."""

import random

import pytest

from repro.catalog import gamma_hash, gamma_mix
from repro.engine import Query, RangePredicate
from repro.storage import Schema, int_attr
from repro.teradata import DenseHashIndex, TeradataMachine, hash_key_order
from repro.teradata.amp import AmpFragment, hash_partition
from repro.teradata.executor import _merge_join
from repro.hardware import TeradataConfig
from repro.workloads import wisconsin_relation


def schema():
    return Schema([int_attr("key"), int_attr("other")])


class TestDenseHashIndex:
    def test_entries_in_hash_order_not_key_order(self):
        index = DenseHashIndex("i", "other", 4096)
        index.build(list(range(100)))
        values = list(index.entries.values())
        assert sorted(values) == list(range(100))
        assert values != sorted(values)  # hashed, NOT key sorted

    def test_matching_scans_whole_range(self):
        index = DenseHashIndex("i", "other", 4096)
        index.build([v * 2 for v in range(50)])
        assert sorted(index.matching(10, 20)) == sorted(
            i for i in range(50) if 10 <= i * 2 <= 20
        )

    def test_exact(self):
        index = DenseHashIndex("i", "other", 4096)
        index.build([5, 7, 5])
        assert sorted(index.exact(5)) == [0, 2]

    def test_num_pages_from_entry_width(self):
        index = DenseHashIndex("i", "other", 4096)
        index.build(list(range(1000)))
        per_page = (4096 - 32) // (16 + 30)
        assert index.num_pages == -(-1000 // per_page)


class TestAmpFragment:
    def _fragment(self, n=100):
        records = [(i, n - i) for i in range(n)]
        return AmpFragment(
            "f", schema(), "key", 4096, hash_key_order(records, 0)
        )

    def test_records_stored_in_hash_key_order(self):
        frag = self._fragment()
        hashes = [gamma_hash(r[0], 1 << 30) for r in frag.records]
        assert hashes == sorted(hashes)

    def test_append_maintains_indexes(self):
        frag = self._fragment()
        frag.add_index("other")
        frag.append((999, 12345))
        assert 12345 in frag.indexes["other"].entries.values()

    def test_remove_clears_index_entries(self):
        frag = self._fragment()
        frag.add_index("other")
        target = frag.records[3]
        frag.remove(3)
        assert 3 not in frag.indexes["other"].entries
        assert target not in list(frag.live_records())

    def test_replace_updates_changed_index(self):
        frag = self._fragment()
        frag.add_index("other")
        old = frag.records[5]
        frag.replace(5, (old[0], 77_777))
        assert frag.indexes["other"].entries[5] == 77_777

    def test_index_added_after_a_remove_files_live_tuples_only(self):
        frag = self._fragment(10)
        kept = self._fragment(10)
        kept.add_index("other")  # built before the remove, then kept up
        for fragment in (frag, kept):
            fragment.remove(3)
        frag.add_index("other")
        index = frag.indexes["other"]
        live = {
            i: r[1] for i, r in enumerate(frag.records) if r is not None
        }
        assert 3 not in live and len(index) == len(live) == 9
        for low, high in [(0, 10), (2, 6), (5, 5), (11, 20)]:
            model = [i for i, v in live.items() if low <= v <= high]
            assert sorted(index.matching(low, high)) == model
            assert index.matching(low, high) == kept.indexes[
                "other"
            ].matching(low, high)
        for value in range(12):
            model = [i for i, v in live.items() if v == value]
            assert sorted(index.exact(value)) == model

    def test_page_of_ordinal(self):
        frag = self._fragment(1000)
        per_page = frag.heap.records_per_full_page
        assert frag.page_of_ordinal(0) == 0
        assert frag.page_of_ordinal(per_page) == 1


def _reference_fragments(records, key_pos, n_amps):
    """The load as it was before one mix per record served both steps:
    hash each key for its AMP, then sort each AMP's share by a second
    hash of the key (stable, so equal keys keep load order)."""
    buckets = [[] for _ in range(n_amps)]
    for record in records:
        buckets[gamma_hash(record[key_pos], n_amps)].append(record)
    return [
        sorted(bucket, key=lambda r: (
            gamma_hash(r[key_pos], 1 << 30), r[key_pos]
        ))
        for bucket in buckets
    ]


def _reference_locate(fragments, sites, pos, value):
    """The front-to-back scan ``TeradataUpdateRun._locate`` used to do."""
    for amp_no in sites:
        for ordinal, record in enumerate(fragments[amp_no].records):
            if record is not None and record[pos] == value:
                return amp_no, ordinal
    return 0, None


class TestHashPartition:
    def test_mix_is_the_hash_before_the_modulo(self):
        for value in (0, 1, 99, 12_345, 2**40, -7, "amp3.file", (1, "x")):
            for buckets in (1, 2, 7, 20, 1 << 30):
                assert gamma_mix(value) % buckets == gamma_hash(value, buckets)

    @pytest.mark.parametrize("seed", range(8))
    def test_same_fragments_in_the_same_order(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 400)
        # Few distinct keys, so equal keys (and their load order) occur;
        # the payload makes equal-key records distinguishable.
        domain = rng.choice([3, n, 10 * n])
        if seed % 2:
            records = [(rng.randrange(domain), i) for i in range(n)]
            key_pos = 0
        else:
            records = [(i, f"k{rng.randrange(domain)}") for i in range(n)]
            key_pos = 1
        n_amps = rng.choice([1, 2, 5, 20])
        assert hash_partition(records, key_pos, n_amps) == (
            _reference_fragments(records, key_pos, n_amps)
        )

    def test_machine_load_matches_the_reference(self):
        m = TeradataMachine(TeradataConfig(n_amps=7))
        relation = m.load_wisconsin("r", 3_000, seed=12)
        assert [f.records for f in relation.fragments] == (
            _reference_fragments(wisconsin_relation(3_000, 12), 0, 7)
        )


class TestLocate:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_scan_through_random_updates(self, seed):
        rng = random.Random(seed)
        n, n_amps = 300, 4
        # "other" repeats values, so first-ordinal ties really happen.
        records = [(i, rng.randrange(40)) for i in range(n)]
        fragments = [
            AmpFragment(f"f{i}", schema(), "key", 4096, bucket)
            for i, bucket in enumerate(hash_partition(records, 0, n_amps))
        ]
        for fragment in fragments:
            fragment.add_index("other")
        # The index as the list of (value, ordinal) pairs it used to be:
        # hash-ordered at build, filtered on removal, appended to on
        # insertion.  Scan order must not have changed.
        pairs = [
            sorted(
                ((r[1], i) for i, r in enumerate(fragment.records)),
                key=lambda e: gamma_hash(e[0], 1 << 30),
            )
            for fragment in fragments
        ]
        sites = list(range(n_amps))
        next_key = n
        for _step in range(400):
            attr, pos = rng.choice([("key", 0), ("other", 1)])
            value = rng.randrange(n + 50 if pos == 0 else 45)
            expected = _reference_locate(fragments, sites, pos, value)
            found = (0, None)
            for amp_no in sites:
                ordinal = fragments[amp_no].locate(attr, value)
                if ordinal is not None:
                    found = (amp_no, ordinal)
                    break
            assert found == expected
            amp_no, ordinal = found
            action = rng.choice(["append", "remove", "replace", "none"])
            if action == "append":
                target = rng.randrange(n_amps)
                record = (next_key, rng.randrange(45))
                next_key += 1
                fragments[target].append(record)
                pairs[target].append(
                    (record[1], len(fragments[target].records) - 1)
                )
            elif ordinal is not None and action == "remove":
                fragments[amp_no].remove(ordinal)
                pairs[amp_no] = [e for e in pairs[amp_no] if e[1] != ordinal]
            elif ordinal is not None and action == "replace":
                old = fragments[amp_no].records[ordinal]
                new = (old[0], rng.randrange(45))
                fragments[amp_no].replace(ordinal, new)
                if new[1] != old[1]:
                    pairs[amp_no] = [
                        e for e in pairs[amp_no] if e[1] != ordinal
                    ] + [(new[1], ordinal)]
        for fragment, expected in zip(fragments, pairs):
            index = fragment.indexes["other"]
            assert [(v, i) for i, v in index.entries.items()] == expected
            assert index.matching(10, 20) == [
                i for v, i in expected if 10 <= v <= 20
            ]


class TestAmpDrives:
    def test_drive_of_a_file_is_its_name_hash(self):
        from repro.sim import Simulation
        from repro.teradata import Amp

        amp = Amp(Simulation(), 0, TeradataConfig())
        for file_id in ("r.a0", "r.a0.idx", "spool.7", "r.a0"):
            assert amp._drive_for(file_id) is amp.drives[
                gamma_hash(file_id, len(amp.drives))
            ]


class TestMergeJoin:
    def test_basic_equi_join(self):
        left = sorted([(k,) for k in [1, 2, 2, 5]])
        right = sorted([(k, "r") for k in [2, 3, 5, 5]])
        out = _merge_join(left, right, 0, 0)
        assert sorted(out) == sorted([
            (2, 2, "r"), (2, 2, "r"), (5, 5, "r"), (5, 5, "r"),
        ])

    def test_duplicate_runs_cross_product(self):
        left = [(1,), (1,)]
        right = [(1, "a"), (1, "b")]
        assert len(_merge_join(left, right, 0, 0)) == 4

    def test_disjoint_inputs(self):
        assert _merge_join([(1,)], [(2, "x")], 0, 0) == []

    def test_empty_sides(self):
        assert _merge_join([], [(1, "x")], 0, 0) == []
        assert _merge_join([(1,)], [], 0, 0) == []


class TestExecutorCostStructure:
    def test_more_amps_scan_faster(self):
        times = {}
        for amps in (5, 20):
            m = TeradataMachine(TeradataConfig(n_amps=amps))
            m.load_wisconsin("r", 10_000, seed=1)
            times[amps] = m.run(
                Query.select("r", RangePredicate("hundred", 0, 0))
            ).response_time
        assert times[20] < times[5]

    def test_fixed_host_cost_dominates_tiny_queries(self):
        m = TeradataMachine()
        m.load_wisconsin("r", 1_000, seed=1)
        r = m.run(Query.select("r", RangePredicate("hundred", -5, -1)))
        assert r.response_time > m.costs.host_roundtrip_s

    def test_insert_path_charges_three_ios_per_tuple(self):
        m = TeradataMachine(TeradataConfig(n_amps=2))
        m.load_wisconsin("r", 1_000, seed=1)
        result = m.run(
            Query.select("r", RangePredicate("unique1", 0, 99), into="out")
        )
        assert result.stats["insert_ios"] == pytest.approx(
            100 * m.config.insert_ios_per_tuple, abs=2
        )

    def test_redistribution_stats(self):
        from repro.engine import ScanNode

        m = TeradataMachine(TeradataConfig(n_amps=4))
        m.load_wisconsin("A", 1_000, seed=1)
        m.load_wisconsin("B", 100, seed=2)
        nonkey = m.run(Query.join(ScanNode("B"), ScanNode("A"),
                                  on=("unique2", "unique2"), into="j1"))
        assert nonkey.stats["tuples_redistributed"] == 1100
        key = m.run(Query.join(ScanNode("B"), ScanNode("A"),
                               on=("unique1", "unique1"), into="j2"))
        assert key.stats.get("tuples_redistributed", 0) == 0
