"""Load artifacts change how fast a load runs, never what it builds.

One relation is loaded three ways on both machines — from the shared
relation with no artifacts yet (cold), from it again (warm) and from a
plain ``list`` of its rows — and every fragment, page, index entry,
hash-key order and statistic must agree, and agree with a per-record
reference of the declustering and hash-key order.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.catalog import (
    AttrStats,
    Hashed,
    PartitioningStrategy,
    RangePartitioned,
    RoundRobin,
    SharedRelation,
    UniformRange,
    gamma_hash,
    gamma_mix,
)
from repro.catalog.relation import DISTINCT_SAMPLE
from repro.engine import GammaMachine
from repro.hardware import GammaConfig, TeradataConfig
from repro.teradata import TeradataMachine
from repro.teradata.amp import HASH_ORDER_BUCKETS, DenseHashIndex, hash_partition
from repro.workloads import generate_skewed_tuples, wisconsin, wisconsin_schema

N = 400
SEED = 11
UNIQUE1, UNIQUE2, STRINGU1 = 0, 1, 13


@pytest.fixture
def cold_source(monkeypatch):
    """An empty relation memo for one test, so its first load is cold."""
    monkeypatch.setattr(wisconsin, "_MEMO", {})
    return wisconsin


def shared_relation(source) -> SharedRelation:
    """What ``load_wisconsin`` loads: the memo entry, with its artifacts."""
    return source.wisconsin_load_set("r", N, SEED, "cheap")[1]


def gamma_image(relation) -> list:
    """Everything a Gamma load builds, in order."""
    image: list = [sorted(relation.statistics.items())]
    for fragment in relation.fragments:
        image.append([
            (page_no, list(page.slotted_records()))
            for page_no, page in fragment.heap.scan_pages()
        ])
        if fragment.clustered_on is not None:
            index = fragment.clustered_index
            image.append((list(index.items()), index.height))
        for attr, tree in sorted(fragment.secondary.items()):
            image.append((attr, list(tree.items()), tree.height))
    return image


def teradata_image(relation) -> list:
    """Everything a DBC/1012 load builds, in order."""
    image: list = []
    for fragment in relation.fragments:
        image.append(list(fragment.records))
        image.append([
            (page_no, list(page.slotted_records()))
            for page_no, page in fragment.heap.scan_pages()
        ])
        for attr, index in sorted(fragment.indexes.items()):
            image.append((attr, list(index.entries.items()), index.num_pages))
    return image


def reference_hash_partition(records, key_pos, n_amps):
    """The per-record DBC/1012 placement: key hash, then key, then load
    order, dealt by ``gamma_hash``."""
    place = [gamma_mix(r[key_pos]) % HASH_ORDER_BUCKETS for r in records]
    order = sorted(
        range(len(records)), key=lambda i: (place[i], records[i][key_pos], i)
    )
    buckets: list[list[tuple]] = [[] for _ in range(n_amps)]
    for i in order:
        buckets[gamma_hash(records[i][key_pos], n_amps)].append(records[i])
    return buckets


def strategy(kind: str, sites: int) -> PartitioningStrategy:
    if kind == "hashed":
        return Hashed("unique1")
    if kind == "round-robin":
        return RoundRobin()
    if sites == 1:
        return UniformRange("unique1")  # no boundary to give
    return RangePartitioned(
        "unique1", [N * (i + 1) // sites - 1 for i in range(sites - 1)]
    )


@pytest.mark.parametrize("indexed", [False, True])
@pytest.mark.parametrize("page_size", [2048, 8192])
@pytest.mark.parametrize("sites", [1, 3, 8, 32])
@pytest.mark.parametrize("kind", ["hashed", "round-robin", "range"])
def test_gamma_loads_agree(cold_source, kind, sites, page_size, indexed):
    config = GammaConfig(n_disk_sites=sites, n_diskless=0, page_size=page_size)
    machine = GammaMachine(config)
    schema = wisconsin_schema()
    shared = shared_relation(cold_source)
    assert shared.artifacts == {}
    options = (
        {"clustered_on": "unique1", "secondary_on": ["unique2"]}
        if indexed else {}
    )
    images = []
    for name, records in (
        ("cold", shared), ("warm", shared), ("list", list(shared)),
    ):
        relation = machine.load_relation(
            name, schema, records, partitioning=strategy(kind, sites),
            **options,
        )
        images.append(gamma_image(relation))
        if name == "cold":
            assert shared.artifacts  # statistics at least were kept
    assert images[0] == images[1] == images[2]
    if kind == "hashed":
        reference = PartitioningStrategy.partition(
            Hashed("unique1"), list(shared), schema, sites
        )
        relation = machine.catalog.lookup("list")
        assert [list(f.records()) for f in relation.fragments] == [
            sorted(bucket, key=lambda r: r[UNIQUE1]) if indexed else bucket
            for bucket in reference
        ]


@pytest.mark.parametrize("indexed", [False, True])
@pytest.mark.parametrize("page_size", [2048, 8192])
@pytest.mark.parametrize("amps", [1, 3, 8, 32])
def test_teradata_loads_agree(cold_source, amps, page_size, indexed):
    machine = TeradataMachine(TeradataConfig(n_amps=amps, page_size=page_size))
    schema = wisconsin_schema()
    shared = shared_relation(cold_source)
    secondary = ["unique2"] if indexed else []
    images = [
        teradata_image(machine.load_relation(
            name, schema, records, primary_key="unique1",
            secondary_on=secondary,
        ))
        for name, records in (
            ("cold", shared), ("warm", shared), ("list", list(shared)),
        )
    ]
    assert images[0] == images[1] == images[2]
    assert [f.records for f in machine.lookup("warm").fragments] == (
        reference_hash_partition(list(shared), UNIQUE1, amps)
    )


def test_the_shared_relation_is_the_memo_entry(cold_source):
    shared = shared_relation(cold_source)
    rows = cold_source.wisconsin_relation(N, SEED)
    assert type(rows) is tuple and shared.rows is rows
    assert cold_source._MEMO[(N, SEED, "cheap")] is shared
    assert len(shared) == N and list(shared) == list(rows)
    assert shared[3] is rows[3] and shared[-2:] == rows[-2:]


def test_both_machines_share_one_mix_and_agree_with_each_other(cold_source):
    gamma = GammaMachine(GammaConfig(n_disk_sites=8, n_diskless=0))
    teradata = TeradataMachine(TeradataConfig(n_amps=8))
    gamma.load_wisconsin("r", N, seed=SEED)
    (shared,) = cold_source._MEMO.values()
    mix = shared.artifacts[("mix", UNIQUE1)]
    teradata.load_wisconsin("r", N, seed=SEED)
    assert shared.artifacts[("mix", UNIQUE1)] is mix
    # Same hash function, same site count: the same tuples per site.
    for g, t in zip(
        gamma.catalog.lookup("r").fragments, teradata.lookup("r").fragments
    ):
        assert sorted(g.records()) == sorted(t.records)


def test_artifacts_are_kept_per_key_column(cold_source):
    """Hashing on another column of the same relation reads its own
    mixes and hash-key order, never the first column's."""
    schema = wisconsin_schema()
    shared = shared_relation(cold_source)
    rows = list(shared)
    gamma = GammaMachine(GammaConfig(n_disk_sites=8, n_diskless=0))
    teradata = TeradataMachine(TeradataConfig(n_amps=8))
    for attr in ("unique1", "unique2", "unique1"):
        for name, records in ((f"s{attr}", shared), (f"l{attr}", rows)):
            if name in gamma.catalog:
                gamma.drop_relation(name)
            gamma.load_relation(
                name, schema, records, partitioning=Hashed(attr)
            )
            if name in teradata.relations:
                teradata.drop_relation(name)
            teradata.load_relation(name, schema, records, primary_key=attr)
        assert gamma_image(gamma.catalog.lookup(f"s{attr}")) == (
            gamma_image(gamma.catalog.lookup(f"l{attr}"))
        )
        assert teradata_image(teradata.lookup(f"s{attr}")) == (
            teradata_image(teradata.lookup(f"l{attr}"))
        )


@pytest.mark.parametrize("key_pos", [UNIQUE2, STRINGU1])
def test_duplicate_and_string_keys_match_the_reference(key_pos):
    """Skewed keys repeat, string keys take the scalar path; both keep
    the (hash, key, load order) placement."""
    records = list(generate_skewed_tuples(
        600, seed=5, skew=1.2, domain=40, strings="full",
    ))
    for amps in (1, 7, 20):
        for rows in (records, SharedRelation(tuple(records))):
            assert hash_partition(rows, key_pos, amps) == (
                reference_hash_partition(records, key_pos, amps)
            )


@pytest.mark.parametrize("n", [0, 1, 5, 31, 32, 500])
def test_dense_index_order_matches_the_reference(n):
    values = [(v * 7919) % 97 for v in range(n)] + ["a", "b"][: n % 3]
    index = DenseHashIndex("i", "x", 4096)
    index.build(values)
    expected = sorted(
        range(len(values)),
        key=lambda i: gamma_mix(values[i]) % HASH_ORDER_BUCKETS,
    )
    assert list(index.entries) == expected
    assert list(index.entries.values()) == [values[i] for i in expected]


def test_artifacts_are_compact_arrays(cold_source):
    machine = TeradataMachine()
    machine.load_wisconsin("r", N, seed=SEED, secondary_on=["unique2"])
    GammaMachine().load_wisconsin("r", N, seed=SEED)
    (shared,) = cold_source._MEMO.values()
    assert set(shared.artifacts) == {
        ("mix", UNIQUE1), ("hash order", UNIQUE1),
        ("statistics", wisconsin_schema(), DISTINCT_SAMPLE),
    }
    for key, artifact in shared.artifacts.items():
        if key[0] == "statistics":
            assert all(type(s) is AttrStats for s in artifact.values())
        else:
            assert isinstance(artifact, np.ndarray)
            assert artifact.nbytes == 4 * N


def test_memo_eviction_frees_the_artifacts(cold_source, monkeypatch):
    monkeypatch.setattr(cold_source, "MEMO_MAX_TUPLES", 2 * N)
    machine = TeradataMachine()
    machine.load_wisconsin("r", N, seed=SEED)
    (shared,) = cold_source._MEMO.values()
    order = weakref.ref(shared.artifacts[("hash order", UNIQUE1)])
    del shared
    for seed in (SEED + 1, SEED + 2):  # push the first relation out
        cold_source.wisconsin_relation(N, seed)
    assert (N, SEED, "cheap") not in cold_source._MEMO
    gc.collect()
    assert order() is None
    # A rebuilt relation starts cold and loads the same fragments.
    machine.load_wisconsin("again", N, seed=SEED)
    assert teradata_image(machine.lookup("again")) == (
        teradata_image(machine.lookup("r"))
    )


def test_statistics_are_each_relations_own(cold_source):
    first, second = GammaMachine(), GammaMachine()
    a = first.load_wisconsin("r", N, seed=SEED)
    b = second.load_wisconsin("r", N, seed=SEED)
    assert a.statistics == b.statistics
    kept = dict(b.statistics)
    a.statistics["unique1"] = AttrStats(0, 0, 1)
    del a.statistics["ten"]
    assert b.statistics == kept
    c = first.load_wisconsin("r2", N, seed=SEED)
    assert c.statistics == kept
