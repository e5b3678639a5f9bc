"""Cross-machine consistency: Gamma and Teradata answer identically.

Both machines run the same :class:`~repro.engine.plan.Query` objects over
identically seeded Wisconsin relations; whatever the hardware model says
about *time*, the *answers* must agree with each other and with a plain
Python oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GammaConfig, GammaMachine, Query, RangePredicate, TeradataConfig
from repro.engine import ScanNode
from repro.engine.plan import AppendTuple, DeleteTuple, ExactMatch, ModifyTuple
from repro.teradata import TeradataMachine
from repro.workloads import generate_tuples, wisconsin_relation

N = 1_000
SEED = 77


@pytest.fixture(scope="module")
def machines():
    gamma = GammaMachine(GammaConfig(n_disk_sites=4, n_diskless=4))
    teradata = TeradataMachine(TeradataConfig(n_amps=5))
    for m in (gamma, teradata):
        m.load_wisconsin("R", N, seed=SEED)
        m.load_wisconsin("T", N // 5, seed=SEED + 1)
    return gamma, teradata


@pytest.fixture(scope="module")
def oracle_data():
    return (
        list(generate_tuples(N, seed=SEED)),
        list(generate_tuples(N // 5, seed=SEED + 1)),
    )


@settings(max_examples=20, deadline=None)
@given(
    attr=st.sampled_from(["unique1", "unique2", "hundred", "ten"]),
    low=st.integers(min_value=-5, max_value=N),
    span=st.integers(min_value=0, max_value=N // 2),
)
def test_property_selections_agree(machines, oracle_data, attr, low, span):
    gamma, teradata = machines
    records, _ = oracle_data
    pos = {"unique1": 0, "unique2": 1, "hundred": 6, "ten": 4}[attr]
    high = low + span
    query = Query.select("R", RangePredicate(attr, low, high))
    g = gamma.run(query)
    t = teradata.run(query)
    expected = sorted(r for r in records if low <= r[pos] <= high)
    assert sorted(g.tuples) == expected
    assert sorted(t.tuples) == expected


@settings(max_examples=10, deadline=None)
@given(
    attr=st.sampled_from(["unique1", "unique2"]),
    sel_span=st.integers(min_value=0, max_value=N // 5),
)
def test_property_joins_agree(machines, oracle_data, attr, sel_span):
    gamma, teradata = machines
    records, small = oracle_data
    pos = {"unique1": 0, "unique2": 1}[attr]
    pred = RangePredicate(attr, 0, sel_span)
    query = Query.join(
        ScanNode("T", pred), ScanNode("R"), on=(attr, attr)
    )
    g = gamma.run(query)
    t = teradata.run(query)
    lookup = {}
    for rec in small:
        if 0 <= rec[pos] <= sel_span:
            lookup.setdefault(rec[pos], []).append(rec)
    expected = sorted(
        lt + rt for rt in records for lt in lookup.get(rt[pos], [])
    )
    # NOTE: Gamma's planner propagates the selection to R; the answer set
    # must be unchanged by that rewrite.
    assert sorted(g.tuples) == expected
    assert sorted(t.tuples) == expected


def test_aggregate_count_matches_cardinality(machines):
    gamma, _teradata = machines
    result = gamma.run(Query.aggregate("R", op="count"))
    assert result.tuples == [(N,)]


def test_response_times_differ_but_answers_do_not(machines):
    gamma, teradata = machines
    query = Query.select("R", RangePredicate("ten", 0, 0))
    g = gamma.run(query)
    t = teradata.run(query)
    assert sorted(g.tuples) == sorted(t.tuples)
    assert g.response_time != t.response_time


# ---------------------------------------------------------------------------
# One shared relation source: every machine in the process loads the same
# tuple objects, and none of them can change what another one sees.
# ---------------------------------------------------------------------------

SHARED_N = 1_200
SHARED_SEED = 4242


def _four_machines():
    return [
        GammaMachine(GammaConfig(n_disk_sites=4, n_diskless=4)),
        GammaMachine(GammaConfig(n_disk_sites=2, n_diskless=2)),
        TeradataMachine(TeradataConfig(n_amps=5)),
        TeradataMachine(TeradataConfig(n_amps=3)),
    ]


def _stored(machine, name="S"):
    relation = (
        machine.catalog.lookup(name) if isinstance(machine, GammaMachine)
        else machine.lookup(name)
    )
    return list(relation.records())


def _load_shared(machine, **organisation):
    machine.load_wisconsin(
        "S", SHARED_N, seed=SHARED_SEED, secondary_on=["unique2"],
        **organisation,
    )


def test_machines_loaded_in_one_process_share_tuple_objects():
    source = {id(row): row for row in
              wisconsin_relation(SHARED_N, SHARED_SEED)}
    for machine in _four_machines():
        _load_shared(machine)
        stored = _stored(machine)
        assert len(stored) == SHARED_N
        assert all(source.get(id(row)) is row for row in stored)


@pytest.mark.parametrize("make, organisation", [
    (lambda: GammaMachine(GammaConfig(n_disk_sites=4, n_diskless=4)),
     {"clustered_on": "unique1"}),
    (lambda: TeradataMachine(TeradataConfig(n_amps=5)), {}),
], ids=["gamma", "teradata"])
def test_updates_on_one_machine_never_show_on_another(make, organisation):
    pristine = sorted(wisconsin_relation(SHARED_N, SHARED_SEED))
    updated, bystander = make(), make()
    for machine in (updated, bystander):
        _load_shared(machine, **organisation)

    template = pristine[0]
    fresh = (SHARED_N + 7, SHARED_N + 7) + template[2:]
    for request in (
        AppendTuple("S", fresh),
        DeleteTuple("S", ExactMatch("unique1", 3)),
        ModifyTuple("S", ExactMatch("unique1", 5), "odd100", 13),
        ModifyTuple("S", ExactMatch("unique1", 8), "unique1", SHARED_N + 9),
        ModifyTuple("S", ExactMatch("unique2", 11), "unique2", SHARED_N + 11),
    ):
        result = updated.update(request)
        assert result.error is None and result.result_count == 1

    after = sorted(_stored(updated))
    assert after != pristine
    assert len(after) == SHARED_N  # one appended, one deleted
    assert fresh in after
    # The bystander, the source itself and a machine loaded afterwards
    # all still hold the relation exactly as generated.
    assert sorted(_stored(bystander)) == pristine
    assert sorted(wisconsin_relation(SHARED_N, SHARED_SEED)) == pristine
    late = make()
    _load_shared(late, **organisation)
    assert sorted(_stored(late)) == pristine
