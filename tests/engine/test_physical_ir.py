"""Tests for the backend-agnostic physical IR and both plan compilers.

Each Wisconsin query shape is compiled — never executed — and the test
asserts the *dataflow structure*: which Exchange kind moves tuples across
each edge, and where each operator's fragments are placed.  Both backends
compile through the same :class:`~repro.engine.ir.PlanCompiler` walk; the
differences asserted here (hash join vs sort-merge join, selection
propagation vs none, diskless vs AMP placement) are exactly the planning
conventions the paper attributes to each machine.
"""

import pytest

from repro import (
    ExactMatch,
    GammaConfig,
    GammaMachine,
    Query,
    RangePredicate,
    TeradataConfig,
)
from repro.engine import ScanNode
from repro.engine.ir import (
    AggregateOp,
    Exchange,
    ExchangeKind,
    HashJoinProbeOp,
    HostSinkOp,
    Placement,
    PlanCompiler,
    ProjectOp,
    ScanOp,
    SortMergeJoinOp,
    SortOp,
    StoreOp,
    ir_op_ids,
    walk,
)
from repro.engine.plan import AccessPath, AggregateNode, JoinMode, TruePredicate
from repro.engine.planner import Planner
from repro.engine.skew import router
from repro.errors import PlanError
from repro.teradata import TeradataMachine
from repro.teradata.planner import TeradataPlanner
from repro.workloads.queries import join_cselaselb


@pytest.fixture(scope="module")
def gamma():
    m = GammaMachine(GammaConfig.paper_default().with_sites(4))
    m.load_wisconsin("A", 1_000, seed=1, secondary_on=["unique2"])
    m.load_wisconsin("B", 1_000, seed=2)
    m.load_wisconsin("Bprime", 100, seed=3)
    return m


@pytest.fixture(scope="module")
def gamma_planner(gamma):
    return Planner(gamma.config, gamma.catalog)


@pytest.fixture(scope="module")
def teradata():
    m = TeradataMachine(TeradataConfig(n_amps=5))
    m.load_wisconsin("A", 1_000, seed=1, secondary_on=["unique2"])
    m.load_wisconsin("B", 1_000, seed=2)
    m.load_wisconsin("Bprime", 100, seed=3)
    return m


@pytest.fixture(scope="module")
def teradata_planner(teradata):
    return TeradataPlanner(teradata.config, teradata, teradata.costs)


class TestGammaSelections:
    def test_selection_scans_all_disk_sites(self, gamma_planner):
        ir = gamma_planner.plan(
            Query.select("A", RangePredicate("unique2", 0, 9))
        )
        scan = ir.root
        assert isinstance(scan, ScanOp)
        assert scan.sites == list(range(4))
        assert scan.placement.role == "disk-sites"
        assert isinstance(ir.sink, HostSinkOp)
        assert ir.sink.exchange.kind is ExchangeKind.MERGE

    def test_exact_match_on_partition_attr_prunes_to_one_site(
        self, gamma_planner
    ):
        ir = gamma_planner.plan(Query.select("A", ExactMatch("unique1", 7)))
        scan = ir.root
        assert len(scan.sites) == 1
        assert scan.placement.sites == tuple(scan.sites)

    def test_store_sink_sprays_round_robin(self, gamma_planner):
        ir = gamma_planner.plan(
            Query.select("A", RangePredicate("unique1", 0, 99), into="out")
        )
        assert isinstance(ir.sink, StoreOp)
        assert ir.sink.into == "out"
        assert ir.sink.exchange.kind is ExchangeKind.ROUND_ROBIN
        assert ir.sink.placement.role == "disk-sites"


class TestGammaJoins:
    def test_hash_join_splits_both_streams_on_join_attr(self, gamma_planner):
        ir = gamma_planner.plan(
            Query.join(ScanNode("Bprime"), ScanNode("A"),
                       on=("unique2", "unique2"))
        )
        join = ir.root
        assert isinstance(join, HashJoinProbeOp)
        assert join.build_input.exchange == Exchange(
            ExchangeKind.HASH, attr="unique2"
        )
        assert join.exchange == Exchange(ExchangeKind.HASH, attr="unique2")
        assert join.placement == Placement("join-sites", mode=JoinMode.REMOTE)

    def test_selection_propagates_to_the_other_side(self, gamma_planner):
        # Gamma's joinAselB trick: the selection on B's join attribute is
        # propagated to A's scan, shrinking the probe stream.
        ir = gamma_planner.plan(
            Query.join(
                ScanNode("B", RangePredicate("unique1", 0, 99)),
                ScanNode("A"),
                on=("unique1", "unique1"),
            )
        )
        probe = ir.root.source
        assert isinstance(probe, ScanOp)
        assert not isinstance(probe.predicate, TruePredicate)


class TestGammaAggregatesSortsProjects:
    def test_grouped_aggregate_hashes_on_group_attr(self, gamma_planner):
        ir = gamma_planner.plan(
            Query.aggregate("A", "sum", attr="unique1", group_by="ten")
        )
        agg = ir.root
        assert isinstance(agg, AggregateOp)
        assert agg.stage == "grouped"
        assert agg.exchange == Exchange(ExchangeKind.HASH, attr="ten")
        assert agg.placement.role == "diskless"

    def test_scalar_aggregate_is_partial_plus_combine(self, gamma_planner):
        ir = gamma_planner.plan(Query.aggregate("A", "min", attr="unique1"))
        combine = ir.root
        assert combine.stage == "combine"
        assert combine.exchange.kind is ExchangeKind.MERGE
        partial = combine.source
        assert partial.stage == "partial"
        assert partial.exchange.kind is ExchangeKind.ROUND_ROBIN

    def test_sort_range_splits_across_sorters(self, gamma_planner):
        ir = gamma_planner.plan(Query.select("A", sort_by="unique2"))
        sort = ir.root
        assert isinstance(sort, SortOp)
        assert sort.exchange.kind is ExchangeKind.RANGE
        # n_diskless sorters need n-1 range boundaries.
        assert len(sort.exchange.boundaries) == 3
        assert sort.placement.role == "diskless"

    def test_unique_project_record_hashes(self, gamma_planner):
        ir = gamma_planner.plan(
            Query.select("A", project=["ten"], unique=True)
        )
        project = ir.root
        assert isinstance(project, ProjectOp)
        assert project.exchange.kind is ExchangeKind.RECORD_HASH
        assert project.exchange.positions == [
            gamma_planner.catalog.lookup("A").schema.position("ten")
        ]

    def test_stream_project_round_robins(self, gamma_planner):
        ir = gamma_planner.plan(Query.select("A", project=["ten"]))
        assert ir.root.exchange.kind is ExchangeKind.ROUND_ROBIN


class TestTeradataLowering:
    def test_key_join_ships_nothing(self, teradata_planner):
        ir = teradata_planner.plan(
            Query.join(ScanNode("Bprime"), ScanNode("A"),
                       on=("unique1", "unique1"))
        )
        join = ir.root
        assert isinstance(join, SortMergeJoinOp)
        assert join.left_exchange.kind is ExchangeKind.LOCAL
        assert join.right_exchange.kind is ExchangeKind.LOCAL
        assert join.placement.role == "amps"

    def test_nonkey_join_hashes_both_streams(self, teradata_planner):
        ir = teradata_planner.plan(
            Query.join(ScanNode("Bprime"), ScanNode("A"),
                       on=("unique2", "unique2"))
        )
        join = ir.root
        assert join.left_exchange == Exchange(
            ExchangeKind.HASH, attr="unique2"
        )
        assert join.right_exchange == Exchange(
            ExchangeKind.HASH, attr="unique2"
        )

    def test_no_selection_propagation(self, teradata_planner):
        ir = teradata_planner.plan(
            Query.join(
                ScanNode("Bprime", RangePredicate("unique1", 0, 9)),
                ScanNode("A"),
                on=("unique1", "unique1"),
            )
        )
        assert isinstance(ir.root.right.predicate, TruePredicate)

    def test_exact_match_on_key_hash_addresses_one_amp(
        self, teradata, teradata_planner
    ):
        ir = teradata_planner.plan(Query.select("A", ExactMatch("unique1", 7)))
        scan = ir.root
        assert scan.path is AccessPath.CLUSTERED_EXACT
        assert scan.sites == [
            teradata.lookup("A").amp_of_key(7, teradata.config.n_amps)
        ]

    def test_index_cost_comparison(self, teradata_planner):
        one_pct = teradata_planner.plan(
            Query.select("A", RangePredicate("unique2", 0, 9))
        )
        ten_pct = teradata_planner.plan(
            Query.select("A", RangePredicate("unique2", 0, 99))
        )
        assert one_pct.root.path is AccessPath.NONCLUSTERED_INDEX
        assert ten_pct.root.path is AccessPath.FILE_SCAN

    def test_scalar_aggregate_partials_fold_in_place(self, teradata_planner):
        ir = teradata_planner.plan(Query.aggregate("A", "count"))
        combine = ir.root
        assert combine.stage == "combine"
        assert combine.source.exchange.kind is ExchangeKind.LOCAL
        assert combine.placement.role == "amps"

    def test_store_sink_hashes_on_result_key(self, teradata_planner):
        ir = teradata_planner.plan(
            Query.select("A", RangePredicate("unique1", 0, 99), into="out")
        )
        assert ir.sink.exchange == Exchange(ExchangeKind.HASH, attr="unique1")

    def test_projects_and_sorts_rejected(self, teradata_planner):
        with pytest.raises(PlanError):
            teradata_planner.plan(Query.select("A", project=["ten"]))
        with pytest.raises(PlanError):
            teradata_planner.plan(Query.select("A", sort_by="unique2"))


class TestDescribe:
    def test_exchange_describe_round_trips_kind(self):
        assert Exchange(ExchangeKind.HASH, attr="a").describe() == "hash(a)"
        assert Exchange(
            ExchangeKind.RANGE, attr="a", boundaries=[1, 2]
        ).describe() == "range(a x3)"
        assert Exchange(
            ExchangeKind.RECORD_HASH, positions=[0, 1]
        ).describe() == "record-hash([0, 1])"
        assert Exchange(ExchangeKind.MERGE).describe() == "merge"
        assert Exchange(ExchangeKind.LOCAL).describe() == "local"

    def test_placement_describe(self):
        assert Placement("diskless").describe() == "diskless"
        assert Placement("amps", sites=(0, 1)).describe() == "2 sites"
        assert (
            Placement("join-sites", mode=JoinMode.REMOTE).describe()
            == "join-sites:remote"
        )

    def test_plan_description_names_the_operators(self, gamma_planner):
        ir = gamma_planner.plan(
            Query.join(ScanNode("Bprime"), ScanNode("A"),
                       on=("unique2", "unique2"), into="j")
        )
        assert ir.description.startswith("join[remote](scan(Bprime")
        assert ir.describe().startswith("store[j](join[remote](")

    def test_teradata_description(self, teradata_planner):
        ir = teradata_planner.plan(
            Query.join(ScanNode("Bprime"), ScanNode("A"),
                       on=("unique2", "unique2"))
        )
        assert ir.description.startswith("sort-merge[unique2](scan(Bprime")


class TestPlanErrors:
    def test_unknown_join_attribute(self, gamma_planner):
        with pytest.raises(PlanError, match="build attribute"):
            gamma_planner.plan(
                Query.join(ScanNode("Bprime"), ScanNode("A"),
                           on=("nope", "unique1"))
            )
        with pytest.raises(PlanError, match="probe attribute"):
            gamma_planner.plan(
                Query.join(ScanNode("Bprime"), ScanNode("A"),
                           on=("unique1", "nope"))
            )

    def test_unknown_aggregate_attribute(self, gamma_planner):
        with pytest.raises(PlanError, match="aggregate attribute"):
            gamma_planner.plan(Query.aggregate("A", "sum", attr="nope"))
        with pytest.raises(PlanError, match="group-by attribute"):
            gamma_planner.plan(
                Query.aggregate("A", "count", group_by="nope")
            )

    def test_unknown_plan_node(self, gamma_planner):
        with pytest.raises(PlanError, match="unknown plan node"):
            gamma_planner.compile_node(object())

    def test_base_compiler_hooks_are_abstract(self, gamma):
        compiler = PlanCompiler(gamma.config, gamma.catalog)
        with pytest.raises(NotImplementedError):
            compiler.plan(Query.select("A"))


def _shape(node):
    """One walk entry: the node's class, plus the relation of a scan."""
    name = type(node).__name__
    return f"{name}({node.relation.name})" if isinstance(node, ScanOp) else name


def _tree_ids(tree):
    return {tree["op_id"]}.union(*(_tree_ids(c) for c in tree["children"]))


class TestWalk:
    QUERY = join_cselaselb("A", "B", "Bprime", 1_000, key=False)

    def test_gamma_three_way_join_pre_order(self, gamma_planner):
        ir = gamma_planner.plan(self.QUERY)
        assert [_shape(n) for n in walk(ir.sink)] == [
            "HostSinkOp", "HashJoinProbeOp", "HashJoinBuildOp",
            "ScanOp(Bprime)", "HashJoinProbeOp", "HashJoinBuildOp",
            "ScanOp(B)", "ScanOp(A)",
        ]

    def test_teradata_three_way_join_pre_order(self, teradata_planner):
        ir = teradata_planner.plan(self.QUERY)
        assert [_shape(n) for n in walk(ir.sink)] == [
            "HostSinkOp", "SortMergeJoinOp", "ScanOp(Bprime)",
            "SortMergeJoinOp", "ScanOp(B)", "ScanOp(A)",
        ]

    def test_op_ids_match_the_profile_plan_tree(self, gamma, teradata):
        for machine in (gamma, teradata):
            ir = machine._planner().plan(self.QUERY)
            tree = machine.run(self.QUERY, profile=True).profile.tree
            # The profile's tree hangs below the sink.
            assert _tree_ids(tree) == {n.op_id for n in walk(ir.root)}
            assert ir_op_ids(ir) == _tree_ids(tree) | {ir.sink.op_id}
            assert ir_op_ids(ir) == {n.op_id for n in walk(ir.sink)}


class TestRouter:
    @pytest.mark.parametrize("kind", [
        ExchangeKind.LOCAL, ExchangeKind.MERGE,
        ExchangeKind.ROUND_ROBIN, ExchangeKind.RECORD_HASH,
    ])
    def test_non_value_kinds_are_rejected_by_name(self, kind):
        with pytest.raises(PlanError, match=kind.value):
            router(Exchange(kind, attr="a", positions=[0]), 4)

    def test_range_sends_values_past_the_cuts_to_the_last_consumer(self):
        route = router(
            Exchange(ExchangeKind.RANGE, attr="a", boundaries=[10, 20, 30]),
            3,
        )
        records = [(v,) for v in (5, 10, 15, 25, 99)]
        assert route(records, 0) == [0, 1, 1, 2, 2]


class TestSkewSampling:
    def test_teradata_join_over_grouped_aggregate_samples_base(
        self, teradata
    ):
        """The sample search descends through aggregates on both
        machines: the probe side here is a grouped aggregate of A, so
        ``vhash`` samples A's ``ten`` instead of falling back to hash."""
        grouped = AggregateNode(ScanNode("A"), "count", group_by="ten")
        query = Query.join(ScanNode("Bprime"), grouped, on=("ten", "ten"))
        vhash = TeradataMachine(teradata.config, skew_strategy="vhash")
        vhash.relations = teradata.relations
        planner = vhash._planner()
        join = planner.plan(query).root
        assert isinstance(join, SortMergeJoinOp)
        assert planner.base_relation("ten", join.right).name == "A"
        assert join.left_exchange.kind is ExchangeKind.VHASH
        assert join.right_exchange.kind is ExchangeKind.VHASH
        # Same answer as the plain hash split.
        assert vhash.run(query).result_count == (
            teradata.run(query).result_count
        )
