"""Query-profiler tests: attribution, critical path, rendering.

The profiler must be *passive* (the golden-timeline tests pin that) and
*complete*: every busy second a hardware server records must land in
exactly one operator span (or the ``(other)`` bucket), so span totals
reconcile with the utilisation report.
"""

import json

import pytest

from repro.bench import build_gamma
from repro.bench.harness import run_stored
from repro.engine import JoinMode
from repro.engine.ports import EOS_BYTES
from repro.hardware import KB, GammaConfig
from repro.metrics import PhaseTimeline, Profiler, TraceBuffer, explain_analyze
from repro.metrics.profile import OTHER, _critical_path
from repro.workloads.queries import join_abprime, join_cselaselb


N = 4_000


def _machine(**overrides):
    config = GammaConfig.paper_default().with_sites(4)
    for name, value in overrides.items():
        config = getattr(config, name)(value)
    return build_gamma(
        config,
        relations=[("A", N, "heap"), ("B", N, "heap"),
                   ("Bp", N // 10, "heap"), ("C", N // 10, "heap")],
    )


def _profiled_join(machine=None):
    machine = machine or _machine()
    return run_stored(
        machine,
        lambda into: join_abprime("A", "Bp", key=False, into=into),
        profile=True,
    )


class TestSpanAccounting:
    def test_span_totals_reconcile_with_utilisation_report(self):
        """Per-class busy across all spans == per-class busy across all
        servers (capacity-1 FIFO servers, so utilisation * elapsed is
        exact busy seconds)."""
        result = _profiled_join()
        profile = result.profile
        elapsed = result.response_time
        by_class = {"cpu": 0.0, "disk": 0.0, "net": 0.0}
        for span in profile.spans.values():
            for cls, busy in span.busy.items():
                by_class[cls] += busy
        report_busy = {"cpu": 0.0, "disk": 0.0, "net": 0.0}
        for key, fraction in result.utilisations.items():
            resource = key.rsplit(".", 1)[-1]
            cls = {"cpu": "cpu", "disk": "disk", "nic": "net",
                   "ring": "net"}[resource]
            report_busy[cls] += fraction * elapsed
        for cls in by_class:
            assert by_class[cls] == pytest.approx(report_busy[cls], rel=1e-9)

    def test_join_has_distinct_build_and_probe_phases(self):
        profile = _profiled_join().profile
        phases = {
            (span.op_id, phase): busy
            for span in profile.spans.values()
            for phase, busy in span.by_phase.items()
        }
        builds = [k for k in phases if k[1] == "build"]
        probes = [k for k in phases if k[1] == "probe"]
        assert builds and probes
        assert all(phases[k] > 0 for k in builds + probes)
        # The phase timeline keys them separately too.
        keys = set(profile.timeline.phase_busy)
        assert any(k.endswith("/build") for k in keys)
        assert any(k.endswith("/probe") for k in keys)

    def test_tuple_and_page_counters_populated(self):
        profile = _profiled_join().profile
        spans = profile.spans
        scans = [s for s in spans.values() if s.op_id.startswith("scan")]
        assert sum(s.tuples_out for s in scans) >= N
        assert sum(s.pages for s in scans) > 0
        assert OTHER not in {s.op_id for s in scans}

    def test_store_bound_courier_time_lands_on_the_producing_operator(self):
        """Result packets and stream closes travel as couriers that are
        no process; the interface time they take at the *store* sites —
        where the join runs nothing — is still the join's."""
        machine = _machine()
        result = machine.run(
            join_abprime("A", "Bp", key=False, into="courier_out"),
            profile=True,
        )
        tuple_bytes = machine.catalog.lookup("courier_out").schema.tuple_bytes
        config = machine.config
        join = result.profile.spans[result.profile.tree["op_id"]]
        shipped = (
            result.result_count * tuple_bytes
            + config.n_diskless * config.n_disk_sites * EOS_BYTES
        )
        at_store_sites = sum(
            busy for node, busy in join.by_node.items()
            if node.startswith("disk")
        )
        assert at_store_sites == pytest.approx(
            config.network.interface_time(shipped), rel=1e-9
        )


class _FakeScan:
    inputs = ()

    def __init__(self, op_id):
        self.op_id = op_id

    def describe(self):
        return f"scan({self.op_id})"


class _FakeJoin:
    def __init__(self, op_id, build_input, source):
        self.op_id = op_id
        self.build_input = build_input
        self.source = source
        self.inputs = (build_input, source)

    def describe(self):
        return f"join({self.op_id})"


def _span(profiler, op_id, first, last, busy):
    span = profiler._span(op_id)
    span.first, span.last = first, last
    span.busy["cpu"] = busy
    return span


class TestCriticalPath:
    def test_two_join_plan_matches_hand_computed_chain(self):
        # join2(build=scanC, probe=join1(build=scanA, probe=scanB))
        scan_a, scan_b, scan_c = (
            _FakeScan("scanA"), _FakeScan("scanB"), _FakeScan("scanC"))
        join1 = _FakeJoin("join1", scan_a, scan_b)
        join2 = _FakeJoin("join2", scan_c, join1)
        profiler = Profiler()
        _span(profiler, "scanA", 0.0, 2.0, 2.0)
        _span(profiler, "scanB", 2.0, 9.0, 7.0)   # gates join1
        _span(profiler, "scanC", 0.0, 1.0, 1.0)
        _span(profiler, "join1", 1.5, 10.0, 4.0)  # gates join2
        _span(profiler, "join2", 3.0, 12.0, 5.0)
        path = _critical_path(join2, profiler.spans)
        assert [e["op_id"] for e in path] == ["join2", "join1", "scanB"]
        # wait = how long the op sat behind its gating input.
        assert path[0]["wait_for_input"] == pytest.approx(10.0 - 3.0)
        assert path[1]["wait_for_input"] == pytest.approx(9.0 - 1.5)
        assert path[2]["wait_for_input"] == 0.0

    def test_end_to_end_two_join_query_produces_full_chain(self):
        machine = _machine()
        result = run_stored(
            machine,
            lambda into: join_cselaselb("A", "B", "C", N, key=False,
                                        into=into),
            profile=True,
        )
        path = result.profile.critical_path
        assert len(path) >= 3  # root join -> inner join -> a scan
        ops_on_path = [e["op_id"] for e in path]
        assert len(ops_on_path) == len(set(ops_on_path))


class TestExplainAnalyze:
    def test_render_snapshot_structure(self):
        result = _profiled_join()
        text = explain_analyze(result)
        assert text.startswith("EXPLAIN ANALYZE")
        assert f"elapsed={result.response_time:.6f}s" in text
        assert "verdict=" in text
        assert "critical path" in text
        assert "timeline (" in text
        # Annotated tree: exchange kinds, row counts, page counts.
        assert "<-hash-" in text
        assert "rows=" in text and "pages=" in text
        # Critical-path members are starred in the tree.
        assert "\n* " in text or "\n  * " in text

    def test_unprofiled_result_raises(self):
        machine = _machine()
        result = run_stored(
            machine, lambda into: join_abprime("A", "Bp", key=False,
                                               into=into)
        )
        with pytest.raises(ValueError):
            explain_analyze(result)

    def test_profile_json_round_trips(self):
        profile = _profiled_join().profile
        data = json.loads(profile.to_json())
        assert set(data) == {
            "elapsed", "spans", "timeline", "critical_path", "verdict",
            "tree", "plan",
        }
        assert data["elapsed"] == profile.elapsed
        assert data["verdict"] == profile.verdict


class TestPhaseTimeline:
    def test_interval_spread_clips_to_buckets(self):
        # One 2s cpu interval from t=1 to t=3 over a 4s run, 4 buckets.
        intervals = [("op", None, "cpu", "site0", 1.0, 2.0)]
        timeline = PhaseTimeline.from_intervals(
            intervals, elapsed=4.0, class_counts={"cpu": 1}, n_buckets=4
        )
        assert timeline.resource_busy["cpu"] == pytest.approx(
            [0.0, 1.0, 1.0, 0.0]
        )
        assert timeline.utilisation("cpu") == pytest.approx(
            [0.0, 1.0, 1.0, 0.0]
        )
        assert timeline.phase_busy["op"] == pytest.approx(
            [0.0, 1.0, 1.0, 0.0]
        )

    def test_utilisation_normalises_by_class_population(self):
        # Two cpus, one busy: machine-level utilisation is 50%.
        intervals = [("op", "scan", "cpu", "site0", 0.0, 4.0)]
        timeline = PhaseTimeline.from_intervals(
            intervals, elapsed=4.0, class_counts={"cpu": 2}, n_buckets=2
        )
        assert timeline.utilisation("cpu") == pytest.approx([0.5, 0.5])
        assert timeline.phase_busy["op/scan"] == pytest.approx([2.0, 2.0])


class TestVerdict:
    def test_fig05_06_verdict_flips_with_page_size(self):
        """The Fig 5-6 crossover: a 0% selection is disk-bound at 2 KB
        pages and CPU-bound once large pages amortise the seeks."""
        from repro.workloads.queries import selection_query

        verdicts = {}
        for kb in (2, 32):
            machine = build_gamma(
                GammaConfig.paper_default().with_page_size(kb * KB),
                relations=[("rel", N, "heap")],
            )
            result = run_stored(
                machine,
                lambda into: selection_query("rel", N, 0.0, into=into),
                profile=True,
            )
            verdicts[kb] = result.profile.verdict
        assert verdicts[2] == "disk-bound"
        assert verdicts[32] == "cpu-bound"


class TestCounterTracks:
    def test_traced_overflow_join_emits_counter_events(self):
        machine = _machine(with_join_memory=96 * KB)
        trace = TraceBuffer()
        result = run_stored(
            machine,
            lambda into: join_abprime("A", "Bp", key=True,
                                      mode=JoinMode.REMOTE, into=into),
            trace=trace,
        )
        assert result.max_overflows > 0
        events = json.loads(trace.to_json())["traceEvents"]
        counters = [e for e in events if e.get("ph") == "C"]
        names = {e["name"] for e in counters}
        assert "hash-table" in names
        assert any(n.startswith("queue:") for n in names)
        hash_points = [e["args"] for e in counters
                       if e["name"] == "hash-table"]
        assert any(p["bytes"] > 0 for p in hash_points)
        assert any(p["overflows"] > 0 for p in hash_points)
