"""Unit tests for the observability layer: registry, traces, reports.

The load-bearing property throughout is passivity — metrics, traces and
utilisation reports observe the simulation without scheduling events, so
a run's timeline is bit-identical whether or not anyone is watching.
"""

import json

import pytest

from repro import (
    GammaConfig,
    GammaMachine,
    MetricsRegistry,
    Query,
    RangePredicate,
    TraceBuffer,
)
from repro.metrics import peak_utilisation


class TestMetricsRegistry:
    def test_typed_recording_feeds_node_and_legacy_counters(self):
        reg = MetricsRegistry()
        reg.record_packet_sent("disk0", 40)
        reg.record_packet_sent("disk0", 10, short_circuit=True)
        reg.record_packet_received("disk1", 50)
        reg.record_control_message("sched", 3)
        reg.record_spool_write("disk1", 2)
        reg.record_spool_read("disk1")

        assert reg.node("disk0").packets_sent == 2
        assert reg.node("disk0").tuples_out == 50
        assert reg.node("disk0").packets_short_circuited == 1
        assert reg.node("disk1").tuples_in == 50
        assert reg.node("sched").control_messages == 3
        assert reg.node("disk1").spool_pages_written == 2
        assert reg.node("disk1").spool_pages_read == 1
        # Legacy query-wide keys stay in sync.
        assert reg.query["packets_sent"] == 2
        assert reg.query["tuples_shipped"] == 50
        assert reg.query["packets_short_circuited"] == 1
        assert reg.query["packets_received"] == 1
        assert reg.query["control_messages"] == 3
        assert reg.query["spool_pages_written"] == 2
        assert reg.query["spool_pages_read"] == 1

    def test_hash_table_peak_and_overflow(self):
        reg = MetricsRegistry()
        reg.record_hash_table_bytes("disk0", 1000.0)
        reg.record_hash_table_bytes("disk0", 400.0)  # below peak: ignored
        reg.record_overflow_chunk("disk0")
        assert reg.node("disk0").hash_table_peak_bytes == 1000.0
        assert reg.node("disk0").overflow_chunks == 1
        assert reg.query["hash_overflows"] == 1

    def test_operator_lifecycle(self):
        reg = MetricsRegistry()
        reg.record_operator_start("scan.disk0.1", "disk0", 1.5)
        reg.record_operator_tuples("scan.disk0.1", "disk0",
                                   tuples_in=10, tuples_out=4)
        reg.record_operator_finish("scan.disk0.1", "disk0", 4.0)
        op = reg.operator("scan.disk0.1", "disk0")
        assert op.elapsed == pytest.approx(2.5)
        assert (op.tuples_in, op.tuples_out) == (10, 4)

    def test_snapshot_is_plain_data(self):
        reg = MetricsRegistry()
        reg.record_packet_sent("disk0", 5)
        reg.record_operator_start("scan", "disk0", 0.0)
        snap = reg.snapshot()
        json.dumps(snap)  # fully serialisable
        assert snap["nodes"]["disk0"]["packets_sent"] == 1
        assert snap["operators"]["scan"]["started_at"] == 0.0


class TestTraceBuffer:
    def test_chrome_document_shape(self):
        trace = TraceBuffer()
        trace.duration("disk0", "disk", "read", start=1.0, dur=0.5,
                       cat="disk", args={"page": 7})
        trace.instant("disk0", "port", "send:scan", ts=2.0)
        doc = json.loads(trace.to_json())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        phases = [e["ph"] for e in doc["traceEvents"]]
        # Metadata events name the process and both lanes.
        assert phases.count("M") == 3
        dur = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert dur["ts"] == pytest.approx(1_000_000.0)
        assert dur["dur"] == pytest.approx(500_000.0)
        assert dur["args"] == {"page": 7}
        inst = next(e for e in doc["traceEvents"] if e["ph"] == "i")
        assert inst["s"] == "t"

    def test_lanes_get_distinct_thread_ids(self):
        trace = TraceBuffer()
        trace.duration("disk0", "cpu", "w", 0.0, 1.0)
        trace.duration("disk0", "disk", "r", 0.0, 1.0)
        trace.duration("disk1", "cpu", "w", 0.0, 1.0)
        xs = [e for e in trace.events if e["ph"] == "X"]
        assert xs[0]["pid"] == xs[1]["pid"] != xs[2]["pid"]
        assert xs[0]["tid"] != xs[1]["tid"]

    def test_write_round_trips(self, tmp_path):
        trace = TraceBuffer()
        trace.duration("disk0", "cpu", "w", 0.0, 1.0)
        path = trace.write(str(tmp_path / "out.trace.json"))
        with open(path) as fh:
            doc = json.load(fh)
        assert len(doc["traceEvents"]) == len(trace.events)

    def test_counter_unit_suffix(self):
        trace = TraceBuffer()
        trace.counter("disk0", "qdepth", 1.0, {"qdepth": 3.0},
                      unit="requests")
        counter = next(e for e in trace.events if e["ph"] == "C")
        assert counter["name"] == "qdepth [requests]"


class TestTraceBufferCap:
    def test_cap_rings_data_events_and_counts_drops(self):
        trace = TraceBuffer(cap=3)
        for i in range(8):
            trace.instant("disk0", "port", f"e{i}", ts=float(i))
        data = [e for e in trace.events if e["ph"] == "i"]
        assert [e["name"] for e in data] == ["e5", "e6", "e7"]
        assert trace.dropped == 5

    def test_metadata_survives_eviction(self):
        """Process/thread name records are never evicted — an old trace
        must still label every lane in Perfetto."""
        trace = TraceBuffer(cap=2)
        for node in ("disk0", "disk1", "disk2"):
            trace.duration(node, "cpu", "w", 0.0, 1.0)
        names = {
            e["args"]["name"]
            for e in trace.events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"disk0", "disk1", "disk2"}
        assert len([e for e in trace.events if e["ph"] == "X"]) == 2

    def test_capped_chrome_doc_reports_drops(self):
        trace = TraceBuffer(cap=2)
        for i in range(5):
            trace.instant("disk0", "port", f"e{i}", ts=float(i))
        doc = json.loads(trace.to_json())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"] == {"cap": 2, "droppedEvents": 3}

    def test_uncapped_doc_shape_unchanged(self):
        """No cap, no otherData: the historical two-key document shape
        stays pinned for existing consumers."""
        trace = TraceBuffer()
        trace.instant("disk0", "port", "e", ts=0.0)
        doc = json.loads(trace.to_json())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert trace.dropped == 0


def _machine(n_sites=2, n=2_000):
    machine = GammaMachine(
        GammaConfig.paper_default().with_sites(n_sites)
    )
    machine.load_wisconsin("rel", n, seed=42)
    return machine


def _select(into):
    return Query.select(
        "rel", RangePredicate("unique2", 0, 199), into=into
    )


class TestEndToEnd:
    def test_tracing_never_perturbs_the_timeline(self):
        machine = _machine()
        plain = machine.run(_select("plain"))
        trace = TraceBuffer()
        traced = machine.run(_select("traced"), trace=trace)
        # Bit-identical, not approximately equal.
        assert plain.response_time == traced.response_time
        assert plain.result_count == traced.result_count
        assert plain.stats == traced.stats
        assert len(trace.events) > 0

    def test_trace_covers_operators_and_resources(self):
        machine = _machine()
        trace = TraceBuffer()
        machine.run(_select("out"), trace=trace)
        cats = {e.get("cat") for e in trace.events if e["ph"] == "X"}
        assert "operator" in cats
        assert "disk" in cats or "cpu" in cats
        names = {e["name"] for e in trace.events if e["ph"] == "i"}
        assert any(name.startswith("send:") for name in names)
        assert any(name.startswith("recv:") for name in names)
        doc = json.loads(trace.to_json())
        assert doc["traceEvents"]

    def test_query_result_carries_node_and_operator_metrics(self):
        machine = _machine()
        result = machine.run(_select("out"))
        assert set(result.node_metrics) >= {"disk0", "disk1"}
        total_out = sum(
            nm["tuples_out"] for nm in result.node_metrics.values()
        )
        assert total_out >= result.result_count
        assert any(
            label.startswith("scan") for label in result.operator_metrics
        )

    def test_utilisation_report_shape_and_bottleneck(self):
        machine = _machine()
        result = machine.run(_select("out"))
        report = result.utilisation_report
        assert report is not None
        assert report.elapsed == pytest.approx(result.response_time)
        names = {row.name for row in report.rows}
        assert {"disk0", "disk1", "host"} <= names
        node, resource, value = report.bottleneck()
        assert 0.0 < value <= 1.0
        # A non-indexed selection is disk-bound (the Figures 1-2 argument).
        assert resource == "disk"
        utils = report.as_dict()
        assert peak_utilisation(utils, "disk") >= peak_utilisation(utils, "cpu")
        rendered = report.to_markdown()
        assert "Bottleneck" in rendered and "disk0" in rendered

    def test_utilisations_dict_and_peak_helper(self):
        machine = _machine()
        result = machine.run(_select("out"))
        utils = result.utilisations
        assert "disk0.cpu" in utils and "disk0.disk" in utils
        assert "ring" in utils
        assert peak_utilisation(utils, "disk") == max(
            v for k, v in utils.items() if k.endswith(".disk")
        )
        assert peak_utilisation(utils, "ring") == utils["ring"]
        assert peak_utilisation({}, "disk") == 0.0

    def test_stats_view_matches_registry(self):
        machine = _machine()
        result = machine.run(_select("out"))
        assert result.stats["packets_sent"] > 0
        assert result.stats["packets_received"] > 0
