"""Tests for the benchmark harness, reporting and recorded numbers."""

import os

import pytest

from repro.bench import (
    FIGURE_CLAIMS,
    Report,
    TABLE1_SELECTIONS,
    TABLE2_JOINS,
    TABLE3_UPDATES,
    bench_sizes,
    build_gamma,
    build_teradata,
    ratio_note,
    run_experiment,
    run_stored,
    speedup_series,
)
from repro.errors import BenchmarkError
from repro.hardware import GammaConfig
from repro.workloads.queries import selection_query


class TestRecorded:
    def test_table1_has_all_sizes(self):
        for row in TABLE1_SELECTIONS.values():
            assert set(row) == {10_000, 100_000, 1_000_000}

    def test_table1_gamma_always_beats_teradata(self):
        for row in TABLE1_SELECTIONS.values():
            for cell in row.values():
                if cell["teradata"] is not None and cell["gamma"] is not None:
                    assert cell["gamma"] < cell["teradata"]

    def test_table2_crossed_asymmetry_in_paper_numbers(self):
        g_abp = TABLE2_JOINS["joinABprime (non-key attributes)"][100_000]
        g_aselb = TABLE2_JOINS["joinAselB (non-key attributes)"][100_000]
        assert g_aselb["gamma"] < g_abp["gamma"]
        assert g_abp["teradata"] < g_aselb["teradata"]

    def test_table3_complete(self):
        assert len(TABLE3_UPDATES) == 6

    def test_figure_claims_non_empty(self):
        assert all(FIGURE_CLAIMS.values())


class TestReport:
    def test_add_row_checks_arity(self):
        report = Report("t", "T", columns=["a", "b"])
        report.add_row(1, 2)
        with pytest.raises(BenchmarkError):
            report.add_row(1)

    def test_check_records_pass_fail(self):
        report = Report("t", "T", columns=["a"])
        assert report.check("ok", True) is True
        assert report.check("bad", False) is False
        assert not report.all_checks_pass
        assert any("FAIL" in c for c in report.checks)

    def test_markdown_contains_rows_and_checks(self):
        report = Report("t", "Title", columns=["x", "y"])
        report.add_row("v", 1.234)
        report.check("claim", True)
        md = report.to_markdown()
        assert "Title" in md and "| v |" in md and "[PASS] claim" in md

    def test_none_rendered_as_dash(self):
        report = Report("t", "T", columns=["x"])
        report.add_row(None)
        assert "—" in report.to_markdown()

    def test_save_writes_file(self, tmp_path):
        report = Report("unit_test_report", "T", columns=["x"])
        report.add_row(1)
        path = report.save(str(tmp_path))
        assert os.path.exists(path)
        assert "unit_test_report" in path

    def test_ratio_note(self):
        assert ratio_note(2.0, 1.0) == 2.0
        assert ratio_note(2.0, None) is None
        assert ratio_note(2.0, 0) is None


class TestHarness:
    def test_bench_sizes_default(self, monkeypatch):
        monkeypatch.delenv("GAMMA_BENCH_SIZES", raising=False)
        assert bench_sizes() == [10_000, 100_000]

    def test_bench_sizes_env_override(self, monkeypatch):
        monkeypatch.setenv("GAMMA_BENCH_SIZES", "500,1000")
        assert bench_sizes() == [500, 1000]

    def test_build_gamma_organisations(self):
        m = build_gamma(
            GammaConfig(n_disk_sites=2, n_diskless=2),
            relations=[("h", 1_000, "heap"), ("i", 1_000, "indexed")],
        )
        assert not m.catalog.lookup("h").indexed_attrs()
        assert m.catalog.lookup("i").indexed_attrs() == {"unique1", "unique2"}

    def test_build_gamma_unknown_organisation(self):
        with pytest.raises(ValueError):
            build_gamma(GammaConfig(n_disk_sites=2, n_diskless=2),
                        relations=[("x", 100, "zzz")])

    def test_build_teradata(self):
        from repro.hardware import TeradataConfig

        m = build_teradata(TeradataConfig(n_amps=4),
                           relations=[("r", 1_000, "indexed")])
        assert m.lookup("r").indexed_attrs() == {"unique2"}

    def test_run_stored_drops_result(self):
        m = build_gamma(GammaConfig(n_disk_sites=2, n_diskless=2),
                        relations=[("r", 1_000, "heap")])
        before = len(m.catalog)
        result = run_stored(
            m, lambda into: selection_query("r", 1_000, 0.01, into=into)
        )
        assert result.result_count == 10
        assert len(m.catalog) == before

    def test_speedup_series(self):
        speeds = speedup_series({1: 10.0, 2: 5.0, 4: 2.5}, reference=1)
        assert speeds == {1: 1.0, 2: 2.0, 4: 4.0}


class TestExperimentsSmoke:
    """Miniature versions of each experiment run end to end."""

    def test_fig01_02_tiny(self):
        from repro.bench.experiments import FIG01_02_SPEC

        report = run_experiment(
            FIG01_02_SPEC, n=4_000, processor_counts=(1, 4)
        ).report
        assert len(report.rows) == 6

    def test_fig13_tiny(self):
        from repro.bench.experiments import FIG13_SPEC

        report = run_experiment(
            FIG13_SPEC, n=4_000, memory_ratios=(1.4, 0.4)
        ).report
        assert len(report.rows) == 4

    def test_aggregate_report(self):
        from repro.bench.experiments import AGGREGATE_SPEC

        report = run_experiment(AGGREGATE_SPEC, n=2_000).report
        assert report.all_checks_pass
