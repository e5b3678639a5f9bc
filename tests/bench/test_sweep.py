"""Tests for the parallel sweep runner.

The load-bearing property is determinism: a figure experiment must produce
byte-identical result tables whether its sweep points run sequentially
in-process or fanned across worker processes.
"""

import os

import pytest

from repro.bench import bench_jobs, run_experiment, run_sweep
from repro.bench.experiments import FIG01_02_SPEC, FIG14_15_SPEC
from repro.errors import BenchmarkError


def _square(x):
    return x * x


class TestRunSweep:
    def test_empty_points(self):
        assert run_sweep(_square, []) == []

    def test_sequential_preserves_order(self):
        assert run_sweep(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        assert run_sweep(_square, [3, 1, 2], jobs=2) == [9, 1, 4]

    def test_jobs_env_default(self, monkeypatch):
        monkeypatch.delenv("GAMMA_BENCH_JOBS", raising=False)
        assert bench_jobs() == (os.cpu_count() or 1)
        monkeypatch.setenv("GAMMA_BENCH_JOBS", "3")
        assert bench_jobs() == 3
        monkeypatch.setenv("GAMMA_BENCH_JOBS", "0")
        assert bench_jobs() == 1

    def test_jobs_env_non_numeric_raises_clearly(self, monkeypatch):
        monkeypatch.setenv("GAMMA_BENCH_JOBS", "all-cores")
        with pytest.raises(BenchmarkError) as excinfo:
            bench_jobs()
        message = str(excinfo.value)
        assert "GAMMA_BENCH_JOBS" in message
        assert "'all-cores'" in message

    def test_jobs_env_whitespace_falls_back(self, monkeypatch):
        monkeypatch.setenv("GAMMA_BENCH_JOBS", "   ")
        assert bench_jobs() == (os.cpu_count() or 1)


class TestParallelDeterminism:
    def test_fig01_02_tables_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAMMA_BENCH_RESULTS", str(tmp_path))
        monkeypatch.setenv("GAMMA_BENCH_JOBS", "1")
        sequential = run_experiment(
            FIG01_02_SPEC, n=4000, processor_counts=(1, 2)).report
        monkeypatch.setenv("GAMMA_BENCH_JOBS", "2")
        parallel = run_experiment(
            FIG01_02_SPEC, n=4000, processor_counts=(1, 2)).report
        assert parallel.to_markdown() == sequential.to_markdown()
        assert parallel.rows == sequential.rows

    def test_fig14_15_tables_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAMMA_BENCH_RESULTS", str(tmp_path))
        monkeypatch.setenv("GAMMA_BENCH_JOBS", "1")
        sequential = run_experiment(
            FIG14_15_SPEC, n=2000, page_sizes_kb=(2, 16, 32)).report
        monkeypatch.setenv("GAMMA_BENCH_JOBS", "2")
        parallel = run_experiment(
            FIG14_15_SPEC, n=2000, page_sizes_kb=(2, 16, 32)).report
        assert parallel.to_markdown() == sequential.to_markdown()
