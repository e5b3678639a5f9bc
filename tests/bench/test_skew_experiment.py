"""Toy-scale run of the skew experiment: schema of the report/profile
and the acceptance claims at a size CI can afford."""

import json

from repro.bench import run_experiment
from repro.bench.skew import EXTENSION_E4_SPEC


class TestSkewExperiment:
    def test_toy_sweep_shape_and_checks(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAMMA_BENCH_RESULTS", str(tmp_path))
        run = run_experiment(
            EXTENSION_E4_SPEC, n=2_000, skews=(0.0, 1.5), site_counts=(1, 4),
        )
        report, profile = run.report, run.profile
        assert report.all_checks_pass, "\n".join(report.checks)
        # One row per (skew, strategy).
        assert len(report.rows) == 2 * 4
        # The JSON profile mirrors the table.
        assert profile["n"] == 2_000
        assert len(profile["points"]) == len(report.rows)
        for point in profile["points"]:
            assert point["result_count"] == 2_000
            assert point["speedup"] > 0
            assert point["spread"] is None or point["spread"] >= 1.0
        # ... and survives the JSON round trip of its artifact.
        assert json.loads(json.dumps(profile))["experiment"] == (
            "extension_e4_skew")

    def test_sweep_is_deterministic_across_job_counts(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("GAMMA_BENCH_RESULTS", str(tmp_path))
        monkeypatch.setenv("GAMMA_BENCH_JOBS", "1")
        sequential = run_experiment(
            EXTENSION_E4_SPEC, n=1_000, skews=(1.5,), site_counts=(1, 4),
        ).report
        monkeypatch.setenv("GAMMA_BENCH_JOBS", "2")
        parallel = run_experiment(
            EXTENSION_E4_SPEC, n=1_000, skews=(1.5,), site_counts=(1, 4),
        ).report
        assert parallel.to_markdown() == sequential.to_markdown()
