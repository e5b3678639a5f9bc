"""Toy-scale run of the skew experiment: schema of the report and the
point results, and the acceptance claims at a size CI can afford."""

from repro.bench import run_experiment
from repro.bench.skew import EXTENSION_E4_SPEC


class TestSkewExperiment:
    def test_toy_sweep_shape_and_checks(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAMMA_BENCH_RESULTS", str(tmp_path))
        run = run_experiment(
            EXTENSION_E4_SPEC, n=2_000, skews=(0.0, 1.5), site_counts=(1, 4),
        )
        report = run.report
        assert report.all_checks_pass, "\n".join(report.checks)
        # One row per (skew, strategy); one point per (skew, strategy,
        # sites), holding [response, result count, spread].
        assert len(report.rows) == 2 * 4
        assert len(run.results) == 2 * len(report.rows)
        for config, (response, count, spread) in zip(
            run.grid.points(), run.results
        ):
            assert response > 0 and count == 2_000
            assert (spread is None) == (config["sites"] == 1)
            assert spread is None or spread >= 1.0
        for row in report.rows:
            assert row[4] > 0  # speedup
            assert row[6] == 2_000  # result tuples

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
