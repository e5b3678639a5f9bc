"""Registry contract: one source of truth, and the drift check that
keeps ``benchmarks/results/`` and the registry from diverging."""

import importlib.util
import os

import pytest

from repro.__main__ import main
from repro.bench.registry import (
    REGISTRY,
    get,
    names,
    ordered,
    run_registered,
)
from repro.bench.store import ResultStore
from repro.errors import BenchmarkError

_REPO = os.path.join(os.path.dirname(__file__), "..", "..")
_GENERATOR = os.path.join(_REPO, "benchmarks", "generate_experiments_md.py")
_RESULTS = os.path.join(_REPO, "benchmarks", "results")
_COMMITTED_STORE = os.path.join(_RESULTS, "store")


def test_default_grids_are_committed(monkeypatch):
    """A warm registry executes nothing: every point of every registered
    default grid already has a record in the committed store."""
    monkeypatch.delenv("GAMMA_BENCH_SIZES", raising=False)
    store = ResultStore(_COMMITTED_STORE)
    missing = [
        (spec.name, config)
        for spec in REGISTRY
        for config in spec.grid().points()
        if store.get(spec.name, spec.version, config) is None
    ]
    assert missing == []


class TestMatrixCli:
    """``python -m repro matrix run|report`` validates every name before
    anything runs."""

    @pytest.mark.parametrize("argv", [
        ["run", "no_such_experiment"],
        ["run", "table1_selection", "typo"],
        ["report", "typo"],
    ])
    def test_unknown_name_is_a_usage_error(self, argv, tmp_path, capsys):
        store = tmp_path / "cli_store"
        with pytest.raises(SystemExit) as excinfo:
            main(["repro", "matrix", "--store", str(store), *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "table1_selection" in err and "telemetry_knee" in err
        # Nothing ran: no store records, no regenerated report.
        assert not store.exists() or not any(store.iterdir())
        assert not os.path.exists(
            os.path.join(os.environ["GAMMA_BENCH_RESULTS"],
                         "table1_selection.md"))


def test_run_registered_writes_only_the_report():
    """The report is the one file a run writes; the per-point results
    are ``run.results`` (and the store's records), never a JSON copy."""
    run = run_registered(
        "workload_mpl", n=200, queries=4, clients=2, mpls=(1,),
        machines=("gamma",),
    )
    results = os.environ["GAMMA_BENCH_RESULTS"]
    assert os.listdir(results) == ["workload_mpl.md"]
    assert len(run.results) == len(run.grid.points()) == 1
    assert run.results[0]["mpl"] == 1 and run.results[0]["records"]


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_experiments_md", _GENERATOR
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRegistry:
    def test_names_unique_and_complete(self):
        assert len(names()) == len(set(names())) == len(REGISTRY) == 21

    def test_ordered_pairs_names_with_labels(self):
        assert ordered() == [(spec.name, spec.label) for spec in REGISTRY]

    def test_get_unknown_name_raises(self):
        with pytest.raises(BenchmarkError, match="table1_selection"):
            get("no_such_experiment")

    def test_kinds_are_known(self):
        assert {spec.kind for spec in REGISTRY} <= {
            "table", "figure", "ablation", "extension",
        }


class TestRegistryDrift:
    """``generate_experiments_md.check_registry_drift`` must fail loudly
    on either direction of drift — and pass on the committed tree."""

    def test_committed_results_all_registered(self):
        generator = _load_generator()
        # The real invariant on the real tree: every committed report
        # has a registry entry and every NOTES key is registered.
        generator.check_registry_drift(_RESULTS, names())

    def test_notes_name_registered_experiments(self):
        generator = _load_generator()
        assert set(generator.NOTES) <= set(names())

    def test_stray_report_fails(self, tmp_path):
        generator = _load_generator()
        (tmp_path / "table1_selection.md").write_text("### stale\n")
        (tmp_path / "not_registered.md").write_text("### stray\n")
        with pytest.raises(SystemExit, match="not_registered"):
            generator.check_registry_drift(str(tmp_path), names())

    def test_unregistered_notes_key_fails(self, tmp_path):
        generator = _load_generator()
        with pytest.raises(SystemExit, match="renamed_away"):
            generator.check_registry_drift(
                str(tmp_path), names(), notes={"renamed_away": ("", "")}
            )

    def test_clean_directory_passes(self, tmp_path):
        generator = _load_generator()
        (tmp_path / "table1_selection.md").write_text("### ok\n")
        (tmp_path / "fig13_overflow.trace.json").write_text("{}\n")
        generator.check_registry_drift(str(tmp_path), names())
