"""Smoke test of the perf ledger at toy sizes.

Run it explicitly::

    python -m pytest benchmarks/ledger/test_ledger_smoke.py

``pyproject.toml``'s ``testpaths`` keeps it out of tier-1.  It drives
the real command line in subprocesses at ``--toy`` sizes (n = 2 000, 32
sites, one pass, the layer microbenchmarks at 1/100 scale), so the
numbers mean nothing; what it checks is the shape: every metric
``BENCHMARK.json`` declares is emitted, nothing undeclared is, the answer
check really fails the command, seeds reach the inputs, and simulated
results ignore the hash seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

sys.path.insert(0, HERE)
import compare  # noqa: E402
import oracle  # noqa: E402
from compare import LEDGER_ONLY  # noqa: E402
from tracing import LAYERS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def ledger(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args, "--toy"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False,
    )


def report(tmp_path_factory, command: str, *args: str) -> dict:
    out = tmp_path_factory.mktemp(command) / f"{command}.json"
    done = ledger(command, "--out", str(out), *args)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory) -> dict:
    return report(tmp_path_factory, "run")


@pytest.fixture(scope="module")
def toy_trace(tmp_path_factory) -> dict:
    return report(tmp_path_factory, "trace")


def test_oracle_self_test() -> None:
    oracle.self_test()


def test_run_reports_every_end_to_end_metric(toy_run: dict) -> None:
    assert list(toy_run["workloads"]) == WORKLOADS
    for name, result in toy_run["workloads"].items():
        metrics = result["metrics"]
        assert set(END_TO_END) <= set(metrics), name
        assert set(metrics) <= set(END_TO_END) | set(LEDGER_ONLY), name
        assert metrics["ops_failed_share"] == 0.0, result["failures"]
        assert result["reps"] == 1  # TOY.reps, whatever --seconds is
        assert len(result["samples"]["wall_s"]) == 1
        # sim_qps / sim_p95_s only where terminals wait on Gamma.
        assert ("sim_qps" in metrics) == (name == "multiuser_mixed")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_driver_form_emits_exactly_the_declared_metrics(workload) -> None:
    for trace, declared in (("0", END_TO_END), ("1", PER_LAYER)):
        done = ledger("--workload", workload, "--seed", "7", "--trace", trace)
        assert done.returncode == 0, done.stdout + done.stderr
        last = json.loads(done.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        units = {k: v["unit"] for k, v in last["metrics"].items()}
        assert units == declared
        values = {k: v["value"] for k, v in last["metrics"].items()}
        if trace == "0":
            assert all(value > 0 for value in values.values())
        else:
            buckets = sum(values[f"trace.{layer}.self_s"] for layer in LAYERS)
            assert buckets == pytest.approx(values["trace.total_s"], rel=0.05)
            assert values["count.sim_events"] > 0


def test_trace_and_layers_cover_the_per_layer_names(
    toy_trace: dict, tmp_path_factory
) -> None:
    layers = report(tmp_path_factory, "layers")
    layer_names = set(layers["metrics"])
    for name, result in toy_trace["workloads"].items():
        emitted = set(result["metrics"]) | layer_names
        # (the traced run repeats sim_s so two traces compare on it)
        assert emitted <= set(PER_LAYER) | {"sim_s"}, name
        # A workload may leave out only the metrics it does not define.
        assert set(PER_LAYER) - emitted <= set(LEDGER_ONLY), name
        assert result["spans"][0]["kind"] == "repetition"


def test_wrong_expected_count_flips_the_exit_code() -> None:
    done = ledger("--workload", "scaleup_256", "--oracle-fault")
    assert done.returncode != 0
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_seed_reaches_the_inputs(toy_run: dict, tmp_path_factory) -> None:
    other = report(tmp_path_factory, "run", "--seed", "4242")
    for name in WORKLOADS:
        a = toy_run["workloads"][name]["metrics"]
        b = other["workloads"][name]["metrics"]
        assert a["sim_s"] != b["sim_s"], name
        assert a["ops_failed_share"] == b["ops_failed_share"] == 0.0


def test_simulated_results_ignore_the_hash_seed(
    toy_trace: dict, tmp_path_factory
) -> None:
    salted = report(tmp_path_factory, "trace", "--hashseed", "31337")
    rows = compare.compare_runs(SPEC, [toy_trace], [salted])
    deterministic = [
        row for row in rows if not row.metric.endswith(".calls")
    ]
    assert deterministic
    assert {row.verdict for row in deterministic} == {"ok"}, [
        row for row in deterministic if row.verdict != "ok"
    ]


def test_compare_flags_a_regression(toy_run: dict, tmp_path) -> None:
    same = compare.compare_runs(SPEC, [toy_run], [toy_run])
    # Toy repetitions last milliseconds, so host rows may be unresolved.
    assert {row.verdict for row in same} <= {"ok", "unresolved"}
    assert {row.verdict for row in same if not row.bound} == {"ok"}
    assert "B/A" in compare.format_rows(same)

    slower = json.loads(json.dumps(toy_run))
    result = slower["workloads"]["join_suite"]
    result["samples"]["cpu_s"] = [2 * s for s in result["samples"]["cpu_s"]]
    result["metrics"]["sim_s"] *= 1.5
    verdicts = {
        (row.workload, row.metric): row.verdict
        for row in compare.compare_runs(SPEC, [toy_run], [slower])
    }
    assert verdicts["join_suite", "cpu_s"] == "worse"
    assert verdicts["join_suite", "sim_s"] == "worse"
    assert verdicts["select_scan", "sim_s"] == "ok"
    # Sets pool their runs; one run of a set that differs is flagged.
    pooled = {
        (row.workload, row.metric): row.verdict for row in
        compare.compare_runs(SPEC, [toy_run, toy_run], [toy_run, slower])
    }
    assert pooled["join_suite", "sim_s"] == "worse"
    assert pooled["select_scan", "sim_s"] == "ok"

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(toy_run))
    b.write_text(json.dumps(slower))
    done = subprocess.run(
        [sys.executable, RUN, "compare", str(a), str(b)],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    assert done.returncode == 1 and "worse" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path) -> None:
    """In a directory holding only BENCHMARK.json and the ledger, the
    command must fail without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "select_scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=False,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_readme_names_every_metric_and_workload() -> None:
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    layer_rows = [f"`{layer}`" for layer in LAYERS]
    names = [
        name for name in (*END_TO_END, *PER_LAYER, *LEDGER_ONLY)
        if not name.startswith("trace.")
    ]
    for needle in (*WORKLOADS, *names, *layer_rows):
        assert needle in readme, needle
