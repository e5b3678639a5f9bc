"""Package imports are lazy: a package ``__init__`` imports a submodule
only when one of its names is first read."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

LAZY_PACKAGES = (
    "repro",
    "repro.bench",
    "repro.catalog",
    "repro.engine",
    "repro.engine.operators",
    "repro.hardware",
    "repro.metrics",
    "repro.quel",
    "repro.sim",
    "repro.storage",
    "repro.teradata",
    "repro.workloads",
)


def test_sim_and_recorded_tables_import_nothing_else():
    """What the perf ledger reads first pulls in no numpy, no QUEL, no
    experiment matrix and no process pool."""
    absent = (
        "numpy", "repro.quel", "repro.bench.matrix",
        "concurrent.futures.process",
    )
    code = (
        "import json, sys\n"
        "import repro.sim, repro.bench.recorded\n"
        f"print(json.dumps([m for m in {absent!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert json.loads(done.stdout) == []


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_exported_name_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(set(exported)) == len(exported)
    listed = dir(package)
    for attr in exported:
        assert attr in listed
        assert getattr(package, attr) is not None
    with pytest.raises(AttributeError):
        package.no_such_name  # noqa: B018


def test_from_imports_keep_working():
    from repro import GammaMachine
    from repro.bench import run_experiment
    from repro.engine.machine import GammaMachine as defined
    from repro.bench.matrix import run_experiment as runner

    assert GammaMachine is defined
    assert run_experiment is runner
