"""One registry of every table/figure/ablation/extension experiment.

This is the single source of truth the rest of the tooling reads:

* ``python -m repro matrix`` lists/runs/reports experiments by the
  names registered here;
* ``benchmarks/generate_experiments_md.py`` takes its section order
  (and its drift check) from :func:`ordered`.

Specs appear in EXPERIMENTS.md order.  :func:`run_registered` runs one
by name through :func:`~repro.bench.matrix.run_experiment` and writes
its markdown report; the per-point results live only in the store.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import BenchmarkError
from .ablations import (
    ABLATION_A1_SPEC,
    ABLATION_A2_SPEC,
    ABLATION_A3_SPEC,
    ABLATION_A4_SPEC,
    EXTENSION_E1_SPEC,
    EXTENSION_E2_SPEC,
)
from .experiments import (
    AGGREGATE_SPEC,
    FIG01_02_SPEC,
    FIG03_04_SPEC,
    FIG05_06_SPEC,
    FIG07_08_SPEC,
    FIG09_12_SPEC,
    FIG13_SPEC,
    FIG14_15_SPEC,
    TABLE1_SPEC,
    TABLE2_SPEC,
    TABLE3_SPEC,
)
from .matrix import ExperimentSpec, MatrixRun, run_experiment
from .scaleup import EXTENSION_E5_SPEC
from .skew import EXTENSION_E4_SPEC
from .store import ResultStore
from .workload import EXTENSION_E3_SPEC, EXTENSION_E6_SPEC

#: Every experiment, in EXPERIMENTS.md section order.
REGISTRY: tuple[ExperimentSpec, ...] = (
    TABLE1_SPEC,
    TABLE2_SPEC,
    TABLE3_SPEC,
    FIG01_02_SPEC,
    FIG03_04_SPEC,
    FIG05_06_SPEC,
    FIG07_08_SPEC,
    FIG09_12_SPEC,
    FIG13_SPEC,
    FIG14_15_SPEC,
    AGGREGATE_SPEC,
    ABLATION_A1_SPEC,
    ABLATION_A2_SPEC,
    ABLATION_A3_SPEC,
    ABLATION_A4_SPEC,
    EXTENSION_E1_SPEC,
    EXTENSION_E2_SPEC,
    EXTENSION_E3_SPEC,
    EXTENSION_E4_SPEC,
    EXTENSION_E5_SPEC,
    EXTENSION_E6_SPEC,
)


def ordered() -> list[tuple[str, str]]:
    """(name, label) pairs in EXPERIMENTS.md order."""
    return [(spec.name, spec.label) for spec in REGISTRY]


def names() -> list[str]:
    return [spec.name for spec in REGISTRY]


def get(name: str) -> ExperimentSpec:
    for spec in REGISTRY:
        if spec.name == name:
            return spec
    raise BenchmarkError(
        f"no registered experiment named {name!r};"
        f" known: {', '.join(names())}"
    )


def run_registered(
    name: str,
    store: Optional[ResultStore] = None,
    *,
    force: bool = False,
    jobs: Optional[int] = None,
    **overrides: Any,
) -> MatrixRun:
    """Run one registered experiment (resuming from ``store``) and write
    its report under :func:`~repro.bench.reporting.results_dir`."""
    run = run_experiment(get(name), store, force=force, jobs=jobs, **overrides)
    run.report.save()
    return run
