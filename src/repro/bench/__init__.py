"""Benchmark harness: experiments regenerating every table and figure.

Each experiment is one registered :class:`ExperimentSpec`
(:data:`REGISTRY`), run by :func:`run_experiment` —
``run_experiment(get(name), store, **overrides)`` from Python,
``python -m repro matrix run|report <name>`` from the command line.
"""

from .harness import (
    bench_sizes,
    build_gamma,
    build_teradata,
    run_stored,
    run_to_host,
    speedup_series,
)
from .matrix import (
    Axis,
    ExperimentSpec,
    Grid,
    MatrixRun,
    run_experiment,
)
from .recorded import (
    FIGURE_CLAIMS,
    TABLE1_SELECTIONS,
    TABLE2_JOINS,
    TABLE3_UPDATES,
)
from .registry import REGISTRY, get, run_registered
from .reporting import Report, ratio_note
from .skew import load_skew_machine
from .store import (
    Record,
    ResultStore,
    StoreError,
    canonical_config,
    config_hash,
    current_git_sha,
)
from .sweep import bench_jobs, run_sweep
from .workload import machine_builder, make_mix

__all__ = [
    "Axis",
    "ExperimentSpec",
    "FIGURE_CLAIMS",
    "Grid",
    "MatrixRun",
    "REGISTRY",
    "Record",
    "Report",
    "ResultStore",
    "StoreError",
    "TABLE1_SELECTIONS",
    "TABLE2_JOINS",
    "TABLE3_UPDATES",
    "bench_jobs",
    "bench_sizes",
    "build_gamma",
    "build_teradata",
    "canonical_config",
    "config_hash",
    "current_git_sha",
    "get",
    "load_skew_machine",
    "machine_builder",
    "make_mix",
    "ratio_note",
    "run_experiment",
    "run_registered",
    "run_stored",
    "run_sweep",
    "run_to_host",
    "speedup_series",
]
