"""Benchmark harness: experiments regenerating every table and figure.

Each experiment is one registered :class:`ExperimentSpec`
(:data:`REGISTRY`), run by :func:`run_experiment` —
``run_experiment(get(name), store, **overrides)`` from Python,
``python -m repro matrix run|report <name>`` from the command line.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".harness": (
        "bench_sizes", "build_abprime", "build_gamma", "build_teradata",
        "by_config", "instrumented_rerun", "join_memory_config",
        "run_stored", "series", "speedup_series",
    ),
    ".matrix": ("Axis", "ExperimentSpec", "Grid", "MatrixRun", "run_experiment"),
    ".recorded": ("TABLE1_SELECTIONS", "TABLE2_JOINS", "TABLE3_UPDATES"),
    ".registry": ("REGISTRY", "get", "run_registered"),
    ".reporting": ("Report", "ratio_note"),
    ".store": (
        "Record", "ResultStore", "StoreError", "canonical_config",
        "config_hash", "current_git_sha",
    ),
    ".sweep": ("bench_jobs", "run_sweep"),
    ".workload": ("machine_builder", "make_mix"),
})
