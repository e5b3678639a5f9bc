"""Benchmark harness: experiments regenerating every table and figure."""

from .ablations import (
    ablation_bitfilter_experiment,
    multiuser_offloading_experiment,
    recovery_server_experiment,
    ablation_default_page_size_experiment,
    ablation_hybrid_join_experiment,
)
from .experiments import (
    aggregate_experiment,
    fig01_02_experiment,
    fig03_04_experiment,
    fig05_06_experiment,
    fig07_08_experiment,
    fig09_12_experiment,
    fig13_experiment,
    fig14_15_experiment,
    table1_selection_experiment,
    table2_join_experiment,
    table3_update_experiment,
)
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
from .registry import (
    REGISTRY,
    RegistryEntry,
    bench_experiment,
    run_registered,
)
from .reporting import Report, ratio_note
from .scaleup import (
    save_scaleup_profile,
    scaleup_experiment,
)
from .skew import (
    load_skew_machine,
    save_skew_profile,
    skew_join_experiment,
)
from .store import (
    Record,
    ResultStore,
    StoreError,
    canonical_config,
    config_hash,
    current_git_sha,
)
from .sweep import bench_jobs, run_sweep
from .telemetry import (
    save_telemetry_profile,
    telemetry_knee_experiment,
)
from .workload import (
    make_mix,
    machine_builder,
    save_workload_profile,
    workload_mpl_experiment,
)

__all__ = [
    "Axis",
    "ExperimentSpec",
    "FIGURE_CLAIMS",
    "Grid",
    "MatrixRun",
    "REGISTRY",
    "Record",
    "RegistryEntry",
    "Report",
    "ResultStore",
    "StoreError",
    "TABLE1_SELECTIONS",
    "TABLE2_JOINS",
    "TABLE3_UPDATES",
    "ablation_bitfilter_experiment",
    "ablation_default_page_size_experiment",
    "ablation_hybrid_join_experiment",
    "aggregate_experiment",
    "bench_experiment",
    "bench_jobs",
    "bench_sizes",
    "build_gamma",
    "build_teradata",
    "canonical_config",
    "config_hash",
    "current_git_sha",
    "fig01_02_experiment",
    "fig03_04_experiment",
    "fig05_06_experiment",
    "fig07_08_experiment",
    "fig09_12_experiment",
    "fig13_experiment",
    "fig14_15_experiment",
    "load_skew_machine",
    "machine_builder",
    "make_mix",
    "multiuser_offloading_experiment",
    "ratio_note",
    "recovery_server_experiment",
    "run_experiment",
    "run_registered",
    "run_stored",
    "run_sweep",
    "run_to_host",
    "save_scaleup_profile",
    "save_skew_profile",
    "save_telemetry_profile",
    "save_workload_profile",
    "scaleup_experiment",
    "skew_join_experiment",
    "speedup_series",
    "table1_selection_experiment",
    "table2_join_experiment",
    "table3_update_experiment",
    "telemetry_knee_experiment",
    "workload_mpl_experiment",
]
