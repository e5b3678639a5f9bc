"""Extension E5 — scaling the simulated machine to 1000 nodes: the 1 %
selection and joinABprime swept over 8/64/256/1000 disk sites.

Writes the markdown table (``extension_e5_scaleup.md``) and the raw
sweep profile with per-point kernel event counts
(``extension_e5_scaleup.json``) under ``benchmarks/results/``.
"""

from repro.bench import bench_experiment


def test_extension_scaleup(report_runner):
    report_runner(bench_experiment, name="extension_e5_scaleup")
