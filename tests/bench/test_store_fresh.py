"""The committed result store holds only results that re-execute equal.

A stored ``Record.result`` is simulated quantities, so running the same
grid point again — any commit, any hash seed — must store an equal one.
The three registered experiments whose whole grid costs under a second
are re-executed cold here; the full registry gets the same treatment in
CI's ``matrix-smoke`` job (a cold ``matrix run`` must leave the
checkout clean).
"""

import os

import pytest

from repro.bench.matrix import run_experiment
from repro.bench.registry import get
from repro.bench.store import ResultStore

_COMMITTED = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "results", "store"
)

_CHEAP = ("workload_mpl", "aggregate", "extension_e2_recovery")


@pytest.mark.parametrize("name", _CHEAP)
def test_cold_rerun_equals_committed_store(name, tmp_path):
    spec = get(name).spec
    fresh_dir = str(tmp_path / "fresh")
    run = run_experiment(spec, ResultStore(fresh_dir), jobs=1)
    assert run.cached == 0 and run.executed == len(run.grid.points())

    committed = ResultStore(_COMMITTED)
    # Read the fresh records back from disk so both sides have been
    # through the same JSON round trip.
    for record in ResultStore(fresh_dir).records(name, spec.version):
        stored = committed.get(name, spec.version, record.config)
        assert stored is not None, (name, record.config)
        assert record.result == stored.result, (name, record.config)
