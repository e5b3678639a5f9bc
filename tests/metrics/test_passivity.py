"""One passivity test for every entry point and every plane it accepts.

An instrumented run must charge the simulated machine exactly what the
plain run charges it, and no plane may change what another records: the
trace a run writes with the trace alone is the trace it writes with
trace, profile and telemetry together, and likewise for the profile and
the telemetry.  The machines are small (at most
``TelemetrySampler.per_node_limit`` sites), so telemetry also samples
one lane per CPU and drive on each site.
"""

import inspect
import json
from functools import lru_cache

import pytest

from repro import GammaConfig, GammaMachine, TeradataConfig
from repro.metrics import TelemetrySampler, TraceBuffer
from repro.teradata import TeradataMachine
from repro.workloads import WorkloadSpec, mixed_mix
from repro.workloads.queries import join_abprime, selection_query, update_suite

N = 1_000
SITES = 4
SPEC = WorkloadSpec(queries=12, clients=4, think_time=0.05, mpl=2, seed=1988)

#: Every entry point and the planes it accepts.
ENTRIES = {
    ("gamma", "run"): ("trace", "profile", "telemetry"),
    ("gamma", "run_concurrent"): ("trace", "profile"),
    ("gamma", "update"): ("trace", "profile", "telemetry"),
    ("gamma", "run_workload"): ("telemetry",),
    ("teradata", "run"): ("profile", "telemetry"),
    ("teradata", "update"): ("profile",),
    ("teradata", "run_workload"): ("telemetry",),
}

#: Site node names and the lanes each site's CPU and drives are sampled on.
SITE_LANES = {
    "gamma": ([f"disk{i}" for i in range(SITES)], ("cpu", "disk")),
    "teradata": ([f"amp{i}" for i in range(SITES)], ("cpu", "d0", "d1")),
}


def _machine(kind):
    if kind == "gamma":
        machine = GammaMachine(GammaConfig(n_disk_sites=SITES, n_diskless=2))
    else:
        machine = TeradataMachine(TeradataConfig(n_amps=SITES))
    machine.load_wisconsin("A", N, seed=1)
    machine.load_wisconsin("Bprime", N // 10, seed=2)
    return machine


def _call(entry, machine, kwargs):
    name = entry[1]
    if name == "run":
        return machine.run(
            join_abprime("A", "Bprime", key=False, into="out"), **kwargs)
    if name == "run_concurrent":
        return machine.run_concurrent([
            selection_query("A", N, 0.10, into="sel"),
            join_abprime("A", "Bprime", key=False, into="out"),
        ], **kwargs)
    if name == "update":
        return machine.update(
            update_suite("A", N)["modify 1 tuple (key attribute)"], **kwargs)
    return machine.run_workload(mixed_mix("A", "Bprime", N), SPEC, **kwargs)


def _charged(result):
    """What the simulated machine was charged, as one comparable value."""
    if hasattr(result, "response_time"):
        return (result.response_time, result.result_count,
                result.utilisations, result.stats)
    return result.to_dict()


@lru_cache(maxsize=None)
def _outcome(entry, planes):
    """Run ``entry`` with ``planes`` on a fresh machine: what it charged
    and, per plane, the JSON that plane exports."""
    trace = TraceBuffer() if "trace" in planes else None
    sampler = TelemetrySampler(interval=0.1) if "telemetry" in planes else None
    kwargs = {}
    if trace is not None:
        kwargs["trace"] = trace
    if "profile" in planes:
        kwargs["profile"] = True
    if sampler is not None:
        kwargs["telemetry"] = sampler
    outcome = _call(entry, _machine(entry[0]), kwargs)
    results = outcome if isinstance(outcome, list) else [outcome]
    exported = {"charged": [_charged(r) for r in results]}
    if trace is not None:
        exported["trace"] = trace.to_json()
    if "profile" in planes:
        exported["profile"] = [json.dumps(r.profile.to_dict()) for r in results]
    if sampler is not None:
        exported["telemetry"] = json.dumps(sampler.to_dict())
    return exported


def _cases():
    for entry, accepted in ENTRIES.items():
        subsets = [(plane,) for plane in accepted]
        if len(accepted) > 1:
            subsets.append(accepted)
        for planes in subsets:
            yield pytest.param(
                entry, planes, id=f"{'-'.join(entry)}[{'+'.join(planes)}]")


def test_entries_list_every_plane_each_entry_point_accepts():
    machines = {"gamma": GammaMachine, "teradata": TeradataMachine}
    for (kind, name), accepted in ENTRIES.items():
        params = inspect.signature(getattr(machines[kind], name)).parameters
        assert tuple(
            p for p in ("trace", "profile", "telemetry") if p in params
        ) == accepted, (kind, name)


@pytest.mark.parametrize("entry, planes", _cases())
def test_instrumented_run_charges_what_the_plain_run_charges(entry, planes):
    assert _outcome(entry, planes)["charged"] == _outcome(entry, ())["charged"]


@pytest.mark.parametrize("entry, planes", [
    case for case in _cases() if len(case.values[1]) > 1
])
def test_each_plane_records_the_same_beside_the_others(entry, planes):
    together = _outcome(entry, planes)
    for plane in planes:
        assert _outcome(entry, (plane,))[plane] == together[plane], plane


@pytest.mark.parametrize("entry", [
    entry for entry, accepted in ENTRIES.items() if "telemetry" in accepted
], ids="-".join)
def test_small_machine_samples_one_series_per_server_lane(entry):
    series = json.loads(_outcome(entry, ("telemetry",))["telemetry"])["series"]
    sites, lanes = SITE_LANES[entry[0]]
    assert {
        key for key, s in series.items() if s["node"] in sites
    } == {
        f"{site}.{lane}.{metric}"
        for site in sites for lane in lanes
        for metric in ("util", "qdepth", "wait")
    }
    for key, s in series.items():
        times = s["times"]
        assert times and all(a < b for a, b in zip(times, times[1:])), key
