"""Instrumented runs execute the plain packet path — and say what it did.

A profiler or a trace used to swap the packet path for a twin: a generator
courier *process* per packet (``transfer`` then ``Put``), one such courier
per destination on a port close, and consumer loops driven by a
``next_packet`` that carried its own copy of the receive accounting.  The
twins are gone from ``src/``; this file keeps them as the reference and
holds the one shipped path to them — profile JSON, trace bytes, response
time, utilisations and counters — for a profiled, a traced and a
profiled-and-traced run.  The kernel event count is the one counter that
differs, by exactly what the shipped couriers save (:func:`events_saved`).

Two things only this file notices (each checked by breaking the code):
dropping the courier's ``owner`` moves data-packet interface and ring time
to ``(other)`` while every timeline stays put, and calling ``observe``
before the receive cost is served shifts the trace's ``recv`` instants.
"""

from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace
from typing import Any, Generator, Optional

import pytest

from repro.bench.harness import build_gamma
from repro.engine.node import ExecutionContext
from repro.engine.operators import join, store
from repro.engine.ports import DataPacket, EndOfStream, InputPort
from repro.hardware import GammaConfig, Interconnect
from repro.metrics import TraceBuffer
from repro.metrics.profile import OTHER
from repro.sim import Put, Simulation, Store
from repro.workloads.queries import join_abprime, selection_query

N = 2_000

# ---------------------------------------------------------------------------
# The reference: the instrumented twins as they were deleted from src/.
# ---------------------------------------------------------------------------


def _reference_transfer_fast(
    net: Interconnect, sim: Simulation, src: str, dst: str, nbytes: int,
    store_: Any, message: Any,
) -> None:
    """A courier process per message; ``spawn`` records the sender as its
    parent, which is how the profiler found the operator."""

    def courier() -> Generator[Any, Any, None]:
        yield from net.transfer(src, dst, nbytes)
        yield Put(store_, message)

    sim.spawn(courier(), name="courier")


def _reference_transfer_burst(
    net: Interconnect, sim: Simulation, src: str, destinations: Any,
    nbytes: int, message: Any,
) -> None:
    """The profiled close: one courier per destination, in list order."""
    for dest in destinations:
        _reference_transfer_fast(
            net, sim, src, dest.node_name, nbytes, dest.store, message
        )


def _reference_next_packet(
    self: InputPort,
) -> Generator[Any, Any, Optional[DataPacket]]:
    """``InputPort.next_packet`` with its own receive accounting.  (The
    port's mailbox counts the EndOfStream marks: a consumer only ever
    receives the last one.)"""
    message = yield self._get_effect
    if type(message) is EndOfStream:
        return None
    node = self.node
    costs = node.config.costs
    if message.src_node == node.name:
        eff = node.work(costs.packet_short_circuit)
    else:
        eff = node.work(costs.packet_receive)
    if eff is not None:
        yield eff
    n_records = len(message.records)
    self._query_counter["packets_received"] += 1
    nm = self._node_metrics
    if nm is None:
        nm = self._node_metrics = self.ctx.metrics.node(node.name)
    nm.packets_received += 1
    nm.tuples_in += n_records
    om = self._op_metrics
    if om is None:
        om = self._op_metrics = self.ctx.metrics.operator(
            self.name, node.name
        )
    om.tuples_in += n_records
    if self.ctx.profiler is not None:
        self.ctx.profiler.record_tuples(
            self.ctx.sim._current, tuples_in=len(message.records)
        )
    if self.ctx.trace is not None:
        self.ctx.trace.instant(
            self.node.name, "net", f"recv:{self.name}",
            self.ctx.sim.now, cat="packet",
            args={"tuples": len(message.records),
                  "from": message.src_node},
        )
        self.ctx.trace.counter(
            self.node.name, f"queue:{self.name}", self.ctx.sim.now,
            {"depth": float(len(self.store))},
        )
    return message


def _next_packet_driven(consumer: Any, port_of: Any) -> Any:
    """``consumer`` as its instrumented branch ran it:
    ``message = yield from port.next_packet()``, ``None`` ending the loop.

    Rather than carry a second copy of three loop bodies, the shipped
    generator is stepped by hand with its own receive switched off on this
    port; every ``Get`` it asks for is answered by the reference
    ``next_packet``.
    """

    def driven(*args: Any) -> Generator[Any, Any, Any]:
        port = port_of(*args)
        port.receive_effect = lambda message: None  # next_packet charged it
        port.observed = False  # ... and reported it
        body = consumer(*args)
        try:
            effect = next(body)
            while True:
                if effect is port._get_effect:
                    message = yield from _reference_next_packet(port)
                    if message is None:
                        # Every producer has closed; one more mark takes
                        # the loop to its own exit (the old ``break``).
                        message = EndOfStream("reference")
                    effect = body.send(message)
                else:
                    effect = body.send((yield effect))
        except StopIteration as stop:
            return stop.value

    return driven


@contextmanager
def reference_path() -> Generator[None, None, None]:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Interconnect, "transfer_fast", _reference_transfer_fast)
        patch.setattr(
            Interconnect, "transfer_burst", _reference_transfer_burst
        )
        patch.setattr(InputPort, "next_packet", _reference_next_packet)
        for module, name, port_of in [
            (join, "build_consumer", lambda ctx, s: s.build_port),
            (join, "probe_consumer", lambda ctx, s: s.probe_port),
            (store, "store_operator", lambda ctx, node, port, frag: port),
        ]:
            patch.setattr(
                module, name,
                _next_packet_driven(getattr(module, name), port_of),
            )
        yield


# ---------------------------------------------------------------------------
# The grid
# ---------------------------------------------------------------------------


def _hybrid(policy: str) -> dict[str, Any]:
    # Under a third of the memory the build side needs and a 4x underestimate
    # of it: partitions spill, and demote/dynamic react mid-build.
    return dict(
        join_overflow=policy, join_memory_total=12_000,
        join_estimate_factor=0.25,
    )


SCENARIOS: dict[str, tuple[dict[str, Any], Any]] = {
    "select 1%": ({}, lambda into: selection_query("obsA", N, 0.01, into=into)),
    "select 100%": (
        {}, lambda into: selection_query("obsA", N, 1.0, into=into)
    ),
    # The host sink is one of the consumers that call next_packet itself.
    "select 10% to host": (
        {}, lambda into: selection_query("obsA", N, 0.1)
    ),
    "simple joinABprime": (
        {}, lambda into: join_abprime("obsA", "obsBprime", key=False, into=into)
    ),
    **{
        f"hybrid {policy}": (
            _hybrid(policy),
            lambda into: join_abprime(
                "obsA", "obsBprime", key=False, into=into
            ),
        )
        for policy in ("static", "demote", "dynamic")
    },
}

MODES = {
    "profile": (True, False), "trace": (False, True), "both": (True, True),
}


def _machine(scenario: str, sites: int) -> Any:
    changes, _ = SCENARIOS[scenario]
    config = replace(GammaConfig.paper_default().with_sites(sites), **changes)
    return build_gamma(
        config,
        relations=[("obsA", N, "heap"), ("obsBprime", N // 10, "heap")],
    )


def _run(machine: Any, scenario: str, profile: bool, traced: bool) -> dict:
    trace = TraceBuffer() if traced else None
    query = SCENARIOS[scenario][1]("obs_out")
    result = machine.run(query, trace=trace, profile=profile)
    if query.into is not None:
        machine.drop_relation(query.into)
    return {
        "response_time": result.response_time,
        "utilisations": result.utilisations,
        "stats": result.stats,
        "profile": result.profile.to_json() if profile else None,
        "trace": trace.to_json() if trace is not None else None,
    }


@contextmanager
def events_saved(tally: list[int]) -> Generator[None, None, None]:
    """Count the kernel events the shipped couriers save over the
    reference into ``tally[0]``: one per delivering courier (no resume
    after the ``Put``) and D - 1 per close burst of D destinations (one
    start event instead of D)."""
    fast, burst = Interconnect.transfer_fast, Interconnect.transfer_burst

    def counted_fast(self: Interconnect, *args: Any) -> None:
        tally[0] += 1
        fast(self, *args)

    def counted_burst(
        self: Interconnect, sim: Simulation, src: str, destinations: Any,
        *args: Any,
    ) -> None:
        if destinations:
            tally[0] += 2 * len(destinations) - 1
        burst(self, sim, src, destinations, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Interconnect, "transfer_fast", counted_fast)
        patch.setattr(Interconnect, "transfer_burst", counted_burst)
        yield


@pytest.mark.parametrize("sites", [4, 32])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_shipped_path_matches_the_deleted_twins(scenario, sites):
    machine = _machine(scenario, sites)
    plain = _run(machine, scenario, False, False)
    for mode, (profile, traced) in MODES.items():
        saved = [0]
        with events_saved(saved):
            shipped = _run(machine, scenario, profile, traced)
        with reference_path():
            reference = _run(machine, scenario, profile, traced)
        events = reference["stats"].pop("sim_events")
        assert shipped["stats"]["sim_events"] == events - saved[0], mode
        reference["stats"]["sim_events"] = shipped["stats"]["sim_events"]
        assert shipped == reference, mode
        # ... and watching changed nothing the machine was charged.
        for key in ("response_time", "utilisations", "stats"):
            assert shipped[key] == plain[key], (mode, key)
    if scenario.startswith("hybrid"):
        assert plain["stats"]["hash_overflows"] > 0  # memory pressure is real


@pytest.mark.parametrize("scenario", ["simple joinABprime", "hybrid dynamic"])
def test_a_profiled_run_spawns_no_extra_processes(scenario, monkeypatch):
    spawned: list[str] = []
    spawn = Simulation.spawn

    def counting_spawn(self, gen, name="proc"):
        spawned.append(name)
        return spawn(self, gen, name)

    monkeypatch.setattr(Simulation, "spawn", counting_spawn)
    machine = _machine(scenario, 4)
    counts = []
    for profile, traced in [(False, False), *MODES.values()]:
        del spawned[:]
        _run(machine, scenario, profile, traced)
        counts.append(len(spawned))
    assert len(set(counts)) == 1 and counts[0] > 0
    # The reference really is the per-packet-process path.
    del spawned[:]
    with reference_path():
        run = _run(machine, scenario, True, False)
    assert len(spawned) >= counts[0] + run["stats"]["packets_sent"]


def test_a_courier_outside_any_process_is_nobodys():
    """Owner ``None`` (dispatch from no process) lands in ``(other)``."""
    ctx = ExecutionContext(GammaConfig.paper_default().with_sites(2),
                           profile=True)
    src, dst = (node.name for node in ctx.disk_nodes)
    box = Store("box")
    ctx.net.transfer_fast(ctx.sim, src, dst, 2048, box, "data")
    ctx.net.transfer_burst(
        ctx.sim, src, [SimpleNamespace(node_name=dst, store=box)], 64, "eos",
    )
    ctx.sim.run()
    assert len(box) == 2
    assert set(ctx.profiler.spans) == {OTHER}
    assert ctx.profiler.spans[OTHER].busy["net"] > 0.0
