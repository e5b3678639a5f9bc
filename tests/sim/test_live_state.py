"""Host memory follows live state (DESIGN 5.9).

What a run keeps alive must be what is still live in it, not everything
it ever made:

* the kernel forgets a process when it ends, and nothing else ties a
  finished process into a reference cycle, so refcounting alone frees it
  and its generator — checked here with the cyclic collector off;
* a deadlock report still names every stuck process, in spawn order;
* an exchange's destinations are one tuple that every producer's split
  table shares, and an output port keeps no other per-destination list
  than its packet buffers, so the plumbing of a query is O(sites), not
  O(sites²);
* a waiting message is its chain and one flat hop tuple, and an
  unbounded store carries no putter queue.

Object counts are process-global, so CI also runs this file in an
interpreter of its own (``ledger-smoke``).
"""

import gc
from collections import Counter
from contextlib import contextmanager

import pytest

from repro import GammaConfig, GammaMachine, TeradataConfig
from repro.bench.harness import build_gamma, run_stored
from repro.engine import ports as ports_module
from repro.errors import SimulationError
from repro.hardware import GAMMA_NETWORK, Interconnect
from repro.sim import Delay, Get, Mailbox, Process, Simulation, Store
from repro.teradata import TeradataMachine
from repro.workloads import WorkloadSpec, mixed_mix
from repro.workloads.queries import join_abprime

N = 600


@contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def generators() -> set[int]:
    return {
        id(obj) for obj in gc.get_objects()
        if type(obj).__name__ == "generator"
    }


def assert_nothing_left(before: set[int]) -> None:
    """No process, and no generator made since ``before``, survives."""
    objects = gc.get_objects()
    assert [obj for obj in objects if type(obj) is Process] == []
    assert [
        obj.__qualname__ for obj in objects
        if type(obj).__name__ == "generator" and id(obj) not in before
    ] == []


def gamma() -> GammaMachine:
    machine = GammaMachine(GammaConfig(n_disk_sites=4, n_diskless=4))
    machine.load_wisconsin("A", N, seed=5)
    machine.load_wisconsin("Bp", N // 10, seed=6)
    return machine


def teradata() -> TeradataMachine:
    machine = TeradataMachine(TeradataConfig(n_amps=8))
    machine.load_wisconsin("A", N, seed=5)
    machine.load_wisconsin("Bp", N // 10, seed=6)
    return machine


@pytest.mark.parametrize("make", [gamma, teradata])
def test_a_finished_query_leaves_no_process_behind(make):
    machine = make()
    with collector_off():
        before = generators()
        result = machine.run(join_abprime("A", "Bp", key=False, into=None))
        assert result.result_count == N // 10
        assert_nothing_left(before)


@pytest.mark.parametrize("make", [gamma, teradata])
def test_a_finished_workload_leaves_no_process_behind(make):
    machine = make()
    spec = WorkloadSpec(queries=64, clients=8, think_time=0.2, seed=3)
    with collector_off():
        before = generators()
        result = machine.run_workload(mixed_mix("A", "Bp", N), spec)
        assert len(result.records) == 64
        assert_nothing_left(before)


def test_a_deadlock_names_every_stuck_process_in_spawn_order():
    sim = Simulation()
    stores = [Store(f"never-{i}") for i in range(6)]

    def stuck(store):
        yield Delay(0.5)
        yield Get(store)

    def done(delay):
        yield Delay(delay)

    # Finished processes interleave with the stuck ones, and end both
    # before and after the stuck ones block.
    for i, store in enumerate(stores):
        sim.spawn(done(0.1 * (i + 1)), name=f"done-{i}")
        sim.spawn(stuck(store), name=f"stuck-{i}")
    with pytest.raises(SimulationError) as excinfo:
        sim.run()
    lines = str(excinfo.value).splitlines()
    assert "6 process(es) blocked" in lines[0]
    assert lines[1:] == [
        f"  - 'stuck-{i}' blocked on Get(Store 'never-{i}', empty)"
        for i in range(6)
    ]


@pytest.fixture(scope="module")
def ports_of_a_64_site_join():
    """Every output port of a 64-site joinABprime, and the site count."""
    sites = 64
    machine = build_gamma(
        GammaConfig.paper_default().with_sites(sites),
        relations=[("liveA", 2_000, "heap"), ("liveBprime", 200, "heap")],
    )
    made = []
    init = ports_module.OutputPort.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ports_module.OutputPort, "__init__", recording)
        run_stored(
            machine,
            lambda into: join_abprime(
                "liveA", "liveBprime", key=False, into=into
            ),
            name="live_out",
        )
    return made, sites


def test_every_producer_of_an_exchange_shares_one_destinations_tuple(
    ports_of_a_64_site_join,
):
    ports, sites = ports_of_a_64_site_join
    by_content: dict[tuple[int, ...], set[int]] = {}
    for port in ports:
        destinations = port.split.destinations
        assert type(destinations) is tuple
        by_content.setdefault(
            tuple(map(id, destinations)), set()
        ).add(id(destinations))
    assert all(len(shared) == 1 for shared in by_content.values())
    # The build, probe and store exchanges: a producer per site, each
    # sending to every site, and one tuple per exchange.
    wide = Counter(
        id(port.split.destinations) for port in ports
        if len(port.split.destinations) == sites
    )
    assert sorted(wide.values()) == [sites] * 3


def test_an_output_port_keeps_no_per_destination_list_but_its_buffers(
    ports_of_a_64_site_join,
):
    ports, sites = ports_of_a_64_site_join
    checked = 0
    for port in ports:
        width = len(port.split.destinations)
        if width < sites:
            continue
        checked += 1
        for owner in (port, port.split):
            for name, value in vars(owner).items():
                if isinstance(value, list) and len(value) == width:
                    assert owner is port and name == "_buffers", name
    assert checked >= sites


def test_a_waiting_message_is_its_chain_and_one_hop_tuple():
    sim = Simulation()
    net = Interconnect(GAMMA_NETWORK, ["a", "b"])
    store = Store("inbox")
    message = object()
    sends = 2_000
    with collector_off():
        tracked = len(gc.get_objects())
        for _ in range(sends):
            net.send(sim, "a", "b", 2_048, store, message)
        sim.run(until=0.0)  # every chain is on (or queued at) the sender
        held = len(gc.get_objects()) - tracked
    # A chain, its hops and the sender's queue entry per message.
    assert held <= 3 * sends + 50
    assert len(net._hops("a", "b", 2_048)) == 6
    assert net._hops("a", "a", 64) is net._hops("b", "b", 2_048)
    sim.run()
    assert len(store) == sends


def test_an_unbounded_store_has_no_putter_queue():
    assert Store("unbounded")._putters == ()
    assert Mailbox("port", object)._putters == ()
    assert len(Store("bounded", capacity=1)._putters) == 0
