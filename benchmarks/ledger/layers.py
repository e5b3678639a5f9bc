"""Layer microbenchmarks: one or two numbers per module, from outside.

Each benchmark builds its input untimed, times calls into one layer's
public functions with ``time.process_time`` (CPU seconds: a neighbour on
the other core cannot inflate them), and asserts the layer's answer.
``run_layers`` repeats every benchmark and reports the median per metric.

At ``scale = 1`` every sample is at least half a second of work; the
driver's traced run uses a twentieth of that, the smoke test a hundredth.
"""

from __future__ import annotations

import gc
import math
import os
import random
import shutil
import tempfile
import time
from statistics import median
from typing import Any, Callable, Generator
from zlib import crc32

from repro.bench.store import ResultStore
from repro.catalog import Catalog, Hashed, stable_hash
from repro.engine import (
    AdmissionController,
    BitVectorFilter,
    Destination,
    ExactMatch,
    ExecutionContext,
    GammaMachine,
    LockManager,
    LockMode,
    ModifyTuple,
    Planner,
    Query,
    RangePredicate,
    SplitTable,
)
from repro.engine.columnar import hash_route_batch, partition_batch
from repro.engine.ports import InputPort, OutputPort
from repro.hardware import DiskDrive, GammaConfig, Interconnect
from repro.hardware.disk import FUJITSU_M2333
from repro.hardware.network import GAMMA_NETWORK
from repro.metrics import MetricsRegistry, TelemetrySampler, TraceBuffer
from repro.quel import QuelSession
from repro.sim import Delay, Get, Put, Server, Simulation, Store, Use
from repro.storage import (
    RID,
    BPlusTree,
    BufferPool,
    build_dense_index,
    build_heap_file,
    external_sort,
)
from repro.teradata import TeradataMachine
from repro.teradata.costs import DEFAULT_TERADATA_COSTS
from repro.teradata.planner import TeradataPlanner
from repro.workloads import generate_tuples, wisconsin_schema
from repro.workloads.queries import join_abprime

Sample = dict[str, float]
PAGE = 4096
UNIQUE2 = 1

#: Where ``result_store`` keeps its temporary store: at the root of the
#: checkout (git-ignored), because the benchmark writes nowhere outside it.
SCRATCH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", ".ledger_tmp"
)


class Stopwatch:
    """CPU seconds of a ``with`` block (garbage collected first)."""

    seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        gc.collect()
        self._start = time.process_time()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.seconds = time.process_time() - self._start


def check(ok: bool, what: str) -> None:
    """Answer assertion that survives ``python -O``."""
    if not ok:
        raise AssertionError(f"layer benchmark answer check failed: {what}")


def scaled(full: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(full * scale))


def tuples(n: int) -> list[tuple]:
    return list(generate_tuples(n, seed=1988))


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def kernel_dispatch(scale: float) -> Sample:
    """Delay/Use churn: 50 processes on one FIFO server (1 M events)."""
    procs, iters = 50, scaled(6_700, scale)
    sim, server = Simulation(), Server("cpu")

    def worker() -> Generator[Any, Any, None]:
        for _ in range(iters):
            yield Delay(0.0)
            yield Use(server, 1e-6)
            yield Delay(1e-6)

    for _ in range(procs):
        sim.spawn(worker())
    with Stopwatch() as watch:
        sim.run()
    check(
        math.isclose(server.busy_time, procs * iters * 1e-6, rel_tol=1e-9),
        "server busy time",
    )
    return {
        "sim.kernel.dispatch_ns": 1e9 * watch.seconds / sim.events_processed
    }


def kernel_spawn(scale: float) -> Sample:
    n = scaled(100_000, scale)
    sim = Simulation()

    def child() -> Generator[Any, Any, None]:
        yield Delay(0.0)

    with Stopwatch() as watch:
        procs = [sim.spawn(child()) for _ in range(n)]
        sim.run()
    check(all(proc.finished for proc in procs), "every process finished")
    return {"sim.kernel.spawn_ns": 1e9 * watch.seconds / n}


def server_use(scale: float) -> Sample:
    """A contended server: 16 processes always queued for one slot."""
    procs, iters = 16, scaled(25_000, scale)
    sim, server = Simulation(), Server("disk")

    def worker() -> Generator[Any, Any, None]:
        for _ in range(iters):
            yield Use(server, 1e-3)

    for _ in range(procs):
        sim.spawn(worker())
    with Stopwatch() as watch:
        sim.run()
    check(
        math.isclose(sim.now, procs * iters * 1e-3, rel_tol=1e-9),
        "serialised service time",
    )
    return {"sim.resources.use_ns": 1e9 * watch.seconds / (procs * iters)}


def store_put_get(scale: float) -> Sample:
    n = scaled(600_000, scale)
    sim, store = Simulation(), Store("mailbox")
    received: list[int] = []

    def producer() -> Generator[Any, Any, None]:
        for i in range(n):
            yield Put(store, i)

    def consumer() -> Generator[Any, Any, None]:
        get = Get(store)
        for _ in range(n):
            received.append((yield get))

    sim.spawn(producer())
    sim.spawn(consumer())
    with Stopwatch() as watch:
        sim.run()
    check(received == list(range(n)), "FIFO delivery")
    return {"sim.resources.store_ns": 1e9 * watch.seconds / n}


# ---------------------------------------------------------------------------
# hardware
# ---------------------------------------------------------------------------

def disk_read(scale: float) -> Sample:
    """Half sequential, half random page reads on one drive."""
    n = scaled(400_000, scale, floor=2)
    sim, drive = Simulation(), DiskDrive("d0", FUJITSU_M2333)
    pages = list(range(n // 2))
    rng = random.Random(7)
    pages += [rng.randrange(1_000_000) * 2 for _ in range(n - n // 2)]

    def reader() -> Generator[Any, Any, None]:
        for page_no in pages:
            yield from drive.read("file", page_no, PAGE)

    sim.spawn(reader())
    with Stopwatch() as watch:
        sim.run()
    check(drive.pages_read == n, "pages read")
    return {"hardware.disk.read_ns": 1e9 * watch.seconds / n}


def network_transfer(scale: float) -> Sample:
    """Eight nodes each sending 2 KB messages round the ring."""
    nodes, each = 8, scaled(15_000, scale)
    names = [f"n{i}" for i in range(nodes)]
    sim, net = Simulation(), Interconnect(GAMMA_NETWORK, names)

    def sender(i: int) -> Generator[Any, Any, None]:
        src, dst = names[i], names[(i + 1) % nodes]
        for _ in range(each):
            yield from net.transfer(src, dst, 2048)

    for i in range(nodes):
        sim.spawn(sender(i))
    with Stopwatch() as watch:
        sim.run()
    check(net.messages_sent == nodes * each, "messages sent")
    return {
        "hardware.network.transfer_ns": 1e9 * watch.seconds / (nodes * each)
    }


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------

def heap_build_scan(scale: float) -> Sample:
    n, builds, passes = scaled(200_000, scale, floor=100), 25, 40
    records, schema = tuples(n), wisconsin_schema()
    with Stopwatch() as build:
        for _ in range(builds):
            heap = build_heap_file("bench", schema, PAGE, records)
    check(heap.num_records == n, "heap record count")
    with Stopwatch() as scan:
        seen = 0
        for _ in range(passes):
            for _record in heap.records():
                seen += 1
    check(seen == n * passes, "scanned record count")
    return {
        "storage.heap.build_tuples_per_s": n * builds / build.seconds,
        "storage.heap.scan_tuples_per_s": seen / scan.seconds,
    }


def btree(scale: float) -> Sample:
    n, loads = scaled(500_000, scale, floor=100), 3
    keys = list(range(n))
    random.Random(11).shuffle(keys)
    entries = [(key, RID(i // 19, i % 19)) for i, key in enumerate(keys)]
    with Stopwatch() as load:
        for _ in range(loads):
            tree = build_dense_index("bench.idx", PAGE, entries)
    check(tree.size == n, "bulk-loaded size")

    with Stopwatch() as search:
        found = 0
        for key in keys:
            path = tree.search(key)
            found += path.leaf.keys[path.index] == key
    check(found == n, "every probe found its key")

    grow = BPlusTree("bench.grow", PAGE)
    with Stopwatch() as insert:
        for key in keys:
            grow.insert(key, key)
    check(grow.size == n, "inserted size")
    grow.check_invariants()
    return {
        "storage.btree.bulk_load_keys_per_s": n * loads / load.seconds,
        "storage.btree.search_ns": 1e9 * search.seconds / n,
        "storage.btree.insert_ns": 1e9 * insert.seconds / n,
    }


def buffer_pool(scale: float) -> Sample:
    """Random page touches: one working set that fits the pool (every
    re-touch hits) and one four times larger (about a quarter hit)."""
    capacity, n = 256, scaled(1_000_000, scale, floor=2_000)
    rng = random.Random(13)
    fits = [rng.randrange(capacity) for _ in range(n)]
    spills = [rng.randrange(4 * capacity) for _ in range(n)]
    small, large = BufferPool("fits", capacity), BufferPool("x4", capacity)
    with Stopwatch() as watch:
        for page_no in fits:
            small.access("f", page_no)
        for page_no in spills:
            large.access("f", page_no)
    check(small.misses <= capacity, "fitting set misses once per page")
    check(0.15 < large.hit_ratio < 0.35, "4x set hits about a quarter")
    hits = small.hits + large.hits
    return {
        "storage.buffer.access_ns": 1e9 * watch.seconds / (2 * n),
        "storage.buffer.hit_ratio": hits / (2 * n),
    }


def sort(scale: float) -> Sample:
    n, sorts = scaled(400_000, scale, floor=100), 5
    records = tuples(n)
    with Stopwatch() as watch:
        for _ in range(sorts):
            ordered, stats = external_sort(
                records, lambda r: r[UNIQUE2], 208, PAGE,
                memory_bytes=1 << 20,
            )
    check(
        [r[UNIQUE2] for r in ordered] == list(range(n)), "sorted on unique2"
    )
    check(stats.n_records == n, "sort statistics")
    return {"storage.sort.tuples_per_s": n * sorts / watch.seconds}


# ---------------------------------------------------------------------------
# catalog, workloads
# ---------------------------------------------------------------------------

def decluster(scale: float) -> Sample:
    n, loads = scaled(150_000, scale, floor=100), 3
    records, schema = tuples(n), wisconsin_schema()
    with Stopwatch() as watch:
        for _ in range(loads):
            relation = Catalog().create(
                "bench", schema, Hashed("unique1"), records,
                n_sites=8, page_size=PAGE,
            )
    check(relation.num_records == n, "declustered record count")
    check(min(relation.fragment_sizes()) > 0, "every site got tuples")
    return {"catalog.decluster_tuples_per_s": n * loads / watch.seconds}


def stable_hashing(scale: float) -> Sample:
    """Half integers (builtin path), half strings (crc32 path)."""
    n, passes = scaled(1_000_000, scale, floor=100), 5
    values: list[Any] = list(range(n // 2))
    values += [f"key{i}" for i in range(n - n // 2)]
    with Stopwatch() as watch:
        total = 0
        for _ in range(passes):
            for value in values:
                total += stable_hash(value)
    expected = sum(range(n // 2)) + sum(
        crc32(f"key{i}".encode("utf-8")) for i in range(n - n // 2)
    )
    check(total == passes * expected, "hash checksum")
    return {"catalog.stable_hash_ns": 1e9 * watch.seconds / (n * passes)}


def wisconsin_generate(scale: float) -> Sample:
    n = scaled(450_000, scale, floor=100)
    with Stopwatch() as watch:
        records = list(generate_tuples(n, seed=1988))
    check(len(records) == n, "tuple count")
    check(
        sorted(r[UNIQUE2] for r in records) == list(range(n)),
        "unique2 is a permutation",
    )
    return {"workloads.wisconsin.tuples_per_s": n / watch.seconds}


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

def _drain(port: InputPort, sink: list[int]) -> Generator[Any, Any, None]:
    sink.append(len((yield from port.drain())))


def ports_emit(scale: float) -> Sample:
    """One producer hash-splitting to eight consumers over the ring."""
    n = scaled(400_000, scale, floor=100)
    records, schema = tuples(n), wisconsin_schema()
    ctx = ExecutionContext(GammaConfig.paper_default())
    ports = [
        InputPort(ctx, f"in{i}", node)
        for i, node in enumerate(ctx.diskless_nodes)
    ]
    for port in ports:
        port.add_producer()
    split = SplitTable.by_hash(
        [Destination(port.node.name, port) for port in ports],
        schema, "unique2", ctx.config.costs,
    )
    out = OutputPort(ctx, ctx.disk_nodes[0], split, 208, "bench")

    def producer() -> Generator[Any, Any, None]:
        for start in range(0, n, 1_000):
            yield from out.emit_many(records[start:start + 1_000])
        yield from out.close()

    received: list[int] = []
    ctx.sim.spawn(producer())
    for port in ports:
        ctx.sim.spawn(_drain(port, received))
    with Stopwatch() as watch:
        ctx.sim.run()
    check(sum(received) == n, "every tuple delivered")
    return {"engine.ports.emit_tuples_per_s": n / watch.seconds}


def ports_close(scale: float) -> Sample:
    """64 producers each closing 64 consumers: 4 096 EndOfStream pairs
    per round, nothing else on the wire."""
    side, rounds = 64, scaled(16, scale)
    schema = wisconsin_schema()
    config = GammaConfig.paper_default().with_sites(side)
    seconds = 0.0
    for _ in range(rounds):
        ctx = ExecutionContext(config)
        ports = [
            InputPort(ctx, f"in{i}", node)
            for i, node in enumerate(ctx.diskless_nodes)
        ]
        destinations = [Destination(p.node.name, p) for p in ports]
        for port in ports:
            port.add_producer(side)
        received: list[int] = []
        for node in ctx.disk_nodes:
            split = SplitTable.by_hash(
                destinations, schema, "unique2", config.costs
            )
            out = OutputPort(ctx, node, split, 208, f"out.{node.name}")
            ctx.sim.spawn(out.close())
        for port in ports:
            ctx.sim.spawn(_drain(port, received))
        with Stopwatch() as watch:
            ctx.sim.run()
        seconds += watch.seconds
        check(received == [0] * side, "every consumer saw every close")
        check(
            ctx.stats["control_messages"] == side * side,
            "one EndOfStream per producer and destination",
        )
    return {
        "engine.ports.close_ns_per_pair":
            1e9 * seconds / (rounds * side * side)
    }


def _destinations(ctx: ExecutionContext) -> list[Destination]:
    return [
        Destination(node.name, InputPort(ctx, f"in{i}", node))
        for i, node in enumerate(ctx.diskless_nodes)
    ]


def routing(scale: float) -> Sample:
    """The scalar per-tuple route, the columnar batch route, load-time
    partitioning, and the batched bit-filter probe — same tuples."""
    n = scaled(400_000, scale, floor=1_000)
    records, schema = tuples(n), wisconsin_schema()
    ctx = ExecutionContext(GammaConfig.paper_default())
    destinations = _destinations(ctx)
    sites = len(destinations)
    split = SplitTable.by_hash(
        destinations, schema, "unique2", ctx.config.costs
    )
    route = split.route
    with Stopwatch() as scalar:
        for _ in range(4):
            routed = [route(record) for record in records]

    batches = [records[i:i + 1_000] for i in range(0, n, 1_000)]
    with Stopwatch() as columnar:
        for _ in range(12):
            batched: list[int] = []
            for batch in batches:
                batched.extend(hash_route_batch(batch, UNIQUE2, sites))
    check(batched == routed, "columnar route equals the scalar route")

    with Stopwatch() as partition:
        for _ in range(10):
            buckets = partition_batch(records, UNIQUE2, sites)
    check(
        [len(bucket) for bucket in buckets]
        == [routed.count(site) for site in range(sites)],
        "partition sizes equal the routed counts",
    )

    bits = BitVectorFilter()
    for record in records[: n // 10]:
        bits.add(record[UNIQUE2])
    filtered = SplitTable.by_hash(
        destinations, schema, "unique2", ctx.config.costs, bit_filter=bits
    )
    with Stopwatch() as probe:
        for _ in range(4):
            kept = 0
            for batch in batches:
                kept += sum(
                    dest is not None for dest in filtered.route_batch(batch)
                )
    check(
        kept == sum(bits.might_contain(r[UNIQUE2]) for r in records),
        "batched probe equals the scalar probe",
    )
    check(n // 10 <= kept < n, "filter keeps the build side, drops some")
    return {
        "engine.split_table.route_tuples_per_s": 4 * n / scalar.seconds,
        "engine.columnar.hash_route_tuples_per_s": 12 * n / columnar.seconds,
        "engine.columnar.partition_tuples_per_s": 10 * n / partition.seconds,
        "engine.columnar.bitprobe_tuples_per_s": 4 * n / probe.seconds,
    }


def _join_machine(sites: int) -> GammaMachine:
    machine = GammaMachine(GammaConfig.paper_default().with_sites(sites))
    machine.load_wisconsin("A", 4_000, seed=1)
    machine.load_wisconsin("Bprime", 400, seed=2)
    return machine


def _per_call_us(
    scale: float, loops: int, call: Callable[[], Any]
) -> tuple[float, Any]:
    """Microseconds per ``call()`` over ``loops * scale`` calls, and the
    last return value."""
    loops = scaled(loops, scale)
    with Stopwatch() as watch:
        for _ in range(loops):
            out = call()
    return 1e6 * watch.seconds / loops, out


def planners(scale: float) -> Sample:
    machine = _join_machine(8)
    planner = Planner(machine.config, machine.catalog)
    select = Query.select("A", RangePredicate("unique2", 100, 499), into="o")
    join = join_abprime("A", "Bprime", key=False, into="o")
    update = ModifyTuple("A", ExactMatch("unique1", 7), "odd100", 13)

    select_us, plan = _per_call_us(
        scale, 60_000, lambda: planner.plan(select)
    )
    check("A" in plan.description, "selection plan names its relation")
    join_us, plan = _per_call_us(scale, 10_000, lambda: planner.plan(join))
    check("Bprime" in plan.description, "join plan names the build side")
    update_us, ir = _per_call_us(
        scale, 300_000, lambda: planner.compile_update(update)
    )
    check(len(ir.sites) == 1, "keyed update goes to one site")

    wide = _join_machine(256)
    wide_planner = Planner(wide.config, wide.catalog)
    wide_us, plan = _per_call_us(
        scale, 3_000, lambda: wide_planner.plan(join)
    )
    check("Bprime" in plan.description, "256-site join plan")

    teradata = TeradataMachine()
    teradata.load_wisconsin("A", 4_000, seed=1)
    teradata.load_wisconsin("Bprime", 400, seed=2)
    teradata_planner = TeradataPlanner(
        teradata.config, teradata, DEFAULT_TERADATA_COSTS
    )
    teradata_us, plan = _per_call_us(
        scale, 10_000, lambda: teradata_planner.plan(join)
    )
    check("Bprime" in plan.description, "Teradata join plan")

    session = QuelSession(machine)
    session.compile("range of a is A")
    session.compile("range of b is Bprime")
    text = (
        "retrieve into o (a.all, b.all) where a.unique2 = b.unique2"
        " and b.unique2 >= 0 and b.unique2 <= 99"
    )
    quel_us, compiled = _per_call_us(
        scale, 5_000, lambda: session.compile(text)
    )
    check(isinstance(compiled, Query), "QUEL compiles to a query")
    return {
        "engine.planner.plan_select_us": select_us,
        "engine.planner.plan_join_us": join_us,
        "engine.planner.plan_join_256_us": wide_us,
        "engine.planner.compile_update_us": update_us,
        "teradata.plan_join_us": teradata_us,
        "quel.compile_us": quel_us,
    }


def locks(scale: float) -> Sample:
    """Eight transactions taking a shared relation lock and their own
    exclusive tuple lock, then releasing both (strict 2PL, no waits)."""
    txns, iters = 8, scaled(12_000, scale)
    sim = Simulation()
    manager = LockManager(sim)

    def transaction(txn: int) -> Generator[Any, Any, None]:
        for _ in range(iters):
            yield from manager.acquire(txn, "rel", LockMode.SHARED)
            yield from manager.acquire(
                txn, ("rel", txn), LockMode.EXCLUSIVE
            )
            yield Delay(1e-6)
            manager.release_all(txn)

    for txn in range(txns):
        sim.spawn(transaction(txn))
    with Stopwatch() as watch:
        sim.run()
    check(manager.grants == 2 * txns * iters, "every lock granted")
    check(manager.blocks == 0, "no lock waited")
    return {
        "engine.locks.acquire_release_ns":
            1e9 * watch.seconds / (2 * txns * iters)
    }


def admission(scale: float) -> Sample:
    """Sixteen closed-loop clients behind MPL 8: half always queued."""
    clients, iters = 16, scaled(7_000, scale)
    sim = Simulation()
    controller = AdmissionController(sim, mpl=8)

    def client(i: int) -> Generator[Any, Any, None]:
        for k in range(iters):
            token = (i, k)
            yield from controller.admit(token)
            yield Delay(1e-3)
            controller.release(token)

    for i in range(clients):
        sim.spawn(client(i))
    with Stopwatch() as watch:
        sim.run()
    check(controller.admitted == clients * iters, "every request admitted")
    check(controller.peak_running == 8, "MPL respected")
    return {
        "engine.admission.admit_release_ns":
            1e9 * watch.seconds / (clients * iters)
    }


# ---------------------------------------------------------------------------
# metrics, bench
# ---------------------------------------------------------------------------

def instrumentation(scale: float) -> Sample:
    """What the instrumented twin paths cost: joinABprime with the
    profiler and a trace buffer, and with a telemetry sampler, each
    divided by the plain run on the same machine."""
    n = scaled(40_000, scale, floor=1_000)
    machine = GammaMachine()
    machine.load_wisconsin("A", n, seed=1)
    machine.load_wisconsin("Bprime", n // 10, seed=2)
    query = join_abprime("A", "Bprime", key=False, into="o")

    def run(**instruments: Any) -> tuple[float, Any]:
        with Stopwatch() as watch:
            result = machine.run(query, **instruments)
        machine.drop_relation("o")
        return watch.seconds, result

    run()  # first-touch effects belong to neither side
    plain_s, plain = run()
    profiled_s, profiled = run(trace=TraceBuffer(), profile=True)
    sampled_s, sampled = run(telemetry=TelemetrySampler())
    for other in (profiled, sampled):
        check(
            other.response_time == plain.response_time
            and other.result_count == plain.result_count == n // 10,
            "instrumentation is passive",
        )
    check(profiled.profile is not None, "profile attached")

    adds = scaled(3_000_000, scale, floor=100)
    registry = MetricsRegistry()
    with Stopwatch() as add:
        for _ in range(adds):
            registry.add("packets_sent")
    check(registry.query["packets_sent"] == adds, "counter value")
    return {
        "metrics.profile_overhead_x": profiled_s / plain_s,
        "metrics.telemetry_overhead_x": sampled_s / plain_s,
        "metrics.registry.add_ns": 1e9 * add.seconds / adds,
    }


def result_store(scale: float) -> Sample:
    """Synthetic records in a temporary directory — never the committed
    store under ``benchmarks/results/``."""
    n, reads, loads = scaled(12_000, scale, floor=50), 8, 6
    os.makedirs(SCRATCH, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="store-", dir=SCRATCH)
    try:
        store = ResultStore(directory)
        configs = [{"n": i, "sites": 8, "query": "join"} for i in range(n)]
        with Stopwatch() as append:
            for i, config in enumerate(configs):
                store.append(
                    "bench", "v1", config, {"response": i * 0.5},
                    git_sha="ledger",
                )
        with Stopwatch() as get:
            for _ in range(reads):
                total = 0.0
                for config in configs:
                    record = store.get("bench", "v1", config)
                    total += record.result["response"]
        check(total == 0.5 * sum(range(n)), "stored results read back")
        with Stopwatch() as load:
            for _ in range(loads):
                loaded = ResultStore(directory).records("bench")
        check(len(loaded) == n, "records loaded from disk")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "bench.store.append_us": 1e6 * append.seconds / n,
        "bench.store.get_us": 1e6 * get.seconds / (n * reads),
        "bench.store.load_records_per_s": n * loads / load.seconds,
    }


BENCHMARKS: tuple[Callable[[float], Sample], ...] = (
    kernel_dispatch, kernel_spawn, server_use, store_put_get,
    disk_read, network_transfer,
    heap_build_scan, btree, buffer_pool, sort,
    decluster, stable_hashing, wisconsin_generate,
    ports_emit, ports_close, routing, planners, locks, admission,
    instrumentation, result_store,
)


def run_layers(scale: float, reps: int) -> dict[str, dict[str, Any]]:
    """``{metric: {"value": median, "samples": [...]}}`` over ``reps``
    samples of every benchmark."""
    out: dict[str, dict[str, Any]] = {}
    for benchmark in BENCHMARKS:
        samples: dict[str, list[float]] = {}
        for _ in range(reps):
            for name, value in benchmark(scale).items():
                samples.setdefault(name, []).append(value)
        for name, values in samples.items():
            out[name] = {"value": median(values), "samples": values}
    return out
