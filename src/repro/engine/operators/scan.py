"""Selection operators: file scan and index scans.

Each selection runs on the disk site holding the fragment.  A file scan
uses double-buffered read-ahead (a feeder process fills a bounded store of
pages) so the response time is the *maximum* of disk and CPU demand, like
the overlapped I/O of the real machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Iterator, Optional

from ...sim import Get, Put, Store
from ...storage import StoredFile
from ..node import ExecutionContext, Node
from ..ports import OutputPort
from .base import operator_done

if TYPE_CHECKING:
    from ..plan import Predicate

_FEED_END = object()


def _page_feeder(
    node: Node,
    fragment: StoredFile,
    pages: Iterator[tuple[int, int, list[tuple]]],
    feed: Store,
) -> Generator[Any, Any, None]:
    """Read-ahead process: stream filtered data pages into a bounded
    store."""
    read_page = node.read_page
    name = fragment.name
    # One mutable Put reused per page: the kernel reads .item synchronously
    # at the yield (and by value on the blocked path), so the instance
    # never needs to outlive the next page.
    put_effect = Put(feed, None)
    for item in pages:
        yield read_page(name, item[0])
        put_effect.item = item
        yield put_effect
    put_effect.item = _FEED_END
    yield put_effect


def file_scan_operator(
    ctx: ExecutionContext,
    node: Node,
    fragment: StoredFile,
    predicate: Predicate,
    output: OutputPort,
) -> Generator[Any, Any, int]:
    """Sequential scan of one fragment; returns the match count.

    The feeder filters each page as it reads it
    (:meth:`~repro.storage.StoredFile.filter_pages`: one compare over the
    fragment's column, or ``predicate``'s per-tuple loop where the column
    cannot answer) and hands over ``(page_no, live records, matches)``;
    the page's CPU charge counts every live record either way.
    """
    costs = ctx.config.costs
    schema = fragment.schema
    pages = fragment.filter_pages(
        predicate.compile_batch(schema), predicate.compile_column(schema)
    )
    feed = Store(f"{node.name}.feed", capacity=ctx.config.prefetch_depth)
    ctx.sim.spawn(
        _page_feeder(node, fragment, pages, feed), name=f"feeder:{node.name}"
    )
    matched = 0
    per_tuple = costs.read_tuple + costs.apply_predicate
    setup = costs.page_io_setup
    work = node.work
    get_feed = Get(feed)
    while True:
        item = yield get_feed
        if item is _FEED_END:
            break
        _page_no, live, matches = item
        yield work(setup + live * per_tuple)
        matched += len(matches)
        if matches:
            yield from output.emit_many(matches)
    yield from output.close()
    yield from operator_done(ctx, node)
    return matched


def clustered_index_scan_operator(
    ctx: ExecutionContext,
    node: Node,
    fragment: StoredFile,
    low: Any,
    high: Any,
    output: OutputPort,
) -> Generator[Any, Any, int]:
    """Range selection through the clustered (sparse) B+-tree.

    Only the data pages covering [low, high] are read, sequentially; the
    index descent costs one random read per level (root usually hits the
    buffer pool on repeated queries).
    """
    costs = ctx.config.costs
    tree = fragment.clustered_index
    descent, pages = fragment.clustered_scan(low, high)
    for page_id in descent:
        yield node.read_page(tree.name, page_id, sequential=False)
        yield node.work(costs.btree_level)
    matched = 0
    per_tuple = costs.read_tuple + costs.apply_predicate
    for page_no, matches in pages:
        yield node.read_page(fragment.name, page_no)
        yield node.work(costs.page_io_setup + len(matches) * per_tuple)
        matched += len(matches)
        if matches:
            yield from output.emit_many(matches)
    yield from output.close()
    yield from operator_done(ctx, node)
    return matched


def nonclustered_index_scan_operator(
    ctx: ExecutionContext,
    node: Node,
    fragment: StoredFile,
    attr: str,
    low: Any,
    high: Any,
    output: OutputPort,
) -> Generator[Any, Any, int]:
    """Range selection through a dense non-clustered B+-tree.

    Every qualifying tuple costs one *random* data-page read (unless the
    buffer pool still holds the page) — "each disk page read requires a
    random seek" — which is why this path wins only at low selectivities
    and degrades as the page size grows (Figures 7-8).
    """
    costs = ctx.config.costs
    tree = fragment.secondary[attr]
    descent, entries = fragment.secondary_range(attr, low, high)
    for page_id in descent:
        yield node.read_page(tree.name, page_id, sequential=False)
        yield node.work(costs.btree_level)
    matched = 0
    current_leaf: Optional[int] = descent[-1] if descent else None
    batch: list[tuple] = []
    work = node.work
    for leaf_page, _key, rid in entries:
        if leaf_page != current_leaf:
            # Leaf chain advances to the next index page.
            yield node.read_page(tree.name, leaf_page, sequential=False)
            yield work(costs.page_io_setup)
            current_leaf = leaf_page
        yield work(costs.index_entry)
        yield node.read_page_uncached(fragment.name, rid.page_no)
        record = fragment.fetch(rid)
        yield work(costs.read_tuple)
        matched += 1
        batch.append(record)
        if len(batch) >= 32:
            yield from output.emit_many(batch)
            batch = []
    if batch:
        yield from output.emit_many(batch)
    yield from output.close()
    yield from operator_done(ctx, node)
    return matched


def exact_match_operator(
    ctx: ExecutionContext,
    node: Node,
    fragment: StoredFile,
    attr: str,
    value: Any,
    output: OutputPort,
    use_clustered: bool,
) -> Generator[Any, Any, int]:
    """Single-tuple selection through an index (clustered or secondary)."""
    costs = ctx.config.costs
    if use_clustered:
        accesses, hit = fragment.exact_match_clustered(value)
    else:
        accesses, hit = fragment.exact_match_secondary(attr, value)
    for access in accesses:
        yield node.read_page(access.file_id, access.page_no, sequential=False)
        yield node.work(costs.btree_level)
    matched = 0
    if hit is not None:
        _rid, record = hit
        yield node.work(costs.read_tuple + costs.apply_predicate)
        yield from output.emit_many([record])
        matched = 1
    yield from output.close()
    yield from operator_done(ctx, node)
    return matched


class ScanDriver:
    """Drives a :class:`~repro.engine.ir.ScanOp`: the scheduler activates
    one selection operator per stored fragment, each emitting through the
    destination exchange."""

    def run(self, sched: Any, scan: Any, dest: Any) -> Generator[Any, Any, None]:
        from ...sim import WaitAll

        ctx = sched.ctx
        # Register every producer on the destination ports *before* any
        # scan starts: a fast site must not deliver its EndOfStream while a
        # sibling is still unregistered.
        outputs = {
            site: sched._make_output(ctx.disk_nodes[site], dest, scan.schema)
            for site in scan.sites
        }
        procs = []
        for site in scan.sites:
            node = ctx.disk_nodes[site]
            yield from sched._initiate(node)
            gen = self._generator(ctx, scan, site, node, outputs[site])
            procs.append(
                sched._spawn(
                    node, gen,
                    f"{scan.op_id}.{scan.relation.name}.{site}",
                    op_id=scan.op_id, phase="scan",
                )
            )
        yield WaitAll(procs)

    def _generator(
        self, ctx: ExecutionContext, scan: Any, site: int, node: Node,
        output: OutputPort,
    ) -> Generator[Any, Any, int]:
        from ...errors import PlanError
        from ..plan import AccessPath

        fragment = scan.relation.fragments[site]
        predicate = scan.predicate
        path = scan.path
        if path is AccessPath.FILE_SCAN:
            return file_scan_operator(ctx, node, fragment, predicate, output)
        if path is AccessPath.CLUSTERED_INDEX:
            low, high = self._bounds(predicate)
            return clustered_index_scan_operator(
                ctx, node, fragment, low, high, output
            )
        if path is AccessPath.NONCLUSTERED_INDEX:
            low, high = self._bounds(predicate)
            return nonclustered_index_scan_operator(
                ctx, node, fragment, predicate.attr, low, high, output
            )
        if path is AccessPath.CLUSTERED_EXACT:
            return exact_match_operator(
                ctx, node, fragment, predicate.attr, predicate.value,
                output, use_clustered=True,
            )
        if path is AccessPath.NONCLUSTERED_EXACT:
            return exact_match_operator(
                ctx, node, fragment, predicate.attr, predicate.value,
                output, use_clustered=False,
            )
        raise PlanError(f"unsupported access path {path}")

    @staticmethod
    def _bounds(predicate: Any) -> tuple[Any, Any]:
        from ...errors import PlanError
        from ..plan import ExactMatch, RangePredicate

        if isinstance(predicate, RangePredicate):
            return predicate.low, predicate.high
        if isinstance(predicate, ExactMatch):
            return predicate.value, predicate.value
        raise PlanError(f"predicate {predicate!r} has no bounds")
