"""Single-tuple update operators (Table 3).

Gamma runs update operators only on the disk sites.  An update addressed by
the partitioning attribute goes to exactly one site; otherwise every site
is activated and each performs a local index lookup, with only the owning
site mutating anything.  Updates that go through an index structure also
write a *deferred update file* for the index — Gamma's solution to the
Halloween problem — whose cost is visible between rows one and two of
Table 3.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ...storage import RID, PageAccess, StoredFile
from ..node import ExecutionContext, Node
from ..plan import ExactMatch
from .base import operator_done


def _charge_accesses(
    node: Node, accesses: list[PageAccess]
) -> Generator[Any, Any, None]:
    """Replay the page touches reported by the storage layer."""
    for access in accesses:
        if access.write:
            yield from node.write_page(
                access.file_id, access.page_no, sequential=False
            )
        else:
            yield node.read_page(
                access.file_id, access.page_no, sequential=False
            )


def _charge_deferred_update(
    ctx: ExecutionContext, node: Node, label: str
) -> Generator[Any, Any, None]:
    """Create/append/force the deferred update file for an index change."""
    file_id = ctx.temp_file_id(f"dfr.{label}")
    for page_no in range(ctx.config.deferred_update_ios):
        yield from node.write_page(file_id, page_no, sequential=False)
    ctx.metrics.add("deferred_update_files")


def _ship_log(
    ctx: ExecutionContext, node: Node, fragment: StoredFile
) -> Generator[Any, Any, None]:
    """One log record per single-tuple update (when the recovery server
    of the Conclusions is enabled), forced before the update commits."""
    if ctx.recovery_log is not None:
        yield from ctx.recovery_log.ship(
            node, 1, fragment.schema.tuple_bytes, force=True
        )


def _locate(
    ctx: ExecutionContext,
    node: Node,
    fragment: StoredFile,
    where: ExactMatch,
) -> Generator[Any, Any, Optional[tuple[RID, tuple]]]:
    """Find the target tuple on this fragment via the best access path."""
    costs = ctx.config.costs
    if where.attr == fragment.clustered_on:
        accesses, hit = fragment.exact_match_clustered(where.value)
    elif where.attr in fragment.secondary:
        accesses, hit = fragment.exact_match_secondary(where.attr, where.value)
    else:
        # No index: scan this fragment's pages until found.
        accesses, hit = [], None
        predicate_pos = fragment.schema.position(where.attr)
        for page_no, page in fragment.heap.scan_pages():
            yield node.read_page(fragment.name, page_no)
            records = list(page.slotted_records())
            yield node.work(
                costs.page_io_setup
                + len(records) * (costs.read_tuple + costs.apply_predicate)
            )
            for slot, record in records:
                if record[predicate_pos] == where.value:
                    hit = (RID(page_no, slot), record)
                    break
            if hit is not None:
                break
        return hit
    for access in accesses:
        yield node.read_page(access.file_id, access.page_no, sequential=False)
        yield node.work(costs.btree_level)
    return hit


def append_operator(
    ctx: ExecutionContext,
    node: Node,
    fragment: StoredFile,
    record: tuple,
) -> Generator[Any, Any, int]:
    """Append one tuple to this site's fragment, maintaining indexes."""
    costs = ctx.config.costs
    uses_index = bool(fragment.secondary) or fragment.clustered_on is not None
    rid, accesses = fragment.append(record)
    yield node.work(
        costs.update_tuple
        + costs.index_maintenance * (len(fragment.secondary)
                                     + (1 if fragment.clustered_on else 0))
    )
    yield from _charge_accesses(node, accesses)
    if uses_index:
        yield from _charge_deferred_update(ctx, node, "append")
    yield from _ship_log(ctx, node, fragment)
    yield from operator_done(ctx, node)
    return 1


def delete_operator(
    ctx: ExecutionContext,
    node: Node,
    fragment: StoredFile,
    where: ExactMatch,
) -> Generator[Any, Any, int]:
    """Delete the tuple matching ``where`` if it lives on this site."""
    costs = ctx.config.costs
    hit = yield from _locate(ctx, node, fragment, where)
    if hit is None:
        yield from operator_done(ctx, node)
        return 0
    rid, _record = hit
    used_index = fragment.has_index_on(where.attr)
    _deleted, accesses = fragment.delete_record(rid)
    yield node.work(
        costs.update_tuple + costs.index_maintenance * len(fragment.secondary)
    )
    yield from _charge_accesses(node, accesses)
    if used_index or fragment.secondary:
        yield from _charge_deferred_update(ctx, node, "delete")
    yield from _ship_log(ctx, node, fragment)
    yield from operator_done(ctx, node)
    return 1


def modify_operator(
    ctx: ExecutionContext,
    node: Node,
    fragment: StoredFile,
    where: ExactMatch,
    attr: str,
    value: Any,
    relocate: bool,
) -> Generator[Any, Any, Optional[tuple]]:
    """Set ``attr = value`` on the matching tuple of this fragment.

    ``relocate`` is set by the scheduler when the modified attribute is the
    partitioning or clustering key, so the tuple must move (Table 3 row 4:
    "the modified attribute is the key attribute, thus requiring that the
    tuple be relocated").

    Returns None when the tuple is not on this fragment,
    ``("inplace", None)`` after an in-place change, or
    ``("relocate", new_record)`` when the scheduler must re-insert the
    record at its new home site.
    """
    costs = ctx.config.costs
    hit = yield from _locate(ctx, node, fragment, where)
    if hit is None:
        yield from operator_done(ctx, node)
        return None
    rid, record = hit
    pos = fragment.schema.position(attr)
    new_record = record[:pos] + (value,) + record[pos + 1:]
    relocating = relocate or attr == fragment.clustered_on
    index_touched = fragment.has_index_on(attr)
    if relocating:
        # Key change: the tuple moves position (delete + re-insert).
        _old, del_accesses = fragment.delete_record(rid)
        yield from _charge_accesses(node, del_accesses)
        yield node.work(
            costs.update_tuple
            + costs.index_maintenance * (1 + len(fragment.secondary))
        )
        yield from _charge_deferred_update(ctx, node, "modify-key")
        yield from _ship_log(ctx, node, fragment)
        yield from operator_done(ctx, node)
        return ("relocate", new_record)
    _old, accesses = fragment.replace_record(rid, new_record)
    yield node.work(
        costs.update_tuple
        + (costs.index_maintenance if index_touched else 0.0)
    )
    yield from _charge_accesses(node, accesses)
    if index_touched:
        yield from _charge_deferred_update(ctx, node, "modify")
    yield from _ship_log(ctx, node, fragment)
    yield from operator_done(ctx, node)
    return ("inplace", None)


def reinsert_operator(
    ctx: ExecutionContext,
    node: Node,
    fragment: StoredFile,
    record: tuple,
) -> Generator[Any, Any, int]:
    """Second half of a cross-site relocation: insert at the new home."""
    result = yield from append_operator(ctx, node, fragment, record)
    return result
