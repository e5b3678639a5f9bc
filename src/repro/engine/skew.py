"""Skew-aware redistribution: the one home of every join-splitting strategy.

Plain hash partitioning sends every tuple with join-attribute value *v*
to fragment ``gamma_hash(v, N)``.  Under a skewed value distribution one
fragment receives the hot values' entire weight and the join runs at the
speed of its slowest site.  This module turns a plan-time sample of the
join attribute into the three classic mitigations:

* :func:`histogram_boundaries` — equal-depth range cut points, so each
  fragment covers the same sampled tuple count rather than the same
  key-space width;
* :func:`virtual_map` — virtual-processor hashing: over-partition into
  ``V = factor × N`` buckets, then bin-pack the buckets onto the N
  fragments by sampled load (longest-processing-time-first);
* :func:`hot_keys` — fragment-replicate: identify the values heavy
  enough that no *partitioning* scheme can balance them, so the build
  side broadcasts them and the probe side sprays them round-robin.

Both ends of a strategy live here.  At plan time :func:`join_exchanges`
draws the :func:`sample` and returns a join's (build, probe) exchange
pair; the Gamma :class:`~repro.engine.planner.Planner` and the
:class:`~repro.teradata.planner.TeradataPlanner` both call it.  At run
time :func:`router` turns every value-routed exchange — plain hash
included — into the batch router both machines split by: Gamma's split
tables (``SplitTable.by_hash``) route each packet with it, Teradata's
``TeradataRun._redistribute`` buckets spool tuples with it.  A new
strategy is one edit to each of the two.  The statistics are pure
functions of the sample, so plans are deterministic.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import Counter
from typing import Any, Callable, Optional, Sequence

from ..catalog import gamma_hash
from ..errors import PlanError
from .ir import Exchange, ExchangeKind

#: Valid values for the planners' ``skew_strategy`` knob.
SKEW_STRATEGIES = ("hash", "range", "vhash", "hot-broadcast")

#: Records sampled from a base relation per join (and per Gamma sort).
SKEW_SAMPLE = 2000

#: Virtual buckets per join fragment for ``vhash``.
VIRTUAL_FACTOR = 8

#: ``hot-broadcast``: a key is hot when its sampled share of the stream
#: is at least this fraction of one fragment's fair share.
HOT_KEY_SHARE = 0.5


def histogram_boundaries(
    sample: Sequence, n_frag: int
) -> Optional[list]:
    """Equal-depth quantile cut points from the sampled histogram.

    Tuples route by ``bisect_right(boundaries, value)``, so the cut
    points are the *sorted sample's* quantiles — with a skewed
    distribution the slices are narrow around the hot values and wide
    over the cold tail.  Returns None when the sample is too small to
    cut, or so concentrated that ranges cannot split it (a single
    dominant key would send everything to fragment 0 anyway).
    """
    ordered = sorted(sample)
    if len(ordered) < n_frag:
        return None
    boundaries = [
        ordered[(len(ordered) * i) // n_frag - 1]
        for i in range(1, n_frag)
    ]
    if boundaries[0] == ordered[-1]:
        return None
    return boundaries


def virtual_map(
    sample: Sequence, n_frag: int, factor: int = VIRTUAL_FACTOR
) -> tuple[int, ...]:
    """Virtual-processor hash map: ``map[gamma_hash(v, V)]`` is the
    fragment for value ``v``, with the V virtual buckets bin-packed onto
    the fragments by sampled load (heaviest first — the LPT heuristic).
    Ties break on the lower bucket / fragment index, so the map is a
    deterministic function of the sample."""
    v = n_frag * factor
    load = [0] * v
    for value in sample:
        load[gamma_hash(value, v)] += 1
    assignment = [0] * v
    fragment_load = [0] * n_frag
    for bucket in sorted(range(v), key=lambda b: (-load[b], b)):
        target = min(range(n_frag), key=lambda f: (fragment_load[f], f))
        assignment[bucket] = target
        fragment_load[target] += load[bucket]
    return tuple(assignment)


def hot_keys(
    sample: Sequence, n_frag: int, share: float = HOT_KEY_SHARE
) -> frozenset:
    """Values whose sampled frequency reaches ``share`` of one
    fragment's fair share of the stream.  Empty when the sample is
    balanced — the caller should then fall back to plain hashing."""
    counts = Counter(sample)
    threshold = share * len(sample) / n_frag
    return frozenset(
        value for value, count in counts.items() if count >= threshold
    )


def sample(relation: Any, attr: str) -> list:
    """The first :data:`SKEW_SAMPLE` values of ``attr`` in ``relation``'s
    stored order: the plan-time statistics every strategy (and Gamma's
    sort boundaries) is derived from."""
    pos = relation.schema.position(attr)
    return [
        record[pos]
        for record in itertools.islice(relation.records(), SKEW_SAMPLE)
    ]


def join_exchanges(
    strategy: str,
    build_attr: str,
    probe_attr: str,
    relation: Optional[Any],
    n_frag: int,
) -> Optional[tuple[Exchange, Exchange]]:
    """(build exchange, probe exchange) of a join split ``n_frag`` ways
    under ``strategy``, from a sample of ``probe_attr`` in ``relation``
    (the probe side's base relation).

    Returns None — keep the plain hash split — for ``"hash"``, when
    there is no relation to sample or nothing in it, when one fragment
    makes redistribution moot, when the sample cannot be cut into
    ranges, or when ``hot-broadcast`` detects no hot key (plain hashing
    is then already balanced).
    """
    if strategy == "hash" or n_frag <= 1 or relation is None:
        return None
    values = sample(relation, probe_attr)
    if not values:
        return None
    if strategy == "range":
        boundaries = histogram_boundaries(values, n_frag)
        if boundaries is None:
            return None
        return (
            Exchange(ExchangeKind.RANGE, attr=build_attr,
                     boundaries=boundaries),
            Exchange(ExchangeKind.RANGE, attr=probe_attr,
                     boundaries=boundaries),
        )
    if strategy == "vhash":
        vmap = virtual_map(values, n_frag)
        return (
            Exchange(ExchangeKind.VHASH, attr=build_attr, virtual_map=vmap),
            Exchange(ExchangeKind.VHASH, attr=probe_attr, virtual_map=vmap),
        )
    hot = hot_keys(values, n_frag)
    if not hot:
        return None
    return (
        Exchange(ExchangeKind.HOT_BROADCAST, attr=build_attr, hot_keys=hot),
        Exchange(ExchangeKind.HOT_SPRAY, attr=probe_attr, hot_keys=hot),
    )


#: A batch router: ``route(records, pos)`` is one destination per record,
#: chosen by the record's ``pos``-th value.
BatchRoute = Callable[[Sequence[tuple], int], list]


def router(exchange: Exchange, n: int) -> BatchRoute:
    """The batch router of a value-routed exchange over ``n`` consumers.

    Each destination is a Python ``int`` in ``range(n)``, or — for a hot
    key of a hot-broadcast exchange — the tuple of every index.  Hash,
    vhash and both hot kinds hash through
    :func:`~repro.engine.columnar.hash_route_batch`; range bisects the
    cut points; hot-spray gives each hot record the next index
    round-robin, so the returned router's cursor advances once per hot
    record it routes.

    Raises :class:`~repro.errors.PlanError` naming the kind for an
    exchange that does not route by value (local, merge, round-robin,
    record-hash).
    """
    # Imported on first use: columnar loads numpy, which importing a
    # machine or planner does not.
    from .columnar import hash_route_batch

    kind = exchange.kind
    if kind is ExchangeKind.HASH:
        return lambda records, pos: hash_route_batch(records, pos, n)
    if kind is ExchangeKind.RANGE:
        # Values past the last of the first n-1 cut points go to the
        # last consumer.
        bounds = list(exchange.boundaries or ())[: n - 1]
        return lambda records, pos: [
            bisect_right(bounds, record[pos]) for record in records
        ]
    if kind is ExchangeKind.VHASH:
        if not exchange.virtual_map:
            raise PlanError("vhash exchange needs a virtual_map")
        fragment = [index % n for index in exchange.virtual_map]
        v = len(fragment)
        return lambda records, pos: [
            fragment[bucket] for bucket in hash_route_batch(records, pos, v)
        ]
    if kind in (ExchangeKind.HOT_BROADCAST, ExchangeKind.HOT_SPRAY):
        hot = exchange.hot_keys or frozenset()
        hot_dests = (
            itertools.repeat(tuple(range(n)))
            if kind is ExchangeKind.HOT_BROADCAST
            else itertools.cycle(range(n))
        )

        def hot_route(records: Sequence[tuple], pos: int) -> list:
            out: list = hash_route_batch(records, pos, n)
            for i, record in enumerate(records):
                if record[pos] in hot:
                    out[i] = next(hot_dests)
            return out

        return hot_route
    raise PlanError(f"a {kind.value} exchange does not route by value")


__all__ = [
    "BatchRoute",
    "HOT_KEY_SHARE",
    "SKEW_SAMPLE",
    "SKEW_STRATEGIES",
    "VIRTUAL_FACTOR",
    "histogram_boundaries",
    "hot_keys",
    "join_exchanges",
    "router",
    "sample",
    "virtual_map",
]
