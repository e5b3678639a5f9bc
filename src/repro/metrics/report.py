"""Post-run utilisation reports.

The paper explains every headline result through resource utilisation:
linear selection speedup because the disks stay saturated (Figures 1-4),
the CPU-bound to disk-bound crossover as the page size grows (Figures
5-8), network-interface throttling of high-selectivity queries.  A
:class:`UtilisationReport` prints exactly those per-node CPU/disk/network
busy fractions for one finished execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional


def peak_utilisation(
    utilisations: Mapping[str, float], resource: str
) -> float:
    """Busiest node's busy fraction for one resource class.

    Operates on the flat ``{"node.resource": fraction}`` mapping carried
    by ``QueryResult.utilisations``.  Matching is strict: either the bare
    key equals ``resource`` (``"ring"``, ``"ynet"``) or the key's final
    dot-separated component does — so resource ``"nic"`` matches
    ``"host.nic"`` but never a *node* that merely contains ``nic``
    (``"nic0.cpu"``, ``"mechanic.disk"``).  Non-finite values (an empty
    run reported as NaN upstream) are ignored; an empty mapping yields
    ``0.0``.
    """
    suffix = f".{resource}"
    return max(
        (
            value for key, value in utilisations.items()
            if (key == resource or key.endswith(suffix))
            and math.isfinite(value)
        ),
        default=0.0,
    )


@dataclass
class NodeUtilisation:
    """Busy fractions and key counters for one processor."""

    name: str
    cpu: float
    disk: Optional[float]
    nic: Optional[float]
    pages_read: int = 0
    pages_written: int = 0
    tuples_in: int = 0
    tuples_out: int = 0

    @property
    def busiest_resource(self) -> tuple[str, float]:
        candidates = [("cpu", self.cpu)]
        if self.disk is not None:
            candidates.append(("disk", self.disk))
        if self.nic is not None:
            candidates.append(("nic", self.nic))
        return max(candidates, key=lambda kv: kv[1])


class UtilisationReport:
    """Per-node CPU/disk/network busy fractions for one execution."""

    def __init__(
        self,
        elapsed: float,
        rows: list[NodeUtilisation],
        ring: Optional[float] = None,
    ) -> None:
        self.elapsed = elapsed
        self.rows = rows
        self.ring = ring

    # -- analysis ---------------------------------------------------------
    def bottleneck(self) -> tuple[str, str, float]:
        """(node, resource, busy fraction) of the most utilised resource."""
        best = ("", "none", 0.0)
        for row in self.rows:
            resource, value = row.busiest_resource
            if value > best[2]:
                best = (row.name, resource, value)
        if self.ring is not None and self.ring > best[2]:
            best = ("ring", "ring", self.ring)
        return best

    def as_dict(self) -> dict[str, float]:
        """Flat ``{"node.resource": fraction}`` map (QueryResult shape)."""
        out: dict[str, float] = {}
        for row in self.rows:
            out[f"{row.name}.cpu"] = row.cpu
            if row.disk is not None:
                out[f"{row.name}.disk"] = row.disk
            if row.nic is not None:
                out[f"{row.name}.nic"] = row.nic
        if self.ring is not None:
            out["ring"] = self.ring
        return out

    # -- rendering --------------------------------------------------------
    @staticmethod
    def _fmt(value: Optional[float], missing: str) -> str:
        """``0.00`` for non-finite fractions (zero-elapsed runs), never NaN."""
        if value is None:
            return missing
        if not math.isfinite(value):
            value = 0.0
        return f"{value:.2f}"

    def to_markdown(self) -> str:
        lines = [
            f"### Utilisation over {self.elapsed:.3f} simulated seconds",
            "",
            "| node | cpu | disk | nic | pages r/w | tuples in/out |",
            "|---|---|---|---|---|---|",
        ]
        for row in self.rows:
            disk = self._fmt(row.disk, "—")
            nic = self._fmt(row.nic, "—")
            lines.append(
                f"| {row.name} | {self._fmt(row.cpu, '—')} | {disk} | {nic}"
                f" | {row.pages_read}/{row.pages_written}"
                f" | {row.tuples_in}/{row.tuples_out} |"
            )
        if self.ring is not None:
            lines.append(f"| ring | — | — | {self.ring:.2f} | — | — |")
        node, resource, value = self.bottleneck()
        lines.append("")
        lines.append(f"Bottleneck: {resource} at {node} ({value:.0%} busy)")
        return "\n".join(lines)

    def __str__(self) -> str:
        header = (
            f"{'node':>10} {'cpu':>6} {'disk':>6} {'nic':>6}"
            f" {'pages r/w':>12} {'tuples in/out':>16}"
        )
        lines = [
            f"utilisation over {self.elapsed:.3f}s simulated", header,
        ]
        for row in self.rows:
            disk = self._fmt(row.disk, "-")
            nic = self._fmt(row.nic, "-")
            lines.append(
                f"{row.name:>10} {self._fmt(row.cpu, '-'):>6} {disk:>6}"
                f" {nic:>6}"
                f" {f'{row.pages_read}/{row.pages_written}':>12}"
                f" {f'{row.tuples_in}/{row.tuples_out}':>16}"
            )
        node, resource, value = self.bottleneck()
        lines.append(f"bottleneck: {resource}@{node} {value:.0%}")
        return "\n".join(lines)
