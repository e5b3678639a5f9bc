"""Persistent result store: every measured grid point, on disk, forever.

The experiment matrix (:mod:`repro.bench.matrix`) runs *grid points* —
one picklable config dict in, one JSON-safe result out.  This module
persists those runs as JSON lines under ``benchmarks/results/store/``
(one ``<experiment>.jsonl`` per experiment), keyed by:

* the **canonical config hash** — SHA-256 over the sorted-key JSON of
  the config dict, so the key is identical across processes and
  ``PYTHONHASHSEED`` values (the builtin ``hash`` is salted; see
  ``tests/catalog/test_stable_hash.py`` for the same contract on the
  partitioning layer);
* the experiment's **code-version tag** — bumped by an experiment when
  its semantics change, which invalidates (without deleting) every
  stored run of the old version;
* the **git sha** the run was recorded at — *metadata only*, not part of
  the resume key: simulated results are deterministic and survive
  commits that do not touch the experiment (that is what the version
  tag tracks).

A stored ``result`` holds simulated quantities only, so re-executing the
point gives an equal result (``tests/bench/test_store_fresh.py``); the
host seconds the run took are ``Record.wall_s``, beside the result, and
how fast the simulator runs is the perf ledger's business
(``benchmarks/ledger/README.md``).

Resume falls out of the keying: re-invoking a sweep looks up each grid
point and executes only the misses; ``force=True`` re-runs and replaces.
Appends are O(1) file appends — a crash mid-sweep loses at most the line
being written, and :meth:`ResultStore.load` skips (and counts) corrupted
lines instead of refusing the whole file.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from dataclasses import dataclass
from typing import Any, Optional

from ..errors import BenchmarkError


class StoreError(BenchmarkError):
    """Raised for malformed store usage (not for corrupted files)."""


def canonical_config(config: dict[str, Any]) -> str:
    """The canonical JSON text of a config dict (sorted keys, no spaces).

    Configs must be JSON-safe: strings, ints, floats, bools, ``None``,
    and lists/dicts of those.  Tuples are serialised as JSON arrays, so
    a config round-trips through the store with tuples becoming lists —
    normalise to lists up front to keep hashing and equality aligned.
    """
    try:
        return json.dumps(
            _normalise(config), sort_keys=True, separators=(",", ":"),
            ensure_ascii=True, allow_nan=False,
        )
    except (TypeError, ValueError) as exc:
        raise StoreError(f"config is not JSON-canonicalisable: {exc}") from exc


def _normalise(value: Any) -> Any:
    """Tuples → lists, recursively, so configs equal their round-trip."""
    if isinstance(value, (list, tuple)):
        return [_normalise(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalise(v) for k, v in value.items()}
    return value


def config_hash(config: dict[str, Any]) -> str:
    """Process-stable 16-hex-digit key for one grid-point config."""
    digest = hashlib.sha256(canonical_config(config).encode("utf-8"))
    return digest.hexdigest()[:16]


def current_git_sha(repo_dir: Optional[str] = None) -> str:
    """The repo HEAD sha, ``GAMMA_GIT_SHA`` override, or ``"unknown"``."""
    override = os.environ.get("GAMMA_GIT_SHA", "").strip()
    if override:
        return override
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


@dataclass(frozen=True)
class Record:
    """One stored grid-point run."""

    experiment: str
    version: str
    config: dict[str, Any]
    config_hash: str
    result: Any
    git_sha: str
    recorded_at: str  # ISO-8601 UTC
    wall_s: Optional[float] = None

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.experiment, self.version, self.config_hash)

    def to_json(self) -> str:
        return json.dumps({
            "experiment": self.experiment,
            "version": self.version,
            "config": _normalise(self.config),
            "config_hash": self.config_hash,
            "result": self.result,
            "git_sha": self.git_sha,
            "recorded_at": self.recorded_at,
            "wall_s": self.wall_s,
        }, sort_keys=False, allow_nan=False)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Record":
        return cls(
            experiment=payload["experiment"],
            version=payload["version"],
            config=payload["config"],
            config_hash=payload["config_hash"],
            result=payload["result"],
            git_sha=payload.get("git_sha", "unknown"),
            recorded_at=payload.get("recorded_at", ""),
            wall_s=payload.get("wall_s"),
        )


def default_store_dir() -> str:
    """``benchmarks/results/store`` (``GAMMA_BENCH_STORE``-tunable)."""
    override = os.environ.get("GAMMA_BENCH_STORE", "").strip()
    if override:
        return override
    return os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..", "..",
        "benchmarks", "results", "store",
    )


class ResultStore:
    """JSON-lines store of grid-point runs, one file per experiment.

    Later lines win: a ``--force`` re-run simply appends, and loading
    deduplicates by ``(experiment, version, config_hash)`` keeping the
    last record.  ``compact()`` rewrites a file to the deduplicated,
    corruption-free form.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = os.path.abspath(directory or default_store_dir())
        # (experiment, version, config_hash) -> Record, last append wins.
        self._records: dict[tuple[str, str, str], Record] = {}
        #: Experiments whose files contained undecodable lines, with
        #: the count of lines skipped (crash-truncated appends).
        self.corrupt_lines: dict[str, int] = {}
        self._loaded: set[str] = set()

    # -- paths ---------------------------------------------------------

    def path_for(self, experiment: str) -> str:
        if not experiment or "/" in experiment or experiment.startswith("."):
            raise StoreError(f"bad experiment name {experiment!r}")
        return os.path.join(self.directory, f"{experiment}.jsonl")

    # -- loading -------------------------------------------------------

    def _ensure_loaded(self, experiment: str) -> None:
        if experiment in self._loaded:
            return
        self._loaded.add(experiment)
        path = self.path_for(experiment)
        if not os.path.exists(path):
            return
        bad = 0
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    record = Record.from_dict(payload)
                except (ValueError, KeyError, TypeError):
                    # Crash-truncated or hand-mangled line: recover by
                    # skipping it (an append-only log must tolerate a
                    # torn tail), but keep the evidence visible.
                    bad += 1
                    continue
                self._records[record.key] = record
        if bad:
            self.corrupt_lines[experiment] = (
                self.corrupt_lines.get(experiment, 0) + bad
            )

    # -- queries -------------------------------------------------------

    def get(
        self, experiment: str, version: str, config: dict[str, Any]
    ) -> Optional[Record]:
        """The stored run for one grid point, or ``None``."""
        self._ensure_loaded(experiment)
        return self._records.get((experiment, version, config_hash(config)))

    def records(
        self, experiment: str, version: Optional[str] = None
    ) -> list[Record]:
        """One experiment's deduplicated records (of one ``version``, if
        given), in deterministic order."""
        self._ensure_loaded(experiment)
        out = [
            r for r in self._records.values()
            if r.experiment == experiment
            and (version is None or r.version == version)
        ]
        out.sort(key=lambda r: (r.version, r.config_hash))
        return out

    # -- appends -------------------------------------------------------

    def append(
        self,
        experiment: str,
        version: str,
        config: dict[str, Any],
        result: Any,
        *,
        git_sha: Optional[str] = None,
        wall_s: Optional[float] = None,
        replace: bool = False,
    ) -> Record:
        """Persist one run; returns the stored :class:`Record`.

        Duplicate detection: if the key already holds a record with an
        *identical* result the append is a no-op (the existing record is
        returned).  A **different** result under the same key means the
        code changed without bumping the experiment's version tag — that
        is an error unless ``replace=True`` (the ``--force`` path).
        """
        import datetime

        self._ensure_loaded(experiment)
        key = (experiment, version, config_hash(config))
        existing = self._records.get(key)
        if existing is not None and not replace:
            if _normalise(existing.result) == _normalise(result):
                return existing
            raise StoreError(
                f"{experiment}[{key[2]}] already stored with a different"
                f" result under version {version!r}; bump the experiment"
                " version or re-run with force/replace"
            )
        record = Record(
            experiment=experiment,
            version=version,
            config=_normalise(config),
            config_hash=key[2],
            result=_normalise(result),
            git_sha=git_sha if git_sha is not None else current_git_sha(),
            recorded_at=datetime.datetime.now(
                datetime.timezone.utc
            ).strftime("%Y-%m-%dT%H:%M:%SZ"),
            wall_s=wall_s,
        )
        os.makedirs(self.directory, exist_ok=True)
        with open(self.path_for(experiment), "a", encoding="utf-8") as fh:
            fh.write(record.to_json() + "\n")
        self._records[key] = record
        return record

    # -- maintenance ---------------------------------------------------

    def compact(self, experiment: str) -> int:
        """Rewrite one experiment's file deduplicated and corruption-free.

        Returns the number of surviving records.  This is the recovery
        path for corrupted lines: load (which skips them), then compact
        (which rewrites only the decodable, deduplicated records).
        """
        self._ensure_loaded(experiment)
        survivors = self.records(experiment)
        path = self.path_for(experiment)
        tmp = path + ".tmp"
        os.makedirs(self.directory, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in survivors:
                fh.write(record.to_json() + "\n")
        os.replace(tmp, path)
        self.corrupt_lines.pop(experiment, None)
        return len(survivors)
