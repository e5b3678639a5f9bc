"""Result-store contract: canonical keys, round-trip, resume, recovery.

The store is what makes sweeps resumable: a grid point's key must be
identical across processes and interpreter restarts (so a warm store is
recognised as warm), appends must be crash-tolerant (a torn tail line
must not poison the file), and conflicting results under an unchanged
version tag must fail loudly instead of silently shadowing each other.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.bench.store import (
    ResultStore,
    StoreError,
    canonical_config,
    config_hash,
)


class TestCanonicalConfig:
    def test_key_order_is_irrelevant(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_tuples_hash_like_lists(self):
        """Configs round-trip through JSON (tuples come back as lists),
        so both spellings must map to the same store key."""
        assert config_hash({"sizes": (1, 2)}) == config_hash({"sizes": [1, 2]})

    def test_value_changes_change_the_hash(self):
        assert config_hash({"n": 10_000}) != config_hash({"n": 100_000})

    def test_canonical_text_is_sorted_and_compact(self):
        assert canonical_config({"b": 1, "a": (2,)}) == '{"a":[2],"b":1}'

    def test_non_json_config_raises(self):
        with pytest.raises(StoreError):
            config_hash({"fn": object()})

    def test_nan_raises(self):
        with pytest.raises(StoreError):
            config_hash({"x": float("nan")})


_CONFIG_SRC = (
    '{"machine": "gamma", "n": 100000, "sizes": (2, 4),'
    ' "opts": {"page_kb": 8.0, "traced": False, "mode": None}}'
)

_CHILD = textwrap.dedent(
    f"""
    from repro.bench.store import config_hash
    print(config_hash({_CONFIG_SRC}))
    """
)


def _hash_under_seed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH", ""),
                    os.path.join(os.path.dirname(__file__), "..", "..",
                                 "src"))
        if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env,
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


class TestHashSeedRegression:
    def test_config_hash_identical_across_processes(self):
        """The resume-key contract: two interpreters with different
        PYTHONHASHSEED values must key the same config identically —
        otherwise a warm store would look cold to the next run."""
        here = eval(_CONFIG_SRC)
        assert _hash_under_seed("1") == _hash_under_seed("4242")
        assert _hash_under_seed("1") == config_hash(here)


class TestRoundTrip:
    def test_append_then_reload(self, tmp_path):
        store = ResultStore(str(tmp_path))
        record = store.append(
            "exp", "v1", {"n": 4, "sizes": (1, 2)}, {"t": 1.5},
            wall_s=0.25, git_sha="abc123",
        )
        fresh = ResultStore(str(tmp_path))
        got = fresh.get("exp", "v1", {"n": 4, "sizes": (1, 2)})
        assert got is not None
        assert got.result == {"t": 1.5}
        assert got.config == {"n": 4, "sizes": [1, 2]}
        assert got.config_hash == record.config_hash
        assert got.wall_s == 0.25
        assert got.git_sha == "abc123"
        assert got.recorded_at.endswith("Z")

    def test_get_miss_returns_none(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.append("exp", "v1", {"n": 4}, 1.0)
        assert store.get("exp", "v1", {"n": 5}) is None
        assert store.get("exp", "v2", {"n": 4}) is None
        assert store.get("other", "v1", {"n": 4}) is None

    def test_identical_duplicate_is_a_noop(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.append("exp", "v1", {"n": 4}, {"t": 1.5})
        store.append("exp", "v1", {"n": 4}, {"t": 1.5})
        with open(store.path_for("exp")) as fh:
            assert len(fh.readlines()) == 1

    def test_conflicting_result_raises_without_replace(self, tmp_path):
        """A different result under an unchanged version tag means the
        code changed without bumping the version — fail loudly."""
        store = ResultStore(str(tmp_path))
        store.append("exp", "v1", {"n": 4}, {"t": 1.5})
        with pytest.raises(StoreError):
            store.append("exp", "v1", {"n": 4}, {"t": 9.9})

    def test_replace_appends_and_later_line_wins(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.append("exp", "v1", {"n": 4}, {"t": 1.5})
        store.append("exp", "v1", {"n": 4}, {"t": 9.9}, replace=True)
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("exp", "v1", {"n": 4}).result == {"t": 9.9}
        with open(store.path_for("exp")) as fh:
            assert len(fh.readlines()) == 2  # append-only: both lines

    def test_version_bump_keeps_old_records(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.append("exp", "v1", {"n": 4}, 1.0)
        store.append("exp", "v2", {"n": 4}, 2.0)
        fresh = ResultStore(str(tmp_path))
        assert fresh.get("exp", "v1", {"n": 4}).result == 1.0
        assert fresh.get("exp", "v2", {"n": 4}).result == 2.0

    def test_bad_experiment_names_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(StoreError):
                store.path_for(bad)


class TestQueries:
    def test_records_filters_and_orders(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.append("b_exp", "v1", {"n": 1}, 1.0)
        store.append("a_exp", "v2", {"n": 2}, 2.0)
        store.append("a_exp", "v1", {"n": 1}, 1.0)
        store.append("a_exp", "v1", {"n": 2}, 2.0)
        fresh = ResultStore(str(tmp_path))
        records = fresh.records("a_exp")
        assert [r.experiment for r in records] == ["a_exp"] * 3
        assert [r.version for r in records] == ["v1", "v1", "v2"]
        assert records == sorted(
            records, key=lambda r: (r.version, r.config_hash))
        assert [r.result for r in fresh.records("a_exp", "v2")] == [2.0]
        assert len(fresh.records("b_exp")) == 1


class TestCorruptionRecovery:
    def test_torn_tail_is_skipped_and_counted(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.append("exp", "v1", {"n": 1}, 1.0)
        store.append("exp", "v1", {"n": 2}, 2.0)
        with open(store.path_for("exp"), "a") as fh:
            fh.write('{"experiment": "exp", "version"')  # crash-torn line
        fresh = ResultStore(str(tmp_path))
        assert len(fresh.records("exp")) == 2
        assert fresh.corrupt_lines == {"exp": 1}

    def test_compact_rewrites_clean(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.append("exp", "v1", {"n": 1}, 1.0)
        store.append("exp", "v1", {"n": 1}, 5.0, replace=True)
        with open(store.path_for("exp"), "a") as fh:
            fh.write("not json at all\n")
        fresh = ResultStore(str(tmp_path))
        assert fresh.compact("exp") == 1
        again = ResultStore(str(tmp_path))
        assert len(again.records("exp")) == 1
        assert again.get("exp", "v1", {"n": 1}).result == 5.0
        assert again.corrupt_lines == {}
        with open(store.path_for("exp")) as fh:
            assert len(fh.readlines()) == 1
