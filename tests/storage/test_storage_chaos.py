"""The storage-fault injector and the durable write paths under it.

Two halves: the plan itself (seeded determinism, validation, env
plumbing, install precedence) and its integration with
:func:`~repro.core.serialization.append_journal_record` — transient
faults retry to a byte-identical journal, hard faults fail stop with
the file rolled back, bit-flips pass silently and are caught later by
the v8 framing.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.serialization import (
    SerializationError,
    StorageFailure,
    append_journal_record,
    read_journal,
)
from repro.storage import (
    STORAGE_CHAOS_ACTIONS,
    StorageChaos,
    active_storage_chaos,
    chaos_path_key,
    install_storage_chaos,
    storage_chaos,
    uninstall_storage_chaos,
)

pytestmark = pytest.mark.chaos


def _records():
    yield {"kind": "header", "version": 8}
    for index in range(6):
        yield {"kind": "round", "index": index, "payload": "x" * 40}


def _write_all(path):
    for record in _records():
        append_journal_record(path, record)


class TestPlan:
    def test_path_key_is_the_last_two_components(self):
        assert chaos_path_key("/a/b/tenant/run.jsonl") == "tenant/run.jsonl"
        assert chaos_path_key("run.jsonl") == "run.jsonl"

    def test_rates_are_validated(self):
        with pytest.raises(ValueError, match="rate"):
            StorageChaos(bitflip=-0.1)
        with pytest.raises(ValueError, match="exceed 1"):
            StorageChaos(short_write=0.6, fsync_error=0.6)
        with pytest.raises(ValueError, match="unknown storage chaos"):
            StorageChaos(schedule={("j.jsonl", 0): "meteor_strike"})

    def test_zero_rates_mean_disabled(self):
        plan = StorageChaos()
        assert not plan.enabled
        assert install_storage_chaos(plan) is None
        assert active_storage_chaos() is None

    def test_draws_are_deterministic_and_interleave_independent(self):
        plan = StorageChaos(short_write=0.2, bitflip=0.2, seed=11)
        twin = StorageChaos(short_write=0.2, bitflip=0.2, seed=11)
        actions = [plan.action_for("t/a.jsonl", i) for i in range(50)]
        # same plan, rebuilt: same stream — and drawing b's stream in
        # between must not disturb a's
        interleaved = []
        for i in range(50):
            twin.action_for("t/b.jsonl", i)
            interleaved.append(twin.action_for("t/a.jsonl", i))
        assert interleaved == actions
        assert any(action is not None for action in actions)

    def test_different_seeds_differ(self):
        plan_a = StorageChaos(bitflip=0.3, seed=1)
        plan_b = StorageChaos(bitflip=0.3, seed=2)
        draws_a = [plan_a.action_for("t/a.jsonl", i) for i in range(80)]
        draws_b = [plan_b.action_for("t/a.jsonl", i) for i in range(80)]
        assert draws_a != draws_b

    def test_flip_bit_changes_exactly_one_bit_in_the_interior(self):
        plan = StorageChaos(bitflip=1.0, seed=3)
        data = b'{"kind":"round","index":1}\n'
        flipped = plan.flip_bit(data, "t/a.jsonl", 0)
        assert flipped != data
        assert len(flipped) == len(data)
        assert flipped.endswith(b"\n")
        diff = [
            i for i, (a, b) in enumerate(zip(data, flipped)) if a != b
        ]
        assert len(diff) == 1
        assert bin(data[diff[0]] ^ flipped[diff[0]]).count("1") == 1

    def test_draw_and_flip_streams_are_pinned(self):
        """SHA-256 of 2,000 actions and bit-flip positions over two path
        keys for two seeds, recorded before the fault plans shared one
        draw site: a changed salt, key order or threshold walk changes
        them."""
        pinned = {
            3: "eb3d3d0df70e1a4e4932dd08c19428e2"
               "a9190cf0d8bb9d3372b3c7ae07999f4a",
            2026: "c95d74cce5ce10a1943cd435b5a5e438"
                  "be7fe91c4e86d47f984328a9878972cd",
        }
        data = bytes(range(64))
        for seed, digest in pinned.items():
            plan = StorageChaos(
                short_write=0.1, fsync_error=0.1, enospc=0.1,
                rename_error=0.1, bitflip=0.1, seed=seed,
            )
            draws = []
            for key in ("acme/run.jsonl", "beta/state.json"):
                for index in range(1000):
                    flipped = plan.flip_bit(data, key, index)
                    position = next(
                        at for at in range(len(data))
                        if flipped[at] != data[at]
                    )
                    draws.append((
                        plan.action_for(key, index),
                        position,
                        flipped[position] ^ data[position],
                    ))
            text = "\n".join(map(repr, draws))
            assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_parse_and_from_env(self, monkeypatch):
        plan = StorageChaos.parse("short_write=0.05,bitflip=0.01", seed=9)
        assert plan.short_write == 0.05
        assert plan.bitflip == 0.01
        assert plan.seed == 9
        assert StorageChaos.from_env({}) is None
        env = {
            "REPRO_STORAGE_CHAOS": "fsync_error=0.1",
            "REPRO_STORAGE_CHAOS_SEED": "4",
        }
        from_env = StorageChaos.from_env(env)
        assert from_env is not None
        assert from_env.fsync_error == 0.1
        assert from_env.seed == 4

    def test_install_beats_env_and_none_force_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE_CHAOS", "bitflip=1.0")
        assert active_storage_chaos() is not None
        with storage_chaos(StorageChaos(fsync_error=1.0, seed=1)) as state:
            assert active_storage_chaos() is state
            assert state.plan.fsync_error == 1.0
        with storage_chaos(None):
            assert active_storage_chaos() is None
        # context restored: the env plan applies again
        assert active_storage_chaos() is not None
        uninstall_storage_chaos()


class TestWritePathIntegration:
    def test_zero_rates_perturb_nothing(self, tmp_path):
        clean = tmp_path / "clean" / "run.jsonl"
        with storage_chaos(None):
            _write_all(clean)
        under_plan = tmp_path / "plan" / "run.jsonl"
        with storage_chaos(StorageChaos(seed=123)):
            _write_all(under_plan)
        assert under_plan.read_bytes() == clean.read_bytes()

    def test_transient_faults_retry_to_byte_identical(self, tmp_path):
        clean = tmp_path / "clean" / "run.jsonl"
        with storage_chaos(None):
            _write_all(clean)
        path = tmp_path / "chaotic" / "run.jsonl"
        key = chaos_path_key(path)
        plan = StorageChaos(
            schedule={
                (key, 1): "short_write",
                (key, 2): "fsync_error",
                (key, 5): "short_write",
            }
        )
        with storage_chaos(plan) as state:
            _write_all(path)
        assert path.read_bytes() == clean.read_bytes()
        assert read_journal(path) == list(_records())
        assert state.stats()["injected"] == {
            "short_write": 2,
            "fsync_error": 1,
        }
        # retries consumed extra write indices
        assert state.stats()["writes"] > len(list(_records()))

    def test_enospc_fails_stop_with_the_file_rolled_back(self, tmp_path):
        path = tmp_path / "t" / "run.jsonl"
        key = chaos_path_key(path)
        plan = StorageChaos(schedule={(key, 2): "enospc"})
        with storage_chaos(plan):
            append_journal_record(path, {"kind": "header", "version": 8})
            append_journal_record(path, {"kind": "round", "index": 0})
            before = path.read_bytes()
            with pytest.raises(StorageFailure, match="non-transient"):
                append_journal_record(path, {"kind": "round", "index": 1})
        # nothing torn: the journal still ends exactly where it did
        assert path.read_bytes() == before
        records = read_journal(path)
        assert [r["kind"] for r in records] == ["header", "round"]

    def test_exhausted_retries_fail_stop(self, tmp_path):
        path = tmp_path / "t" / "run.jsonl"
        key = chaos_path_key(path)
        # every attempt of the second append hits a transient fault
        plan = StorageChaos(
            schedule={(key, i): "short_write" for i in range(1, 10)}
        )
        with storage_chaos(plan):
            append_journal_record(path, {"kind": "header", "version": 8})
            before = path.read_bytes()
            with pytest.raises(StorageFailure, match="still failing"):
                append_journal_record(path, {"kind": "round", "index": 0})
        assert path.read_bytes() == before

    def test_bitflip_is_silent_then_caught_by_the_framing(self, tmp_path):
        path = tmp_path / "t" / "run.jsonl"
        key = chaos_path_key(path)
        plan = StorageChaos(schedule={(key, 2): "bitflip"})
        with storage_chaos(plan):
            _write_all(path)  # no exception: the corruption is silent
        with pytest.raises(SerializationError, match="corrupt journal"):
            read_journal(path)
        from repro.storage import recover_journal

        report = recover_journal(path)
        assert not report.clean
        assert report.sidecar is not None and report.sidecar.exists()
        survivors = read_journal(path)
        # write index 2 is the third line: header + first round survive
        assert survivors == list(_records())[:2]

    def test_every_action_name_is_exercised_by_the_write_path(self):
        # keep STORAGE_CHAOS_ACTIONS and _durable_append in sync: a new
        # action must be handled (this guards the tuple's spelling)
        assert STORAGE_CHAOS_ACTIONS == (
            "short_write",
            "fsync_error",
            "enospc",
            "rename_error",
            "bitflip",
        )
