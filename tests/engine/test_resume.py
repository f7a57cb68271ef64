"""Crash-recovery tests: a killed journaled campaign resumes to a
byte-identical journal (and bit-identical beliefs).

The strategy: run one uninterrupted reference campaign, then recreate
every flavor of crash — torn trailing lines at arbitrary offsets, and a
real ``SIGKILL`` of a running campaign process — and assert the resumed
journal's bytes equal the reference journal's.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import SerializationError
from repro.core.trust import TrustPolicy
from repro.datasets import WorkerPoolSpec, make_synthetic_dataset
from repro.engine import run_parallel_hc_session
from repro.simulation import (
    FaultModel,
    FaultyExpertPanel,
    ResilientCheckingSession,
    SessionConfig,
    SimulatedExpertPanel,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def _dataset():
    return make_synthetic_dataset(
        num_groups=6,
        group_size=4,
        answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=12, num_expert=3),
        seed=3,
    )


FAULTS = FaultModel(no_show=0.2, partial=0.2, seed=9)


def _config(journal_path):
    return SessionConfig(
        budget=30.0,
        k=2,
        seed=5,
        faults=FAULTS,
        trust_policy=TrustPolicy(seed=7),
        reserve_accuracies=(0.92, 0.9),
        journal_path=journal_path,
    )


def _fresh_panel(dataset):
    return FaultyExpertPanel(
        SimulatedExpertPanel(
            dataset.ground_truth, rng=np.random.default_rng(5)
        ),
        FAULTS,
    )


class TestTornJournalResume:
    def test_every_cut_point_resumes_byte_identically(self, tmp_path):
        dataset = _dataset()
        reference_path = tmp_path / "reference.jsonl"
        reference = run_parallel_hc_session(
            dataset, _config(reference_path), jobs=3
        )
        reference_bytes = reference_path.read_bytes()
        lines = reference_bytes.splitlines(keepends=True)
        assert len(lines) > 6
        # Cut after every intact prefix that contains a checkpoint
        # (header, first checkpoint = 2 lines), tearing the next line
        # mid-record — the on-disk state a SIGKILL during an append
        # leaves behind.
        for cut in range(2, len(lines)):
            killed = tmp_path / f"killed{cut}.jsonl"
            killed.write_bytes(
                b"".join(lines[:cut]) + lines[cut][: len(lines[cut]) // 2]
            )
            session = ResilientCheckingSession.resume(killed)
            result = session.run(_fresh_panel(dataset))
            assert killed.read_bytes() == reference_bytes, f"cut={cut}"
            for ours, theirs in zip(result.belief, reference.belief):
                assert np.array_equal(
                    ours.probabilities, theirs.probabilities
                )

    def test_resume_decodes_each_group_once(self, tmp_path, monkeypatch):
        """The resumed session decodes each group state once, from the
        folded checkpoint."""
        from repro.core import serialization

        dataset = _dataset()
        reference = tmp_path / "reference.jsonl"
        run_parallel_hc_session(dataset, _config(reference), jobs=2)
        lines = reference.read_bytes().splitlines(keepends=True)
        killed = tmp_path / "killed.jsonl"
        killed.write_bytes(b"".join(lines[: len(lines) // 2]))
        decoded = []
        real_decode = serialization.belief_state_from_dict

        def counting_decode(payload):
            decoded.append(payload)
            return real_decode(payload)

        monkeypatch.setattr(
            serialization, "belief_state_from_dict", counting_decode
        )
        session = ResilientCheckingSession.resume(killed)
        assert len(decoded) == len(session.belief) == 6
        session.run(_fresh_panel(dataset))
        assert killed.read_bytes() == reference.read_bytes()

    def test_resume_without_checkpoint_is_rejected(self, tmp_path):
        dataset = _dataset()
        journal = tmp_path / "campaign.jsonl"
        run_parallel_hc_session(dataset, _config(journal), jobs=2)
        lines = journal.read_bytes().splitlines(keepends=True)
        headless = tmp_path / "headless.jsonl"
        headless.write_bytes(lines[0])  # the header only
        with pytest.raises(SerializationError, match="checkpoint"):
            ResilientCheckingSession.resume(headless)


_KILL_HELPER = '''
"""Subprocess helper: run the resume test's journaled campaign.

Argv: journal_path delay_seconds.  ``delay_seconds`` slows each round's
answer collection so the parent can SIGKILL the campaign mid-run; it
changes no answers and no journal bytes.
"""
import sys
import time

import numpy as np

from repro.datasets import WorkerPoolSpec, make_synthetic_dataset
from repro.simulation import FaultModel, SessionConfig, SimulatedExpertPanel
from repro.core.trust import TrustPolicy
from repro.engine import run_parallel_hc_session


class SlowPanel:
    def __init__(self, inner, delay):
        self._inner = inner
        self._delay = delay

    def collect(self, query_fact_ids, experts):
        time.sleep(self._delay)
        return self._inner.collect(query_fact_ids, experts)

    def get_state(self):
        return self._inner.get_state()

    def set_state(self, state):
        self._inner.set_state(state)


def main():
    journal_path, delay = sys.argv[1], float(sys.argv[2])
    dataset = make_synthetic_dataset(
        num_groups=6, group_size=4, answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=12, num_expert=3), seed=3,
    )
    config = SessionConfig(
        budget=30.0, k=2, seed=5,
        faults=FaultModel(no_show=0.2, partial=0.2, seed=9),
        trust_policy=TrustPolicy(seed=7),
        reserve_accuracies=(0.92, 0.9),
        journal_path=journal_path,
    )
    panel = SlowPanel(
        SimulatedExpertPanel(
            dataset.ground_truth, rng=np.random.default_rng(5)
        ),
        delay,
    )
    run_parallel_hc_session(dataset, config, jobs=3, answer_source=panel)
    print("COMPLETED")


if __name__ == "__main__":
    main()
'''


class TestSigkillResume:
    def _run_helper(self, tmp_path, journal, delay, kill_after_lines=None):
        helper = tmp_path / "campaign_helper.py"
        helper.write_text(_KILL_HELPER)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        process = subprocess.Popen(
            [sys.executable, str(helper), str(journal), str(delay)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        if kill_after_lines is None:
            out, err = process.communicate(timeout=180)
            assert process.returncode == 0, err.decode()
            assert b"COMPLETED" in out
            return None
        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break  # finished before we could kill it
            if (
                journal.exists()
                and journal.read_bytes().count(b"\n") >= kill_after_lines
            ):
                process.send_signal(signal.SIGKILL)
                break
            time.sleep(0.01)
        process.wait(timeout=60)
        return process.returncode

    def test_sigkilled_campaign_resumes_byte_identically(self, tmp_path):
        dataset = _dataset()
        reference = tmp_path / "reference.jsonl"
        self._run_helper(tmp_path, reference, delay=0.0)
        reference_bytes = reference.read_bytes()
        assert reference_bytes.count(b"\n") > 6

        killed = tmp_path / "killed.jsonl"
        returncode = self._run_helper(
            tmp_path, killed, delay=0.3, kill_after_lines=5
        )
        assert returncode is not None
        killed_bytes = killed.read_bytes()
        assert killed_bytes != reference_bytes
        assert reference_bytes.startswith(
            killed_bytes[: killed_bytes.rfind(b"\n") + 1]
        )

        session = ResilientCheckingSession.resume(killed)
        session.run(_fresh_panel(dataset))
        assert killed.read_bytes() == reference_bytes


class TestSparseKernelResume:
    """The truncated kernel holds the same resume bar as the dense one:
    a ``belief_epsilon > 0`` campaign's journal (which serializes
    ``SparseBeliefState`` checkpoints, marked by their ``epsilon`` key)
    must resume byte-identically from torn prefixes."""

    EPSILON = 0.05

    def _sparse_config(self, journal_path):
        config = _config(journal_path)
        config.belief_epsilon = self.EPSILON
        return config

    def test_sparse_checkpoints_resume_byte_identically(self, tmp_path):
        dataset = _dataset()
        reference_path = tmp_path / "reference.jsonl"
        reference = run_parallel_hc_session(
            dataset, self._sparse_config(reference_path), jobs=3
        )
        reference_bytes = reference_path.read_bytes()
        # the sparse kernel really ran: checkpoints carry its epsilon
        assert b'"epsilon":0.05' in reference_bytes
        lines = reference_bytes.splitlines(keepends=True)
        assert len(lines) > 6
        # A thinned version of the dense sweep (every other cut point);
        # the cut mechanics are identical, the serialized payload isn't.
        for cut in range(2, len(lines), 2):
            killed = tmp_path / f"killed{cut}.jsonl"
            killed.write_bytes(
                b"".join(lines[:cut]) + lines[cut][: len(lines[cut]) // 2]
            )
            session = ResilientCheckingSession.resume(killed)
            result = session.run(_fresh_panel(dataset))
            assert killed.read_bytes() == reference_bytes, f"cut={cut}"
            for ours, theirs in zip(result.belief, reference.belief):
                assert np.array_equal(
                    ours.probabilities, theirs.probabilities
                )
