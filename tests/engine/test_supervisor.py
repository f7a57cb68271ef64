"""Supervision tests: deadlines, respawn, failover — and the engine's
bit-identical-to-serial guarantee surviving all of them.

The expensive spawned-process scenarios (scheduled kill, real external
SIGKILL mid-round) run once each; the breadth of the recovery matrix
(kill/hang/corrupt at randomized rates, failover, rebalance, journal
equivalence) runs on inline shards, where the identical supervisor code
path executes in milliseconds.
"""

import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.serialization import strip_frame
from repro.datasets import WorkerPoolSpec, make_synthetic_dataset
from repro.engine import (
    ChaosPlan,
    KeyedExpertPanel,
    ParallelCampaignRunner,
    ShardFailureError,
    ShardIncident,
    ShardPool,
    SupervisionPolicy,
    run_parallel_hc_session,
    resume_parallel_session,
)
from repro.simulation import SessionConfig, run_hc_session


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_dataset(
        num_groups=4,
        group_size=4,
        answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=10, num_expert=2),
        seed=6,
    )


@pytest.fixture(scope="module")
def config():
    return SessionConfig(budget=14.0, k=2, seed=1)


@pytest.fixture(scope="module")
def serial_signature(dataset, config):
    result = run_hc_session(
        dataset,
        config,
        answer_source=KeyedExpertPanel(dataset.ground_truth, seed=1),
    )
    return _signature(result)


def _signature(result):
    return (
        [tuple(record.query_fact_ids) for record in result.history],
        [record.budget_spent for record in result.history],
        [state.probabilities.tobytes() for state in result.belief],
    )


def _panel(dataset):
    return KeyedExpertPanel(dataset.ground_truth, seed=1)


def _strip_infra_lines(path) -> bytes:
    # The infra records shift the v8 sequence numbers of every later
    # line, so comparisons against a serial journal drop the framing.
    kept = []
    for line in path.read_bytes().splitlines(keepends=True):
        record = json.loads(line)
        if record.get("kind") not in ("engine", "shard_incident"):
            kept.append(
                json.dumps(strip_frame(record), separators=(",", ":")).encode()
                + b"\n"
            )
    return b"".join(kept)


class TestSupervisionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="deadline"):
            SupervisionPolicy(deadline=0)
        with pytest.raises(ValueError, match="poll_interval"):
            SupervisionPolicy(poll_interval=0)
        with pytest.raises(ValueError, match="max_restarts"):
            SupervisionPolicy(max_restarts=-1)
        assert SupervisionPolicy(deadline=None).deadline is None

    def test_from_env(self):
        policy = SupervisionPolicy.from_env({})
        assert policy == SupervisionPolicy()
        policy = SupervisionPolicy.from_env(
            {
                "REPRO_SHARD_DEADLINE": "2.5",
                "REPRO_MAX_SHARD_RESTARTS": "5",
                "REPRO_SHARD_FAILOVER": "off",
            }
        )
        assert policy.deadline == 2.5
        assert policy.max_restarts == 5
        assert policy.failover is False
        assert (
            SupervisionPolicy.from_env({"REPRO_SHARD_DEADLINE": "0"}).deadline
            is None
        )

    def test_with_overrides(self):
        policy = SupervisionPolicy().with_overrides(
            {"deadline": 9.0, "max_restarts": None}
        )
        assert policy.deadline == 9.0
        assert policy.max_restarts == SupervisionPolicy().max_restarts
        with pytest.raises(ValueError, match="unknown"):
            SupervisionPolicy().with_overrides({"nope": 1})


class TestShardIncident:
    def test_record_round_trip(self):
        incident = ShardIncident(
            kind="failover",
            shard_id=1,
            command="select",
            restarts=3,
            group_indices=(2, 3),
            detail="budget exhausted",
            partition=((0, 1), (2, 3)),
            degraded=(False, True),
        )
        record = incident.to_record()
        assert record["kind"] == "shard_incident"
        assert ShardIncident.from_record(record) == incident

    def test_as_fault_event_uses_shard_kinds(self):
        from repro.core.incidents import FAULT_KINDS

        event = ShardIncident(
            kind="deadline", shard_id=0, command="select", restarts=0
        ).as_fault_event()
        assert event.kind == "shard_deadline"
        assert event.kind in FAULT_KINDS


class TestInlineChaosEquivalence:
    """The full recovery matrix on inline shards (fast).

    On the plain path each shard sees ``select``, ``stage_family`` and
    ``commit`` per round, so command 1 is the first round's staged
    update and command 2 its commit.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_kill_hang_corrupt(
        self, dataset, config, serial_signature, seed
    ):
        runner = ParallelCampaignRunner(
            dataset,
            config,
            answer_source=_panel(dataset),
            jobs=3,
            inline=True,
            policy=SupervisionPolicy(
                deadline=0.5, poll_interval=0.01, max_restarts=1
            ),
            chaos=ChaosPlan(kill=0.06, hang=0.04, corrupt=0.05, seed=seed),
        )
        result = runner.run()
        assert _signature(result) == serial_signature
        # The plan actually fired (otherwise this test proves nothing).
        assert runner.supervisor_stats["reexecuted_commands"] >= 1

    def test_short_deadline_hang_is_recovered(
        self, dataset, config, serial_signature
    ):
        runner = ParallelCampaignRunner(
            dataset,
            config,
            answer_source=_panel(dataset),
            jobs=2,
            inline=True,
            policy=SupervisionPolicy(
                deadline=0.2, poll_interval=0.01, max_restarts=2
            ),
            chaos=ChaosPlan(schedule={(0, 2): "hang"}),
        )
        result = runner.run()
        assert _signature(result) == serial_signature
        stats = runner.supervisor_stats
        assert stats["deadline_hits"] == 1
        assert stats["restarts"] == 1
        kinds = [i.kind for i in runner.supervisor_incidents]
        assert kinds == ["deadline", "restart"]

    def test_delayed_replies_survive_a_generous_deadline(
        self, dataset, config, serial_signature
    ):
        runner = ParallelCampaignRunner(
            dataset,
            config,
            answer_source=_panel(dataset),
            jobs=2,
            inline=True,
            policy=SupervisionPolicy(deadline=5.0, poll_interval=0.01),
            chaos=ChaosPlan(
                schedule={(1, 1): "delay"}, delay_duration=0.1
            ),
        )
        result = runner.run()
        assert _signature(result) == serial_signature
        assert runner.supervisor_stats["restarts"] == 0

    def test_failover_then_rebalance(self, dataset, config, serial_signature):
        """Restart budget 0: the first kill fails the shard's groups
        over to inline, and the next round's select merges them into a
        surviving shard."""
        runner = ParallelCampaignRunner(
            dataset,
            config,
            answer_source=_panel(dataset),
            jobs=2,
            inline=False,
            policy=SupervisionPolicy(deadline=30.0, max_restarts=0),
            chaos=ChaosPlan(schedule={(1, 1): "kill"}),
        )
        result = runner.run()
        assert _signature(result) == serial_signature
        stats = runner.supervisor_stats
        assert stats["failovers"] == 1
        assert stats["rebalances"] == 1
        kinds = [i.kind for i in runner.supervisor_incidents]
        assert "failover" in kinds and "rebalance" in kinds
        layouts = [
            i for i in runner.supervisor_incidents if i.partition is not None
        ]
        # After the rebalance every group lives in one surviving shard.
        assert list(layouts[-1].degraded) == [False]

    def test_no_failover_raises_after_budget(self, dataset, config):
        with pytest.raises(ShardFailureError, match="failover is disabled"):
            run_parallel_hc_session(
                dataset,
                config,
                answer_source=_panel(dataset),
                jobs=2,
                inline=True,
                policy=SupervisionPolicy(max_restarts=0, failover=False),
                chaos=ChaosPlan(schedule={(1, 1): "kill"}),
            )

    def test_exhausted_inline_pool_degrades_to_serial(
        self, dataset, config, serial_signature
    ):
        """Kill-heavy chaos on an inline pool: every shard eventually
        fails over to an unsupervised (never chaos-wrapped) inline
        replacement, so the campaign always terminates — fully serial,
        still bit-identical."""
        runner = ParallelCampaignRunner(
            dataset,
            config,
            answer_source=_panel(dataset),
            jobs=2,
            inline=True,
            policy=SupervisionPolicy(
                deadline=0.3, poll_interval=0.01, max_restarts=0
            ),
            chaos=ChaosPlan(kill=1.0),
        )
        result = runner.run()
        assert _signature(result) == serial_signature
        assert runner.supervisor_stats["failovers"] == 2


class TestResilientChaos:
    def test_journal_equals_serial_modulo_infra_records(
        self, dataset, tmp_path
    ):
        def config(path):
            return SessionConfig(
                budget=14.0, k=2, seed=1, journal_path=path
            )

        serial_path = tmp_path / "serial.jsonl"
        serial = run_hc_session(
            dataset, config(serial_path), answer_source=_panel(dataset)
        )
        chaotic_path = tmp_path / "chaotic.jsonl"
        runner = ParallelCampaignRunner(
            dataset,
            config(chaotic_path),
            answer_source=_panel(dataset),
            jobs=2,
            inline=True,
            policy=SupervisionPolicy(max_restarts=0),
            chaos=ChaosPlan(schedule={(1, 4): "kill"}),
        )
        result = runner.run()
        assert _signature(result) == _signature(serial)
        assert _strip_infra_lines(chaotic_path) == _strip_infra_lines(serial_path)
        records = [
            json.loads(line)
            for line in chaotic_path.read_text().splitlines()
        ]
        incidents = [
            r for r in records if r.get("kind") == "shard_incident"
        ]
        assert [r["incident"] for r in incidents] == ["death", "failover"]
        assert incidents[-1]["partition"] is not None

    def test_resume_restores_failover_layout_and_policy(
        self, dataset, tmp_path
    ):
        journal = tmp_path / "campaign.jsonl"
        runner = ParallelCampaignRunner(
            dataset,
            SessionConfig(budget=14.0, k=2, seed=1, journal_path=journal),
            answer_source=_panel(dataset),
            jobs=2,
            inline=True,
            policy=SupervisionPolicy(deadline=12.5, max_restarts=0),
            chaos=ChaosPlan(schedule={(1, 4): "kill"}),
        )
        runner.run()
        session, pool = resume_parallel_session(journal)
        with pool:
            layout = pool.layout()
            records = [
                json.loads(line)
                for line in journal.read_text().splitlines()
            ]
            journaled = [
                r
                for r in records
                if r.get("kind") == "shard_incident"
                and r.get("partition") is not None
            ][-1]
            assert [
                list(shard) for shard in layout["partition"]
            ] == journaled["partition"]
            assert list(layout["degraded"]) == journaled["degraded"]
            # Supervision settings come back from the engine record.
            assert pool.policy.deadline == 12.5
            assert pool.policy.max_restarts == 0

    def test_explicit_jobs_discards_journaled_layout(self, dataset, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        ParallelCampaignRunner(
            dataset,
            SessionConfig(budget=14.0, k=2, seed=1, journal_path=journal),
            answer_source=_panel(dataset),
            jobs=2,
            inline=True,
            policy=SupervisionPolicy(max_restarts=0),
            chaos=ChaosPlan(schedule={(1, 4): "kill"}),
        ).run()
        session, pool = resume_parallel_session(journal, jobs=3, inline=True)
        with pool:
            assert pool.jobs == 3
            assert not any(pool.layout()["degraded"])


class TestProcessShardRecovery:
    """The real multiprocessing transport (slow; one scenario each)."""

    def test_scheduled_kill_mid_round(
        self, dataset, config, serial_signature
    ):
        runner = ParallelCampaignRunner(
            dataset,
            config,
            answer_source=_panel(dataset),
            jobs=2,
            inline=False,
            policy=SupervisionPolicy(deadline=60.0, max_restarts=2),
            # Command 1 is the first round's stage_family (see
            # TestInlineChaosEquivalence).
            chaos=ChaosPlan(schedule={(1, 1): "kill"}),
        )
        result = runner.run()
        assert _signature(result) == serial_signature
        stats = runner.supervisor_stats
        assert stats["deaths"] == 1
        assert stats["restarts"] == 1
        # SIGKILL races the in-flight reply: the killed command is
        # either re-executed (reply lost) or the death surfaces on the
        # next command, which may be a rebuild-subsumed commit (skip).
        assert stats["reexecuted_commands"] + stats["skipped_commands"] == 1

    def test_external_sigkill_of_one_worker_mid_round(
        self, dataset, serial_signature
    ):
        """A worker process is SIGKILLed from outside, mid-campaign:
        the run completes with selections, ledger trajectory and final
        beliefs bit-identical to the fault-free serial run."""
        # Latency slows collection enough for the kill to land
        # mid-campaign without changing any answer bytes.
        panel = KeyedExpertPanel(
            dataset.ground_truth, seed=1, latency=0.05
        )
        runner = ParallelCampaignRunner(
            dataset,
            SessionConfig(budget=14.0, k=2, seed=1),
            answer_source=panel,
            jobs=2,
            inline=False,
            policy=SupervisionPolicy(deadline=60.0, max_restarts=2),
        )
        runner.prepare()
        pool = runner._prepared["pool"]
        session = runner._prepared["session"]
        victim = pool.shards[1]
        while hasattr(victim, "inner"):
            victim = victim.inner
        pid = victim._process.pid

        killed = threading.Event()

        def assassin():
            # Progress-triggered, not wall-clock: fire right after the
            # second round commits, so whole rounds (with commands to
            # every shard) still lie ahead and the death cannot slip
            # into the tail window between the victim's last consumed
            # reply and pool close.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if len(session.history) >= 2:
                    break
                time.sleep(0.002)
            try:
                os.kill(pid, signal.SIGKILL)
                killed.set()
            except ProcessLookupError:  # campaign already finished
                pass

        thread = threading.Thread(target=assassin)
        thread.start()
        try:
            result = runner.run()
        finally:
            thread.join()
        assert _signature(result) == serial_signature
        if killed.is_set():
            stats = runner.supervisor_stats
            # Under the CI chaos matrix an env-injected hang draw can
            # mask the death as a deadline hit (the hang transport
            # reports the worker alive) — any of the three counts.
            assert (
                stats["deaths"]
                + stats["protocol_errors"]
                + stats["deadline_hits"]
                >= 1
            )
            assert stats["restarts"] + stats["failovers"] >= 1

    def test_context_manager_reaps_workers_on_exception(self, dataset):
        from repro.aggregation.registry import make_aggregator
        from repro.datasets.grouping import initialize_belief

        experts, _ = dataset.split_crowd(0.9)
        belief, _ = initialize_belief(
            dataset, make_aggregator("EBCC"), 0.9, smoothing=0.01
        )
        pids = []
        with pytest.raises(RuntimeError, match="boom"):
            with ShardPool(belief, experts, 2, inline=False) as pool:
                for shard in pool.shards:
                    inner = shard
                    while hasattr(inner, "inner"):
                        inner = inner.inner
                    pids.append(inner._process.pid)
                raise RuntimeError("boom")
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestTeardownHardening:
    def test_close_and_destroy_are_idempotent(self, dataset):
        from repro.aggregation.registry import make_aggregator
        from repro.datasets.grouping import initialize_belief

        experts, _ = dataset.split_crowd(0.9)
        belief, _ = initialize_belief(
            dataset, make_aggregator("EBCC"), 0.9, smoothing=0.01
        )
        pool = ShardPool(belief, experts, 2, inline=False)
        pool.destroy_shard(0)
        pool.destroy_shard(0)  # destroy twice
        pool.close()
        pool.close()  # close twice, after a destroy

    def test_close_reaps_a_killed_worker(self, dataset):
        from repro.aggregation.registry import make_aggregator
        from repro.datasets.grouping import initialize_belief

        experts, _ = dataset.split_crowd(0.9)
        belief, _ = initialize_belief(
            dataset, make_aggregator("EBCC"), 0.9, smoothing=0.01
        )
        pool = ShardPool(belief, experts, 2, inline=False)
        inner = pool.shards[0]
        while hasattr(inner, "inner"):
            inner = inner.inner
        pid = inner._process.pid
        os.kill(pid, signal.SIGKILL)
        pool.close()  # must neither hang nor raise
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
