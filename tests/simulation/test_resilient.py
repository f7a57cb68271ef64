"""Chaos and crash-recovery tests for the resilient campaign runtime."""

import json

import numpy as np
import pytest

from repro.core import (
    AnswerSet,
    BeliefState,
    CostModel,
    Crowd,
    FactSet,
    FactoredBelief,
    PartialAnswerFamily,
    SerializationError,
    Worker,
    read_journal,
)
from repro.simulation import (
    FaultModel,
    FaultyExpertPanel,
    ResilientCheckingSession,
    ResilientRunResult,
    RetryPolicy,
    SimulatedExpertPanel,
)

pytestmark = pytest.mark.chaos

TRUTH = {0: True, 1: False, 2: True, 3: True, 4: False, 5: True}


def _belief() -> FactoredBelief:
    return FactoredBelief(
        [
            BeliefState.from_marginals(
                FactSet.from_ids([0, 1]), [0.55, 0.55]
            ),
            BeliefState.from_marginals(
                FactSet.from_ids([2, 3]), [0.45, 0.6]
            ),
            BeliefState.from_marginals(
                FactSet.from_ids([4, 5]), [0.6, 0.45]
            ),
        ]
    )


@pytest.fixture
def experts():
    return Crowd.from_accuracies([0.95, 0.95, 0.9], prefix="e")


@pytest.fixture
def reserve():
    return Crowd.from_accuracies([0.93, 0.93], prefix="r")


def _session(experts, reserve=None, **kwargs):
    kwargs.setdefault("k", 2)
    kwargs.setdefault("budget", 60)
    kwargs.setdefault("ground_truth", TRUTH)
    kwargs.setdefault(
        "retry_policy", RetryPolicy(max_attempts=5, max_reassignments=1)
    )
    return ResilientCheckingSession(
        _belief(), experts, reserve_experts=reserve, **kwargs
    )


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=1.0, multiplier=2.0, max_delay=5.0, jitter=0.0
        )
        rng = np.random.default_rng(0)
        delays = [policy.delay_for(a, rng) for a in range(5)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(
            base_delay=2.0, multiplier=1.0, max_delay=10.0, jitter=0.5
        )
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert 1.0 <= policy.delay_for(0, rng) <= 3.0


class TestChaosSweep:
    """Acceptance criterion: fault rates up to 0.3 never raise, keep
    valid marginals, and never end below the no-checking baseline."""

    @pytest.mark.parametrize(
        "kind", ["no_show", "timeout", "spam", "adversarial", "partial"]
    )
    @pytest.mark.parametrize("rate", [0.1, 0.3])
    def test_single_fault_kind(self, experts, reserve, kind, rate):
        for seed in range(3):
            model = FaultModel(**{kind: rate}, seed=seed)
            panel = FaultyExpertPanel(
                SimulatedExpertPanel(TRUTH, rng=seed), model
            )
            result = _session(experts, reserve).run(panel)
            self._check(result)

    def test_combined_faults(self, experts, reserve):
        for seed in range(3):
            model = FaultModel(
                no_show=0.1,
                timeout=0.1,
                spam=0.05,
                adversarial=0.05,
                partial=0.1,
                seed=seed,
            )
            panel = FaultyExpertPanel(
                SimulatedExpertPanel(TRUTH, rng=seed), model
            )
            result = _session(experts, reserve).run(panel)
            self._check(result)
            assert result.incidents  # faults this dense leave a trace

    @staticmethod
    def _check(result: ResilientRunResult) -> None:
        for group in result.belief:
            probs = group.probabilities
            assert np.all(probs >= 0.0)
            assert np.all(probs <= 1.0 + 1e-12)
            assert probs.sum() == pytest.approx(1.0)
        baseline = result.history[0].accuracy
        assert result.history[-1].accuracy >= baseline

    def test_budget_never_negative_under_chaos(self, experts, reserve):
        model = FaultModel(
            no_show=0.3, timeout=0.2, partial=0.3, seed=11
        )
        panel = FaultyExpertPanel(
            SimulatedExpertPanel(TRUTH, rng=11), model
        )
        session = _session(experts, reserve)
        session.run(panel)
        assert session.remaining_budget >= 0.0
        assert session.spent_budget <= 60.0
        spent = [record.budget_spent for record in session.history]
        assert spent == sorted(spent)  # monotone non-decreasing


class TestRetryAndReassignment:
    def test_backoff_sleeps_with_growing_delays(self, experts):
        """Persistent timeouts trigger backoff through the sleep hook."""
        slept = []
        panel = FaultyExpertPanel(
            SimulatedExpertPanel(TRUTH, rng=0),
            FaultModel(timeout=1.0, seed=0),
        )
        policy = RetryPolicy(
            max_attempts=4,
            max_reassignments=0,
            base_delay=1.0,
            multiplier=2.0,
            max_delay=100.0,
            jitter=0.0,
        )
        session = _session(
            experts, retry_policy=policy, sleep=slept.append
        )
        result = session.run(panel)
        assert result.halted
        assert slept == [1.0, 2.0, 4.0]

    def test_permanent_failure_halts_with_abandoned_incident(self, experts):
        panel = FaultyExpertPanel(
            SimulatedExpertPanel(TRUTH, rng=0),
            FaultModel(timeout=1.0, seed=0),
        )
        session = _session(
            experts,
            retry_policy=RetryPolicy(max_attempts=2, max_reassignments=0),
        )
        result = session.run(panel)
        assert result.halted
        assert session.is_finished
        kinds = [event.kind for event in result.incidents]
        assert kinds.count("timeout") == 2
        assert kinds[-1] == "abandoned"
        # nothing was charged for the failed round
        assert session.spent_budget == 0.0

    def test_reassignment_swaps_in_reserves(self, experts, reserve):
        """A panel that always no-shows is replaced by reserves, which
        then answer and let the round complete."""
        model = FaultModel(
            per_worker={
                worker_id: FaultModel(no_show=1.0)
                for worker_id in experts.worker_ids
            }
        )
        panel = FaultyExpertPanel(
            SimulatedExpertPanel(TRUTH, rng=0), model
        )
        session = _session(
            experts,
            reserve,
            retry_policy=RetryPolicy(max_attempts=2, max_reassignments=1),
        )
        result = session.run(panel, max_rounds=1)
        assert not result.halted
        kinds = [event.kind for record in result.history
                 for event in record.fault_events]
        assert "reassignment" in kinds
        reassigned = session.experts.worker_ids
        assert set(reserve.worker_ids) <= set(reassigned)
        assert session.spent_budget > 0.0

    def test_reassignment_exhausted_reserves_halts(self, experts):
        model = FaultModel(no_show=1.0)
        panel = FaultyExpertPanel(
            SimulatedExpertPanel(TRUTH, rng=0), model
        )
        session = _session(
            experts,
            Crowd([Worker("r0", 0.9)]),
            retry_policy=RetryPolicy(max_attempts=1, max_reassignments=3),
        )
        result = session.run(panel)
        assert result.halted
        kinds = [event.kind for event in result.incidents]
        assert "reassignment" in kinds
        assert kinds[-1] == "abandoned"

    def test_expensive_reserves_are_budget_clipped(self, experts):
        """When reassigned workers cost more than the budget allows, the
        priciest answers are dropped instead of overdrawing."""
        reserve = Crowd([Worker("pricey", 0.99)])
        cost_model = CostModel(per_worker={"pricey": 1000.0})
        model = FaultModel(
            per_worker={
                worker_id: FaultModel(no_show=1.0)
                for worker_id in experts.worker_ids
            }
        )
        panel = FaultyExpertPanel(
            SimulatedExpertPanel(TRUTH, rng=0), model
        )
        session = _session(
            experts,
            reserve,
            cost_model=cost_model,
            retry_policy=RetryPolicy(max_attempts=1, max_reassignments=1),
        )
        result = session.run(panel, max_rounds=1)
        kinds = [event.kind for event in result.incidents] + [
            event.kind
            for record in result.history
            for event in record.fault_events
        ]
        assert "budget_clip" in kinds
        assert session.remaining_budget >= 0.0

    def test_partial_answers_are_accepted_and_charged(self, experts):
        panel = FaultyExpertPanel(
            SimulatedExpertPanel(TRUTH, rng=4),
            FaultModel(partial=0.5, seed=4),
        )
        session = _session(experts)
        result = session.run(panel, max_rounds=3)
        assert not result.halted
        completed = [r for r in result.history if r.round_index >= 0]
        assert completed
        for record in completed:
            # partial rounds cost at most the full-round price
            assert record.cost <= len(record.query_fact_ids) * len(experts)


class TestTemperedDegradation:
    def test_contradiction_is_tempered_not_fatal(self):
        """Two infallible workers contradicting each other yield zero
        evidence; the runtime must temper instead of crashing."""
        belief = FactoredBelief(
            [
                BeliefState.from_marginals(FactSet.from_ids([0]), [0.6]),
            ]
        )
        panel = Crowd([Worker("yes", 1.0), Worker("no", 1.0)])

        class Contradictory:
            def collect(self, query_fact_ids, experts):
                return PartialAnswerFamily(
                    intended_query_fact_ids=tuple(query_fact_ids),
                    intended_worker_ids=experts.worker_ids,
                    answer_sets=tuple(
                        AnswerSet(
                            worker=worker,
                            answers={
                                f: worker.worker_id == "yes"
                                for f in query_fact_ids
                            },
                        )
                        for worker in experts
                    ),
                )

        session = ResilientCheckingSession(
            belief, panel, budget=4, k=1, ground_truth={0: True}
        )
        result = session.run(Contradictory(), max_rounds=2)
        kinds = [
            event.kind
            for record in result.history
            for event in record.fault_events
        ]
        assert "tempered_update" in kinds
        for group in result.belief:
            assert group.probabilities.sum() == pytest.approx(1.0)


class TestJournalResume:
    """Acceptance criterion: kill-and-resume restores the session so the
    subsequent rounds are byte-identical to an uninterrupted run."""

    FAULTS = dict(no_show=0.2, timeout=0.2, spam=0.1, partial=0.2)

    def _panel(self):
        return FaultyExpertPanel(
            SimulatedExpertPanel(TRUTH, rng=7),
            FaultModel(**self.FAULTS, seed=3),
        )

    def _fresh(self, experts, reserve, path):
        return _session(
            experts,
            reserve,
            journal_path=path,
            retry_policy=RetryPolicy(max_attempts=3, max_reassignments=1),
        )

    @pytest.mark.parametrize("cut", [1, 2, 4])
    def test_kill_and_resume_is_byte_identical(
        self, experts, reserve, tmp_path, cut
    ):
        reference = self._fresh(
            experts, reserve, tmp_path / "ref.jsonl"
        ).run(self._panel())

        interrupted = self._fresh(experts, reserve, tmp_path / "kill.jsonl")
        interrupted.run(self._panel(), max_rounds=cut)
        del interrupted  # the crash

        resumed = ResilientCheckingSession.resume(
            tmp_path / "kill.jsonl",
            retry_policy=RetryPolicy(max_attempts=3, max_reassignments=1),
        )
        result = resumed.run(self._panel())

        assert len(result.history) == len(reference.history)
        for ours, theirs in zip(result.history, reference.history):
            assert ours.query_fact_ids == theirs.query_fact_ids
            assert ours.cost == theirs.cost
            assert ours.budget_spent == theirs.budget_spent
            assert ours.quality == theirs.quality
        for ours, theirs in zip(result.belief, reference.belief):
            assert np.array_equal(
                ours.probabilities, theirs.probabilities
            )
        # the incident log resumes without loss or double counting
        assert result.incidents == reference.incidents

    def test_torn_final_line_still_resumes(
        self, experts, reserve, tmp_path
    ):
        reference = self._fresh(
            experts, reserve, tmp_path / "ref.jsonl"
        ).run(self._panel())

        path = tmp_path / "torn.jsonl"
        self._fresh(experts, reserve, path).run(self._panel(), max_rounds=3)
        raw = path.read_bytes()
        path.write_bytes(raw[:-40])  # crash mid-append

        resumed = ResilientCheckingSession.resume(
            path,
            retry_policy=RetryPolicy(max_attempts=3, max_reassignments=1),
        )
        result = resumed.run(self._panel())
        for ours, theirs in zip(result.belief, reference.belief):
            assert np.array_equal(
                ours.probabilities, theirs.probabilities
            )

    def test_truncated_journal_resumes_to_identical_bytes(
        self, experts, reserve, tmp_path
    ):
        """Not just identical state: the resumed *journal file* must end
        up byte-for-byte equal to an uninterrupted run's (repair drops
        the torn fragment, trim drops the in-flight round's records,
        and replay re-journals them identically)."""
        reference_path = tmp_path / "ref.jsonl"
        self._fresh(experts, reserve, reference_path).run(self._panel())
        reference_bytes = reference_path.read_bytes()

        lines = reference_bytes.splitlines(keepends=True)
        for cut in (2, len(lines) // 2, len(lines) - 1):
            path = tmp_path / f"cut{cut}.jsonl"
            path.write_bytes(b"".join(lines[:cut]) + lines[cut][:-10])
            resumed = ResilientCheckingSession.resume(
                path,
                retry_policy=RetryPolicy(
                    max_attempts=3, max_reassignments=1
                ),
            )
            resumed.run(self._panel())
            assert path.read_bytes() == reference_bytes, f"cut={cut}"

    def test_journal_records_header_checkpoints_and_events(
        self, experts, reserve, tmp_path
    ):
        path = tmp_path / "audit.jsonl"
        self._fresh(experts, reserve, path).run(
            self._panel(), max_rounds=3
        )
        records = read_journal(path)
        kinds = {record["kind"] for record in records}
        assert records[0]["kind"] == "header"
        assert records[0]["version"] == 9
        assert "checkpoint" in kinds
        checkpoints = [r for r in records if r["kind"] == "checkpoint"]
        # every checkpoint carries full durable state
        for checkpoint in checkpoints:
            assert "session" in checkpoint
            assert "rng" in checkpoint
            assert "panel" in checkpoint

    def test_resume_requires_a_checkpoint(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"kind":"header","version":2}\n')
        with pytest.raises(SerializationError, match="checkpoint"):
            ResilientCheckingSession.resume(path)

    def test_legacy_interior_damage_is_refused_not_cut(
        self, small_dataset, tmp_path
    ):
        """A legacy (unframed) journal is never cut at interior damage:
        nothing vouches for its lines, so resume refuses instead of
        trimming back to the last checkpoint before the damage (which
        silently dropped the intact checkpoint after it)."""
        from repro.core.serialization import strip_frame
        from repro.simulation import SessionConfig, run_hc_session

        framed = tmp_path / "framed.jsonl"
        run_hc_session(
            small_dataset,
            SessionConfig(budget=12.0, k=1, seed=2, journal_path=framed),
        )
        records = [
            strip_frame(json.loads(line))
            for line in framed.read_bytes().splitlines()
        ]
        records[0]["version"] = 7
        lines = [
            json.dumps(record, separators=(",", ":")).encode() + b"\n"
            for record in records
        ]
        checkpoints = [
            index
            for index, record in enumerate(records)
            if record["kind"] == "checkpoint"
        ]
        assert len(checkpoints) >= 2
        lines[checkpoints[-2]] = b"#" + lines[checkpoints[-2]][1:]
        path = tmp_path / "legacy.jsonl"
        damaged = b"".join(lines)
        path.write_bytes(damaged)
        with pytest.raises(SerializationError, match="parse_error"):
            ResilientCheckingSession.resume(path)
        assert path.read_bytes() == damaged

    def test_resume_of_finished_run_is_a_no_op(
        self, experts, reserve, tmp_path
    ):
        path = tmp_path / "done.jsonl"
        reference = self._fresh(experts, reserve, path).run(self._panel())
        resumed = ResilientCheckingSession.resume(path)
        result = resumed.run(self._panel())
        assert len(result.history) == len(reference.history)
        assert resumed.is_finished
