"""Unit tests for the sans-IO online checking session."""

import numpy as np
import pytest

from repro.core import (
    AnswerFamily,
    AnswerSet,
    BeliefState,
    Crowd,
    FactSet,
    FactoredBelief,
    HierarchicalCrowdsourcing,
    InconsistentEvidenceError,
    Worker,
)
from repro.simulation import (
    OnlineCheckingSession,
    SessionStateError,
    SimulatedExpertPanel,
)

TRUTH = {0: True, 1: False, 2: True, 3: True}


def _belief() -> FactoredBelief:
    return FactoredBelief(
        [
            BeliefState.from_marginals(FactSet.from_ids([0, 1]), [0.7, 0.4]),
            BeliefState.from_marginals(FactSet.from_ids([2, 3]), [0.6, 0.8]),
        ]
    )


@pytest.fixture
def experts():
    return Crowd.from_accuracies([0.92, 0.95], prefix="e")


@pytest.fixture
def session(experts):
    return OnlineCheckingSession(
        _belief(), experts, budget=12, ground_truth=TRUTH
    )


class TestLifecycle:
    def test_initial_state(self, session):
        assert not session.is_finished
        assert session.pending_queries is None
        assert session.remaining_budget == 12
        assert len(session.history) == 1

    def test_full_loop_matches_batch_runner(self, experts):
        """Driving the session with the same panel seed must reproduce
        the batch HierarchicalCrowdsourcing run exactly."""
        panel_online = SimulatedExpertPanel(TRUTH, rng=7)
        session = OnlineCheckingSession(
            _belief(), experts, budget=12, ground_truth=TRUTH
        )
        while (queries := session.next_queries()) is not None:
            session.submit(panel_online.collect(queries, experts))

        panel_batch = SimulatedExpertPanel(TRUTH, rng=7)
        batch = HierarchicalCrowdsourcing(experts, k=1).run(
            _belief(), panel_batch, budget=12, ground_truth=TRUTH
        )
        assert [r.quality for r in session.history] == pytest.approx(
            [r.quality for r in batch.history]
        )
        assert session.final_labels() == batch.final_labels

    def test_finishes_on_budget(self, session, experts):
        panel = SimulatedExpertPanel(TRUTH, rng=0)
        rounds = 0
        while (queries := session.next_queries()) is not None:
            session.submit(panel.collect(queries, experts))
            rounds += 1
        assert session.is_finished
        assert rounds == 6  # budget 12 / (1 query * 2 experts)
        assert session.next_queries() is None

    def test_certain_belief_finishes_immediately(self, experts):
        certain = FactoredBelief(
            [BeliefState.point_mass(FactSet.from_ids([0]), (True,))]
        )
        session = OnlineCheckingSession(certain, experts, budget=100)
        assert session.next_queries() is None
        assert session.is_finished


class TestStateMachine:
    def test_double_next_queries_rejected(self, session):
        session.next_queries()
        with pytest.raises(SessionStateError, match="pending"):
            session.next_queries()

    def test_submit_without_pending_rejected(self, session, experts):
        family = AnswerFamily(
            answer_sets=tuple(
                AnswerSet(worker=worker, answers={0: True})
                for worker in experts
            )
        )
        with pytest.raises(SessionStateError, match="no pending"):
            session.submit(family)

    def test_submit_wrong_facts_rejected(self, session, experts):
        queries = session.next_queries()
        wrong_fact = next(
            fact_id for fact_id in TRUTH if fact_id not in queries
        )
        family = AnswerFamily(
            answer_sets=tuple(
                AnswerSet(worker=worker, answers={wrong_fact: True})
                for worker in experts
            )
        )
        with pytest.raises(ValueError, match="covers"):
            session.submit(family)

    def test_submit_missing_expert_rejected(self, session, experts):
        queries = session.next_queries()
        family = AnswerFamily(
            answer_sets=(
                AnswerSet(
                    worker=experts[0],
                    answers={fact_id: True for fact_id in queries},
                ),
            )
        )
        with pytest.raises(ValueError, match="missing experts"):
            session.submit(family)

    @pytest.mark.parametrize(
        "extra",
        [Worker("stranger", 0.99), None],
        ids=["worker-outside-the-panel", "worker-answering-twice"],
    )
    def test_submit_rejects_answers_beyond_the_panel(
        self, session, experts, extra
    ):
        """An answer set the round is not charged for must not move the
        belief: a stranger's, or a second one from a panel member."""
        queries = session.next_queries()
        before = list(session.belief)
        workers = (*experts, extra if extra is not None else experts[0])
        family = AnswerFamily(
            answer_sets=tuple(
                AnswerSet(
                    worker=worker,
                    answers={fact_id: TRUTH[fact_id] for fact_id in queries},
                )
                for worker in workers
            )
        )
        with pytest.raises(
            ValueError, match="outside the panel|repeats a worker"
        ):
            session.submit(family)
        assert all(
            state is old for state, old in zip(session.belief, before)
        )
        assert session.pending_queries == tuple(queries)
        assert session.spent_budget == 0.0

    def test_abandon_pending(self, session, experts):
        first = session.next_queries()
        session.abandon_pending()
        assert session.pending_queries is None
        assert session.remaining_budget == 12  # nothing charged
        second = session.next_queries()
        assert second == first  # belief unchanged -> same selection

    def test_abandon_without_pending_rejected(self, session):
        with pytest.raises(SessionStateError):
            session.abandon_pending()

    def test_constructor_validation(self, experts):
        with pytest.raises(ValueError, match="must not be empty"):
            OnlineCheckingSession(_belief(), Crowd([]), budget=5)
        with pytest.raises(ValueError, match="k must be"):
            OnlineCheckingSession(_belief(), experts, budget=5, k=0)


class TestAccounting:
    def test_budget_charged_per_round(self, session, experts):
        panel = SimulatedExpertPanel(TRUTH, rng=1)
        queries = session.next_queries()
        record = session.submit(panel.collect(queries, experts))
        assert record.cost == len(queries) * len(experts)
        assert session.spent_budget == record.cost

    def test_caller_belief_untouched(self, experts):
        belief = _belief()
        before = [group.probabilities.copy() for group in belief]
        session = OnlineCheckingSession(belief, experts, budget=8)
        panel = SimulatedExpertPanel(TRUTH, rng=2)
        while (queries := session.next_queries()) is not None:
            session.submit(panel.collect(queries, experts))
        for group, original in zip(belief, before):
            assert np.allclose(group.probabilities, original)

    def test_history_accuracy_tracked(self, session, experts):
        panel = SimulatedExpertPanel(TRUTH, rng=3)
        queries = session.next_queries()
        session.submit(panel.collect(queries, experts))
        assert all(
            record.accuracy is not None for record in session.history
        )


class TestSelectorCacheLifecycle:
    """The session must release selector cache entries for groups it
    updates, so a long campaign's memory is bounded by the *current*
    belief rather than by every belief that ever existed."""

    def test_submit_invalidates_updated_groups(self, experts):
        from repro.core import LazyGreedySelector

        selector = LazyGreedySelector()
        session = OnlineCheckingSession(
            _belief(), experts, budget=40, ground_truth=TRUTH, selector=selector
        )
        panel = SimulatedExpertPanel(TRUTH, rng=5)
        sizes = []
        while (queries := session.next_queries()) is not None:
            session.submit(panel.collect(queries, experts))
            sizes.append(selector.cache_entries)
        assert sizes, "session must run at least one round"
        # 2 groups x 2 facts: bounded by priors + first-step gain
        # vectors + per-group query-set entries of the current states.
        assert max(sizes) <= 2 + 4 + 2 * 4

    def test_partial_submission_invalidates_staged_groups(self, experts):
        from repro.core import LazyGreedySelector

        selector = LazyGreedySelector()
        session = OnlineCheckingSession(
            _belief(), experts, budget=20, ground_truth=TRUTH,
            selector=selector, k=2,
        )
        panel = SimulatedExpertPanel(TRUTH, rng=6)
        queries = session.next_queries()
        assert selector.cache_entries > 0
        # Only one of the two panellists responds this round.
        session.submit_partial(panel.collect(queries, Crowd([experts[0]])))
        # The staged groups' superseded states are no longer cached.
        current = {id(session.belief[i]) for i in range(len(session.belief))}
        cached = {
            id(entry[0]) for entry in selector._first_gains.values()
        }
        assert cached <= current


class TestAtomicStrictSubmit:
    """A strict round whose second group has zero evidence changes
    nothing and can still be answered."""

    PANEL = Crowd([Worker("yes", 1.0), Worker("no", 1.0)])

    def _family(self, queries, answer) -> AnswerFamily:
        return AnswerFamily(
            answer_sets=tuple(
                AnswerSet(
                    worker=worker,
                    answers={
                        fact_id: answer(worker, fact_id)
                        for fact_id in queries
                    },
                )
                for worker in self.PANEL
            )
        )

    def test_failing_round_changes_nothing(self):
        session = OnlineCheckingSession(
            FactoredBelief(
                [
                    BeliefState.from_marginals(
                        FactSet.from_ids([0, 1]), [0.5, 0.5]
                    ),
                    BeliefState.from_marginals(
                        FactSet.from_ids([2, 3]), [0.7, 0.8]
                    ),
                ]
            ),
            self.PANEL,
            100.0,
            k=4,
        )
        queries = session.next_queries()
        assert len(queries) == 4
        assert session.belief.group_index_of(queries[0]) == 0
        before = list(session.belief)
        # The panel agrees on group 0's facts, disagrees on group 1's.
        with pytest.raises(InconsistentEvidenceError):
            session.submit(
                self._family(
                    queries,
                    lambda worker, fact_id: (
                        worker.worker_id == "yes" or fact_id < 2
                    ),
                )
            )
        assert all(
            state is old for state, old in zip(session.belief, before)
        )
        assert session.pending_queries == tuple(queries)
        assert session.spent_budget == 0.0
        session.submit(self._family(queries, lambda worker, fact_id: True))
        assert session.round_index == 1
