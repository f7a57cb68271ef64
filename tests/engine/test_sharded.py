"""Tests for the k-way gain merge and the sharded selector/update seams."""

import numpy as np
import pytest

from repro.core import (
    AnswerFamily,
    AnswerSet,
    BeliefState,
    Crowd,
    FactSet,
    FactoredBelief,
    InconsistentEvidenceError,
    LazyGreedySelector,
    Worker,
    update_with_answer_set,
)
from repro.engine import (
    ShardPool,
    ShardedSelector,
    ShardedUpdateEngine,
    merge_shard_selections,
)
from repro.simulation import OnlineCheckingSession


class TestMergeShardSelections:
    def test_takes_globally_highest_gains(self):
        merged = merge_shard_selections(
            [[(1, 0.9), (2, 0.2)], [(3, 0.5), (4, 0.4)]], k=3
        )
        assert merged == [1, 3, 4]

    def test_ties_break_toward_lowest_fact_id(self):
        merged = merge_shard_selections([[(7, 0.5)], [(3, 0.5)]], k=2)
        assert merged == [3, 7]

    def test_stops_at_k(self):
        merged = merge_shard_selections(
            [[(1, 0.9), (2, 0.8), (3, 0.7)]], k=2
        )
        assert merged == [1, 2]

    def test_stops_when_no_gain_beats_tolerance(self):
        merged = merge_shard_selections(
            [[(1, 0.9), (2, 0.0)], [(3, 1e-15)]], k=5
        )
        assert merged == [1]

    def test_empty_inputs(self):
        assert merge_shard_selections([], k=3) == []
        assert merge_shard_selections([[], []], k=3) == []

    def test_merge_of_one_shard_is_its_prefix(self):
        sequence = [(5, 0.5), (1, 0.4), (9, 0.3)]
        assert merge_shard_selections([sequence], k=2) == [5, 1]


def _belief(num_groups: int, group_size: int, seed: int) -> FactoredBelief:
    rng = np.random.default_rng(seed)
    groups = []
    for index in range(num_groups):
        start = index * group_size
        facts = FactSet.from_ids(range(start, start + group_size))
        groups.append(
            BeliefState(facts, rng.dirichlet(np.ones(2 ** group_size)))
        )
    return FactoredBelief(groups)


class TestShardedSelector:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 5])
    def test_matches_lazy_greedy_over_rounds(self, jobs):
        """The tentpole selection guarantee: identical picks for any
        shard count, across rounds with interleaved belief updates."""
        experts = Crowd.from_accuracies([0.85, 0.95], prefix="e")
        checker = Crowd.from_accuracies([0.9], prefix="c")[0]
        serial_belief = _belief(5, 4, seed=11)
        sharded_belief = _belief(5, 4, seed=11)
        serial = LazyGreedySelector()
        answer_rng = np.random.default_rng(2)
        with ShardPool(sharded_belief, experts, jobs, inline=True) as pool:
            sharded = ShardedSelector(pool)
            engine = ShardedUpdateEngine(pool)
            for _ in range(4):
                picks = serial.select(serial_belief, experts, 3)
                assert (
                    sharded.select(sharded_belief, experts, 3) == picks
                )
                family_answers = {
                    fact_id: bool(answer_rng.integers(2))
                    for fact_id in picks
                }
                # Mirror stage_family_updates: one multi-fact answer set
                # per touched group (float op order matters for bits).
                by_group: dict[int, dict[int, bool]] = {}
                for fact_id, value in family_answers.items():
                    group_index = serial_belief.group_index_of(fact_id)
                    by_group.setdefault(group_index, {})[fact_id] = value
                for group_index, answers in by_group.items():
                    serial_belief.replace_group(
                        group_index,
                        update_with_answer_set(
                            serial_belief[group_index],
                            AnswerSet(worker=checker, answers=answers),
                        ),
                    )
                serial.invalidate_groups(by_group.keys())
                engine.apply_family(
                    sharded_belief,
                    AnswerFamily(
                        answer_sets=(
                            AnswerSet(
                                worker=checker, answers=family_answers
                            ),
                        )
                    ),
                )
                for ours, theirs in zip(sharded_belief, serial_belief):
                    assert np.array_equal(
                        ours.probabilities, theirs.probabilities
                    )

    def test_pool_clamps_jobs_to_groups(self):
        experts = Crowd.from_accuracies([0.9], prefix="e")
        with ShardPool(_belief(3, 3, seed=0), experts, 8, inline=True) as pool:
            assert pool.jobs == 3

    def test_invalidate_groups_is_a_noop(self):
        experts = Crowd.from_accuracies([0.9], prefix="e")
        with ShardPool(_belief(2, 3, seed=0), experts, 2, inline=True) as pool:
            ShardedSelector(pool).invalidate_groups({0, 1})


class TestAtomicStrictSubmit:
    """A strict round whose second group has zero evidence changes
    nothing — serially or sharded — and raises the same error."""

    PANEL = Crowd([Worker("yes", 1.0), Worker("no", 1.0)])

    def _round(self, session) -> tuple[str, list]:
        queries = session.next_queries()
        assert len(queries) == 4
        assert session.belief.group_index_of(queries[0]) == 0
        # The panel agrees on group 0's facts, disagrees on group 1's.
        family = AnswerFamily(
            answer_sets=tuple(
                AnswerSet(
                    worker=worker,
                    answers={
                        fact_id: worker.worker_id == "yes" or fact_id < 2
                        for fact_id in queries
                    },
                )
                for worker in self.PANEL
            )
        )
        before = list(session.belief)
        with pytest.raises(InconsistentEvidenceError) as raised:
            session.submit(family)
        assert all(
            state is old for state, old in zip(session.belief, before)
        )
        assert session.pending_queries == tuple(queries)
        assert session.spent_budget == 0.0
        # The round can still be answered, to the same bits everywhere.
        session.submit(
            AnswerFamily(
                answer_sets=tuple(
                    AnswerSet(
                        worker=worker,
                        answers={fact_id: True for fact_id in queries},
                    )
                    for worker in self.PANEL
                )
            )
        )
        return str(raised.value), [
            state.probabilities for state in session.belief
        ]

    @staticmethod
    def _belief() -> FactoredBelief:
        return FactoredBelief(
            [
                BeliefState.from_marginals(
                    FactSet.from_ids([0, 1]), [0.5, 0.5]
                ),
                BeliefState.from_marginals(
                    FactSet.from_ids([2, 3]), [0.7, 0.8]
                ),
            ]
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_serial_and_sharded_rounds_fail_alike(self, jobs):
        error, posteriors = self._round(
            OnlineCheckingSession(self._belief(), self.PANEL, 100.0, k=4)
        )
        belief = self._belief()
        with ShardPool(belief, self.PANEL, jobs, inline=True) as pool:
            sharded_error, sharded_posteriors = self._round(
                OnlineCheckingSession(
                    belief,
                    self.PANEL,
                    100.0,
                    selector=ShardedSelector(pool),
                    k=4,
                    update_engine=ShardedUpdateEngine(pool),
                )
            )
        assert sharded_error == error
        for ours, theirs in zip(sharded_posteriors, posteriors):
            assert np.array_equal(ours, theirs)
