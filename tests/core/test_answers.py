"""Unit tests for repro.core.answers (Lemmas 1 and 2)."""

import numpy as np
import pytest

from repro.core import (
    AnswerFamily,
    AnswerSet,
    BeliefState,
    Crowd,
    FactSet,
    FamilySpaceTooLarge,
    Worker,
    answer_set_likelihood,
    answer_set_probability,
    consistent_sets,
    enumerate_answer_families,
    family_distribution,
    family_likelihood,
    family_probability,
    observation_index,
    pattern_marginal,
    worker_response_matrix,
)
from repro.core.answers import likelihood_table
from repro.core.observations import tensor_shape


@pytest.fixture
def worker() -> Worker:
    return Worker("w", 0.9)


class TestAnswerSet:
    def test_answers_copied(self, worker):
        source = {1: True}
        answer_set = AnswerSet(worker=worker, answers=source)
        source[1] = False
        assert answer_set.answer_for(1) is True

    def test_bits_order(self, worker):
        answer_set = AnswerSet(worker=worker, answers={1: True, 2: False})
        assert list(answer_set.bits([2, 1])) == [False, True]

    def test_query_fact_ids(self, worker):
        answer_set = AnswerSet(worker=worker, answers={3: True, 1: False})
        assert set(answer_set.query_fact_ids) == {1, 3}


class TestAnswerFamily:
    def test_mismatched_queries_rejected(self, worker):
        a = AnswerSet(worker=worker, answers={1: True})
        b = AnswerSet(worker=Worker("v", 0.8), answers={2: True})
        with pytest.raises(ValueError, match="same query set"):
            AnswerFamily(answer_sets=(a, b))

    def test_votes_for(self):
        family = AnswerFamily(
            answer_sets=(
                AnswerSet(worker=Worker("a", 0.9), answers={1: True}),
                AnswerSet(worker=Worker("b", 0.8), answers={1: False}),
            )
        )
        assert family.votes_for(1) == [True, False]

    def test_len_iter(self):
        family = AnswerFamily(
            answer_sets=(
                AnswerSet(worker=Worker("a", 0.9), answers={1: True}),
            )
        )
        assert len(family) == 1
        assert [a.worker.worker_id for a in family] == ["a"]


class TestConsistentSets:
    def test_paper_eq7_partition(self, table1_belief, worker):
        """T+ and T- partition the query set (paper Eq. 9)."""
        answer_set = AnswerSet(worker=worker, answers={1: True, 3: False})
        for state in range(8):
            consistent, inconsistent = consistent_sets(
                table1_belief, state, answer_set
            )
            assert consistent | inconsistent == {1, 3}
            assert consistent & inconsistent == set()

    def test_known_observation(self, table1_belief, worker):
        state = observation_index((True, True, False))
        answer_set = AnswerSet(worker=worker, answers={1: True, 3: True})
        consistent, inconsistent = consistent_sets(
            table1_belief, state, answer_set
        )
        assert consistent == {1}
        assert inconsistent == {3}


class TestAnswerSetLikelihood:
    def test_lemma1_values(self, table1_belief, worker):
        """P(A|o) = p^{|T+|} (1-p)^{|T-|} (Lemma 1, Eq. 6)."""
        answer_set = AnswerSet(worker=worker, answers={1: True, 2: False})
        likelihood = answer_set_likelihood(table1_belief, answer_set)
        for state in range(8):
            consistent, inconsistent = consistent_sets(
                table1_belief, state, answer_set
            )
            expected = 0.9 ** len(consistent) * 0.1 ** len(inconsistent)
            assert likelihood[state] == pytest.approx(expected)

    def test_empty_query_set(self, table1_belief, worker):
        answer_set = AnswerSet(worker=worker, answers={})
        assert np.allclose(
            answer_set_likelihood(table1_belief, answer_set), 1.0
        )

    def test_single_fact_probability_eq10(self, table1_belief, worker):
        """Paper Eq. 10: P(answer 'Yes' for f) = p*P(f) + (1-p)*P(~f)."""
        answer_set = AnswerSet(worker=worker, answers={1: True})
        probability = answer_set_probability(table1_belief, answer_set)
        marginal = table1_belief.marginal(1)
        assert probability == pytest.approx(
            0.9 * marginal + 0.1 * (1 - marginal)
        )

    def test_probabilities_sum_to_one_over_answers(
        self, table1_belief, worker
    ):
        total = 0.0
        for bits in range(4):
            answers = {1: bool(bits & 1), 2: bool(bits & 2)}
            answer_set = AnswerSet(worker=worker, answers=answers)
            total += answer_set_probability(table1_belief, answer_set)
        assert total == pytest.approx(1.0)


class TestFamilyLikelihood:
    def test_product_of_workers(self, table1_belief):
        a = AnswerSet(worker=Worker("a", 0.9), answers={1: True})
        b = AnswerSet(worker=Worker("b", 0.8), answers={1: True})
        family = AnswerFamily(answer_sets=(a, b))
        combined = family_likelihood(table1_belief, family)
        separate = answer_set_likelihood(
            table1_belief, a
        ) * answer_set_likelihood(table1_belief, b)
        assert np.allclose(combined, separate)

    def test_family_probabilities_sum_to_one(
        self, table1_belief, two_experts
    ):
        total = sum(
            family_probability(table1_belief, family)
            for family in enumerate_answer_families([1, 2], two_experts)
        )
        assert total == pytest.approx(1.0)


class TestWorkerResponseMatrix:
    def test_rows_sum_to_one(self):
        matrix = worker_response_matrix(3, 0.85)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_diagonal_is_full_agreement(self):
        matrix = worker_response_matrix(2, 0.9)
        assert np.allclose(np.diag(matrix), 0.81)

    def test_perfect_worker_identity(self):
        assert np.allclose(worker_response_matrix(2, 1.0), np.eye(4))

    def test_coin_flip_worker_uniform(self):
        assert np.allclose(worker_response_matrix(2, 0.5), 0.25)

    def test_invalid_accuracy(self):
        with pytest.raises(ValueError):
            worker_response_matrix(2, 1.5)


class TestPatternMarginal:
    def test_sums_to_one(self, table1_belief):
        marginal = pattern_marginal(table1_belief, [1, 3])
        assert marginal.sum() == pytest.approx(1.0)

    def test_single_fact_matches_marginal(self, table1_belief):
        marginal = pattern_marginal(table1_belief, [2])
        assert marginal[1] == pytest.approx(table1_belief.marginal(2))
        assert marginal[0] == pytest.approx(1 - table1_belief.marginal(2))

    def test_full_query_recovers_distribution(self, table1_belief):
        marginal = pattern_marginal(table1_belief, [1, 2, 3])
        assert np.allclose(marginal, table1_belief.probabilities)

    def test_empty_query(self, table1_belief):
        assert np.allclose(pattern_marginal(table1_belief, []), [1.0])

    def test_repeated_fact_rejected(self, table1_belief):
        with pytest.raises(ValueError, match="repeats a fact"):
            pattern_marginal(table1_belief, [2, 2])


class TestFamilyDistribution:
    def test_repeated_fact_rejected(self, table1_belief, two_experts):
        with pytest.raises(ValueError, match="repeats a fact"):
            family_distribution(table1_belief, [3, 1, 3], two_experts)
        with pytest.raises(ValueError, match="repeats a fact"):
            family_distribution(table1_belief, [3, 3], Crowd([]))

    def test_matches_enumeration(self, table1_belief, two_experts):
        """The einsum enumeration must match the definitional one."""
        fast = np.sort(
            family_distribution(table1_belief, [1, 2], two_experts)
        )
        slow = np.sort(
            [
                family_probability(table1_belief, family)
                for family in enumerate_answer_families([1, 2], two_experts)
            ]
        )
        assert np.allclose(fast, slow)

    def test_sums_to_one(self, table1_belief, two_experts):
        distribution = family_distribution(
            table1_belief, [1, 2, 3], two_experts
        )
        assert distribution.sum() == pytest.approx(1.0)
        assert distribution.size == 2 ** (3 * 2)

    def test_size_guard(self, table1_belief, two_experts):
        with pytest.raises(FamilySpaceTooLarge):
            family_distribution(
                table1_belief, [1, 2, 3], two_experts, max_family_bits=5
            )

    def test_empty_inputs(self, table1_belief):
        empty_crowd = Crowd([])
        assert np.allclose(
            family_distribution(table1_belief, [1], empty_crowd), [1.0]
        )
        two = Crowd.from_accuracies([0.9, 0.8])
        assert np.allclose(
            family_distribution(table1_belief, [], two), [1.0]
        )

    def test_many_workers(self, table1_belief):
        crowd = Crowd.from_accuracies([0.8] * 6)
        distribution = family_distribution(table1_belief, [1], crowd)
        assert distribution.size == 64
        assert distribution.sum() == pytest.approx(1.0)


class TestEnumerateAnswerFamilies:
    def test_count(self, two_experts):
        families = list(enumerate_answer_families([1, 2], two_experts))
        assert len(families) == 2 ** (2 * 2)

    def test_all_distinct(self, two_experts):
        seen = set()
        for family in enumerate_answer_families([1, 2], two_experts):
            key = tuple(
                (a.worker.worker_id, a.answer_for(1), a.answer_for(2))
                for a in family
            )
            seen.add(key)
        assert len(seen) == 16


class TestPartialAnswerFamily:
    def _make(self, answer_sets):
        from repro.core import PartialAnswerFamily

        return PartialAnswerFamily(
            intended_query_fact_ids=(1, 2),
            intended_worker_ids=("a", "b"),
            answer_sets=tuple(answer_sets),
        )

    def test_accessors(self):
        from repro.core import AnswerSet, Worker

        family = self._make(
            [
                AnswerSet(
                    worker=Worker("a", 0.9), answers={1: True, 2: False}
                ),
            ]
        )
        assert family.answered_worker_ids == ("a",)
        assert family.missing_worker_ids == ("b",)
        assert family.answered_fact_ids == (1, 2)
        assert family.num_answers == 2
        assert not family.is_empty
        assert not family.is_complete
        assert len(family) == 1

    def test_complete_family_converts_back(self):
        from repro.core import AnswerFamily, AnswerSet, Worker

        family = self._make(
            [
                AnswerSet(
                    worker=Worker(wid, 0.9), answers={1: True, 2: False}
                )
                for wid in ("a", "b")
            ]
        )
        assert family.is_complete
        assert isinstance(family.to_family(), AnswerFamily)

    def test_incomplete_family_refuses_conversion(self):
        from repro.core import AnswerSet, Worker

        family = self._make(
            [AnswerSet(worker=Worker("a", 0.9), answers={1: True})]
        )
        with pytest.raises(ValueError, match="complete"):
            family.to_family()

    def test_from_family_round_trip(self):
        from repro.core import (
            AnswerFamily,
            AnswerSet,
            PartialAnswerFamily,
            Worker,
        )

        full = AnswerFamily(
            answer_sets=tuple(
                AnswerSet(worker=Worker(wid, 0.9), answers={1: True})
                for wid in ("a", "b")
            )
        )
        partial = PartialAnswerFamily.from_family(full)
        assert partial.is_complete
        assert partial.intended_query_fact_ids == (1,)

    def test_rejects_answers_outside_intended_scope(self):
        from repro.core import AnswerSet, Worker

        with pytest.raises(ValueError, match="unqueried facts"):
            self._make(
                [AnswerSet(worker=Worker("a", 0.9), answers={9: True})]
            )
        with pytest.raises(ValueError, match="unexpected worker"):
            self._make(
                [AnswerSet(worker=Worker("z", 0.9), answers={1: True})]
            )

    def test_rejects_duplicate_workers(self):
        from repro.core import AnswerSet, Worker

        with pytest.raises(ValueError, match="duplicate"):
            self._make(
                [
                    AnswerSet(worker=Worker("a", 0.9), answers={1: True}),
                    AnswerSet(worker=Worker("a", 0.9), answers={2: True}),
                ]
            )

    @pytest.mark.parametrize(
        "entry_point",
        ["update_with_family", "tempered_update_with_family",
         "family_likelihood", "family_probability"],
    )
    @pytest.mark.parametrize(
        "first, second",
        [({1: True}, {2: False, 3: True}), ({1: True, 2: True}, {1: False})],
        ids=["disjoint", "subset"],
    )
    def test_answer_sets_over_different_facts_fail_clearly(
        self, entry_point, first, second
    ):
        """Each answer set of a family is folded in over the same
        queried facts, so sets that cover different facts are refused
        with a message naming each set's facts, not a bare lookup
        error."""
        from repro.core import PartialAnswerFamily, update

        family = PartialAnswerFamily(
            intended_query_fact_ids=(1, 2, 3),
            intended_worker_ids=("e0", "e1"),
            answer_sets=(
                AnswerSet(worker=Worker("e0", 0.8), answers=first),
                AnswerSet(worker=Worker("e1", 0.9), answers=second),
            ),
        )
        belief = BeliefState.uniform(FactSet.from_ids([1, 2, 3]))
        call = {
            "update_with_family": update.update_with_family,
            "tempered_update_with_family": update.tempered_update_with_family,
            "family_likelihood": family_likelihood,
            "family_probability": family_probability,
        }[entry_point]
        covered = f"e0: {sorted(first)}; e1: {sorted(second)}"
        with pytest.raises(ValueError, match="different facts") as error:
            call(belief, family)
        assert covered in str(error.value)
        assert "one answer set at a time" in str(error.value)


def log_likelihood(belief, answer_sets):
    """The log :func:`likelihood_table` written out over every
    observation."""
    table = likelihood_table(belief, answer_sets, log=True)
    return np.broadcast_to(table, tensor_shape(belief.num_facts)).reshape(-1)


class TestLogLikelihoods:
    def test_log_answer_set_matches_linear(self, worker):
        belief = BeliefState.from_marginals(
            FactSet.from_ids([1, 2, 3]), [0.6, 0.5, 0.3]
        )
        answer_set = AnswerSet(worker=worker, answers={1: True, 3: False})
        linear = answer_set_likelihood(belief, answer_set)
        logged = log_likelihood(belief, (answer_set,))
        assert np.allclose(np.exp(logged), linear)

    def test_log_family_is_sum_of_sets(self, worker):
        belief = BeliefState.from_marginals(
            FactSet.from_ids([1, 2]), [0.6, 0.4]
        )
        a = AnswerSet(worker=Worker("a", 0.9), answers={1: True, 2: False})
        b = AnswerSet(worker=Worker("b", 0.7), answers={1: False, 2: False})
        family = AnswerFamily(answer_sets=(a, b))
        total = log_likelihood(belief, family)
        assert np.allclose(
            total, log_likelihood(belief, (a,)) + log_likelihood(belief, (b,))
        )

    def test_extreme_accuracy_stays_finite_in_log_space(self):
        belief = BeliefState.uniform(FactSet.from_ids(range(10)))
        answers = {fact_id: True for fact_id in range(10)}
        family = AnswerFamily(
            answer_sets=tuple(
                AnswerSet(worker=Worker(f"w{i}", 0.999), answers=answers)
                for i in range(20)
            )
        )
        logged = log_likelihood(belief, family)
        # the all-True row is a near-hit for every worker; the all-False
        # row collects 200 log(0.001) factors but remains representable
        assert np.isfinite(logged.max())
        assert logged.max() == pytest.approx(200 * np.log(0.999))
        assert logged.min() == pytest.approx(200 * np.log(1 - 0.999))

    def test_perfect_worker_gives_minus_inf_not_error(self):
        belief = BeliefState.from_marginals(FactSet.from_ids([1]), [0.5])
        answer_set = AnswerSet(
            worker=Worker("oracle", 1.0), answers={1: True}
        )
        logged = log_likelihood(belief, (answer_set,))
        assert np.isneginf(logged).any()  # the contradicted observation
        assert np.allclose(
            np.exp(logged), answer_set_likelihood(belief, answer_set)
        )

    def test_empty_query_set_is_log_one(self, worker):
        belief = BeliefState.from_marginals(FactSet.from_ids([1]), [0.5])
        answer_set = AnswerSet(worker=worker, answers={})
        assert np.array_equal(
            log_likelihood(belief, (answer_set,)), np.zeros(2)
        )
