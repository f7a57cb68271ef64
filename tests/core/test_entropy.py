"""Unit tests for repro.core.entropy (Definitions 2/4/5, Theorems 1-2)."""

import numpy as np
import pytest

from repro.core import (
    BeliefState,
    Crowd,
    FactSet,
    answer_family_entropy,
    binary_entropy,
    conditional_entropy,
    expected_quality,
    expected_quality_improvement,
    observation_entropy,
    quality,
    shannon_entropy,
)

from tests.reference.conditional_entropy import conditional_entropy_naive


class TestShannonEntropy:
    def test_uniform_maximal(self):
        assert shannon_entropy(np.ones(8)) == pytest.approx(3.0)

    def test_point_mass_zero(self):
        probs = np.zeros(4)
        probs[2] = 1.0
        assert shannon_entropy(probs) == 0.0

    def test_zero_log_zero_convention(self):
        assert shannon_entropy(np.array([0.5, 0.5, 0.0])) == pytest.approx(1.0)

    def test_normalizes_input(self):
        assert shannon_entropy(np.array([2.0, 2.0])) == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([0.5, -0.1]))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.zeros(3))


class TestBinaryEntropy:
    def test_fair_coin(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_symmetry(self):
        assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestQuality:
    def test_definition2_sign(self, table1_belief):
        """Q(F) = -H(O) <= 0, equal iff certain."""
        assert quality(table1_belief) == pytest.approx(
            -observation_entropy(table1_belief)
        )
        assert quality(table1_belief) < 0

    def test_certainty_gives_zero(self, three_facts):
        certain = BeliefState.point_mass(three_facts, (True, False, True))
        assert quality(certain) == 0.0

    def test_uniform_is_worst(self, three_facts, table1_belief):
        uniform = BeliefState.uniform(three_facts)
        assert quality(uniform) <= quality(table1_belief)


class TestAnswerFamilyEntropy:
    def test_empty_query_zero(self, table1_belief, two_experts):
        assert answer_family_entropy(table1_belief, [], two_experts) == 0.0

    def test_definition4_direct_sum(self, table1_belief, two_experts):
        """H(AS) must equal -sum P(A) log P(A) over enumerated families."""
        from repro.core import enumerate_answer_families, family_probability

        fast = answer_family_entropy(table1_belief, [1, 2], two_experts)
        probabilities = np.array(
            [
                family_probability(table1_belief, family)
                for family in enumerate_answer_families([1, 2], two_experts)
            ]
        )
        assert fast == pytest.approx(shannon_entropy(probabilities))

    def test_grows_with_queries(self, table1_belief, two_experts):
        one = answer_family_entropy(table1_belief, [1], two_experts)
        two = answer_family_entropy(table1_belief, [1, 2], two_experts)
        assert two > one


class TestConditionalEntropy:
    @pytest.mark.parametrize("query", [[1], [2], [3], [1, 2], [1, 3], [1, 2, 3]])
    def test_identity_matches_naive(self, table1_belief, two_experts, query):
        """The chain-rule implementation equals the Eq. 34 double sum."""
        fast = conditional_entropy(table1_belief, query, two_experts)
        naive = conditional_entropy_naive(table1_belief, query, two_experts)
        assert fast == pytest.approx(naive, abs=1e-9)

    def test_repeated_fact_rejected(self, table1_belief, two_experts):
        """No answer set can hold a fact twice, so a query set that
        repeats one has no Eq. 34 value to score."""
        with pytest.raises(ValueError, match="repeats a fact"):
            conditional_entropy(table1_belief, [2, 2], two_experts)

    def test_empty_query_returns_prior(self, table1_belief, two_experts):
        assert conditional_entropy(
            table1_belief, [], two_experts
        ) == pytest.approx(observation_entropy(table1_belief))

    def test_information_never_hurts(self, table1_belief, two_experts):
        """H(O|AS) <= H(O) for every query set."""
        prior = observation_entropy(table1_belief)
        for query in ([1], [2], [1, 3], [1, 2, 3]):
            assert conditional_entropy(
                table1_belief, query, two_experts
            ) <= prior + 1e-12

    def test_monotone_in_queries(self, table1_belief, two_experts):
        """Adding queries cannot increase the conditional entropy."""
        h1 = conditional_entropy(table1_belief, [1], two_experts)
        h12 = conditional_entropy(table1_belief, [1, 2], two_experts)
        h123 = conditional_entropy(table1_belief, [1, 2, 3], two_experts)
        assert h12 <= h1 + 1e-12
        assert h123 <= h12 + 1e-12

    def test_useless_worker_gives_no_information(self, table1_belief):
        coin_flipper = Crowd.from_accuracies([0.5])
        prior = observation_entropy(table1_belief)
        assert conditional_entropy(
            table1_belief, [1, 2, 3], coin_flipper
        ) == pytest.approx(prior, abs=1e-9)

    def test_perfect_workers_resolve_queried_facts(self, table1_belief):
        oracle = Crowd.from_accuracies([1.0])
        residual = conditional_entropy(table1_belief, [1, 2, 3], oracle)
        assert residual == pytest.approx(0.0, abs=1e-9)

    def test_more_accurate_worker_learns_more(self, table1_belief):
        weak = conditional_entropy(
            table1_belief, [1], Crowd.from_accuracies([0.6])
        )
        strong = conditional_entropy(
            table1_belief, [1], Crowd.from_accuracies([0.95])
        )
        assert strong < weak

    def test_two_workers_beat_one(self, table1_belief):
        one = conditional_entropy(
            table1_belief, [1], Crowd.from_accuracies([0.8])
        )
        two = conditional_entropy(
            table1_belief, [1], Crowd.from_accuracies([0.8, 0.8])
        )
        assert two < one

    def test_prior_entropy_shortcut(self, table1_belief, two_experts):
        prior = observation_entropy(table1_belief)
        with_hint = conditional_entropy(
            table1_belief, [1, 2], two_experts, prior_entropy=prior
        )
        without = conditional_entropy(table1_belief, [1, 2], two_experts)
        assert with_hint == pytest.approx(without)


class TestExpectedQuality:
    def test_definition5_sign(self, table1_belief, two_experts):
        """Q(F|T) = -H(O|AS^T)."""
        assert expected_quality(
            table1_belief, [1, 2], two_experts
        ) == pytest.approx(
            -conditional_entropy(table1_belief, [1, 2], two_experts)
        )

    def test_theorem1_improvement_non_negative(
        self, table1_belief, two_experts
    ):
        """Theorem 1: dQ = H(O) - H(O|AS) = I(O; AS) >= 0."""
        for query in ([1], [2, 3], [1, 2, 3]):
            gain = expected_quality_improvement(
                table1_belief, query, two_experts
            )
            assert gain >= 0.0

    def test_improvement_is_mutual_information(
        self, table1_belief, two_experts
    ):
        """dQ = H(AS) - H(AS|O), the symmetric MI form (Eq. 31)."""
        query = [1, 3]
        family_entropy = answer_family_entropy(
            table1_belief, query, two_experts
        )
        entropy_given_o = len(query) * sum(
            binary_entropy(worker.accuracy) for worker in two_experts
        )
        gain = expected_quality_improvement(table1_belief, query, two_experts)
        assert gain == pytest.approx(
            family_entropy - entropy_given_o, abs=1e-9
        )

    def test_certain_belief_gains_nothing(self, three_facts, two_experts):
        certain = BeliefState.point_mass(three_facts, (True, True, False))
        assert expected_quality_improvement(
            certain, [1, 2, 3], two_experts
        ) == pytest.approx(0.0, abs=1e-9)
