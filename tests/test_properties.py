"""Property-based tests (hypothesis) on the core invariants.

These pin down the information-theoretic guarantees the paper's proofs
rely on, over randomized belief states, crowds and query sets rather
than hand-picked examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AnswerFamily,
    AnswerSet,
    BeliefState,
    Crowd,
    ExactSelector,
    FactSet,
    FactoredBelief,
    GreedySelector,
    Worker,
    conditional_entropy,
    expected_quality_improvement,
    family_distribution,
    observation_entropy,
    pattern_marginal,
    shannon_entropy,
    update_with_family,
    worker_response_matrix,
)

from .reference.conditional_entropy import conditional_entropy_naive

# --------------------------------------------------------------------
# strategies
# --------------------------------------------------------------------


@st.composite
def belief_states(draw, min_facts: int = 1, max_facts: int = 4):
    """Random normalizable belief over 1..4 facts."""
    num_facts = draw(st.integers(min_facts, max_facts))
    size = 1 << num_facts
    weights = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=size,
            max_size=size,
        ).filter(lambda values: sum(values) > 1e-6)
    )
    facts = FactSet.from_ids(range(num_facts))
    return BeliefState(facts, np.array(weights))


@st.composite
def crowds(draw, min_size: int = 1, max_size: int = 3):
    size = draw(st.integers(min_size, max_size))
    accuracies = draw(
        st.lists(
            st.floats(0.5, 1.0, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    return Crowd.from_accuracies(accuracies)


@st.composite
def beliefs_with_queries(draw):
    belief = draw(belief_states())
    ids = list(belief.facts.fact_ids)
    query = draw(
        st.lists(st.sampled_from(ids), unique=True, min_size=1,
                 max_size=min(3, len(ids)))
    )
    return belief, query


# --------------------------------------------------------------------
# probability-calculus invariants
# --------------------------------------------------------------------


class TestProbabilityInvariants:
    @given(belief_states())
    @settings(max_examples=60, deadline=None)
    def test_belief_always_normalized(self, belief):
        assert belief.probabilities.sum() == pytest.approx(1.0)

    @given(belief_states())
    @settings(max_examples=60, deadline=None)
    def test_marginals_in_unit_interval(self, belief):
        marginals = belief.marginals()
        assert np.all(marginals >= -1e-12)
        assert np.all(marginals <= 1 + 1e-12)

    @given(beliefs_with_queries(), crowds())
    @settings(max_examples=40, deadline=None)
    def test_family_distribution_is_distribution(self, pair, experts):
        belief, query = pair
        distribution = family_distribution(belief, query, experts)
        assert np.all(distribution >= -1e-12)
        assert distribution.sum() == pytest.approx(1.0)

    @given(beliefs_with_queries())
    @settings(max_examples=60, deadline=None)
    def test_pattern_marginal_is_distribution(self, pair):
        belief, query = pair
        marginal = pattern_marginal(belief, query)
        assert marginal.sum() == pytest.approx(1.0)
        assert np.all(marginal >= -1e-12)

    @given(
        st.integers(1, 4),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_response_matrix_rows_stochastic(self, num_queries, accuracy):
        matrix = worker_response_matrix(num_queries, accuracy)
        assert np.allclose(matrix.sum(axis=1), 1.0)


# --------------------------------------------------------------------
# entropy / information invariants
# --------------------------------------------------------------------


class TestEntropyInvariants:
    @given(beliefs_with_queries(), crowds())
    @settings(max_examples=30, deadline=None)
    def test_conditional_entropy_identity_vs_naive(self, pair, experts):
        """The fast chain-rule implementation equals the Eq. 34 sum for
        arbitrary beliefs, queries and crowds."""
        belief, query = pair
        if len(query) * len(experts) > 6:
            query = query[:2]
        fast = conditional_entropy(belief, query, experts)
        naive = conditional_entropy_naive(belief, query, experts)
        assert fast == pytest.approx(naive, abs=1e-7)

    @given(beliefs_with_queries(), crowds())
    @settings(max_examples=40, deadline=None)
    def test_information_never_hurts(self, pair, experts):
        belief, query = pair
        assert conditional_entropy(
            belief, query, experts
        ) <= observation_entropy(belief) + 1e-9

    @given(beliefs_with_queries(), crowds())
    @settings(max_examples=40, deadline=None)
    def test_expected_gain_non_negative(self, pair, experts):
        belief, query = pair
        assert expected_quality_improvement(
            belief, query, experts
        ) >= -1e-9

    @given(belief_states(min_facts=2, max_facts=4), crowds(max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_monotonicity_in_query_set(self, belief, experts):
        """H(O|AS^T) is non-increasing as T grows (submodular set fn)."""
        ids = list(belief.facts.fact_ids)
        previous = observation_entropy(belief)
        for size in range(1, min(3, len(ids)) + 1):
            current = conditional_entropy(belief, ids[:size], experts)
            assert current <= previous + 1e-9
            previous = current

    @given(belief_states())
    @settings(max_examples=60, deadline=None)
    def test_entropy_bounds(self, belief):
        entropy = observation_entropy(belief)
        assert -1e-12 <= entropy <= belief.num_facts + 1e-9

    @given(
        st.lists(st.floats(1e-9, 1.0), min_size=2, max_size=32)
    )
    @settings(max_examples=60, deadline=None)
    def test_shannon_entropy_upper_bound(self, weights):
        entropy = shannon_entropy(np.array(weights))
        assert entropy <= np.log2(len(weights)) + 1e-9


# --------------------------------------------------------------------
# Bayesian-update invariants
# --------------------------------------------------------------------


class TestUpdateInvariants:
    @given(
        beliefs_with_queries(),
        crowds(max_size=2),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_posterior_normalized_and_supported(self, pair, experts, rand):
        belief, query = pair
        answer_sets = []
        for worker in experts:
            answers = {fact_id: rand.random() < 0.5 for fact_id in query}
            answer_sets.append(AnswerSet(worker=worker, answers=answers))
        family = AnswerFamily(answer_sets=tuple(answer_sets))
        try:
            posterior = update_with_family(belief, family)
        except Exception as error:
            from repro.core import InconsistentEvidenceError

            assert isinstance(error, InconsistentEvidenceError)
            return
        assert posterior.probabilities.sum() == pytest.approx(1.0)
        # Bayes cannot create support where the prior had none.
        prior_zero = belief.probabilities == 0.0
        assert np.all(posterior.probabilities[prior_zero] == 0.0)

    @given(beliefs_with_queries())
    @settings(max_examples=30, deadline=None)
    def test_coin_flip_worker_is_identity(self, pair):
        belief, query = pair
        flipper = Worker("c", 0.5)
        family = AnswerFamily(
            answer_sets=(
                AnswerSet(
                    worker=flipper,
                    answers={fact_id: True for fact_id in query},
                ),
            )
        )
        posterior = update_with_family(belief, family)
        assert np.allclose(
            posterior.probabilities, belief.probabilities, atol=1e-12
        )


# --------------------------------------------------------------------
# selection invariants
# --------------------------------------------------------------------


class TestSelectionInvariants:
    @given(belief_states(min_facts=2, max_facts=3), crowds(max_size=2),
           st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_greedy_subset_of_facts_no_duplicates(self, belief, experts, k):
        factored = FactoredBelief([belief])
        selected = GreedySelector().select(factored, experts, k)
        assert len(selected) == len(set(selected))
        assert set(selected) <= set(factored.fact_ids)
        assert len(selected) <= k

    @given(belief_states(min_facts=2, max_facts=3), crowds(max_size=2))
    @settings(max_examples=15, deadline=None)
    def test_greedy_first_pick_matches_opt_k1(self, belief, experts):
        """For k=1 greedy IS optimal; both must reach the same objective."""
        factored = FactoredBelief([belief])
        greedy = GreedySelector().select(factored, experts, 1)
        opt = ExactSelector().select(factored, experts, 1)
        if not greedy:
            # No positive gain anywhere; OPT's pick must also be ~zero.
            gain = expected_quality_improvement(belief, opt, experts)
            assert gain <= 1e-9
            return
        greedy_value = conditional_entropy(belief, greedy, experts)
        opt_value = conditional_entropy(belief, opt, experts)
        assert greedy_value == pytest.approx(opt_value, abs=1e-9)
