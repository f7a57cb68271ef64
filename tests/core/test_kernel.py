"""Unit tests of the bit-packed, log-space, sparse belief kernel."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AnswerFamily,
    AnswerSet,
    BeliefState,
    FactSet,
    InconsistentEvidenceError,
    SparseBeliefState,
    Worker,
    pattern_indices,
    sparse_from_marginals,
    update_with_answer_set,
    update_with_family,
)
from repro.core.answers import likelihood_table
from repro.core.kernel import _truncated
from tests.reference import truth_tables as reference


def _total_variation(dense: BeliefState, other: BeliefState) -> float:
    return 0.5 * float(
        np.abs(dense.probabilities - other.probabilities).sum()
    )


def _sparse(facts: FactSet, probabilities, epsilon: float = 0.0):
    return SparseBeliefState(facts, np.asarray(probabilities), epsilon)


# ---------------------------------------------------------------------
# packed states and the shared likelihood table
# ---------------------------------------------------------------------


@st.composite
def sparse_beliefs_with_families(draw):
    """A sparse belief over 1..14 facts (epsilon 0 or 0.01) with shuffled
    ids, and a family of 1..3 workers answering a query set, each
    listing the queried facts in its own order, at accuracies that
    include 0 and 1."""
    num_facts = draw(st.integers(1, 14))
    fact_ids = draw(
        st.lists(
            st.integers(0, 10_000),
            min_size=num_facts,
            max_size=num_facts,
            unique=True,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(1 << num_facts) ** draw(st.sampled_from([1.0, 40.0]))
    weights[rng.random(weights.size) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    weights[rng.integers(weights.size)] += 1.0  # never all zero
    belief = SparseBeliefState(
        FactSet.from_ids(fact_ids),
        weights,
        epsilon=draw(st.sampled_from([0.0, 0.01])),
    )
    query = draw(st.permutations(fact_ids))[: draw(st.integers(1, num_facts))]
    accuracies = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    answer_sets = tuple(
        AnswerSet(
            worker=Worker(f"w{index}", draw(accuracies)),
            answers={
                fact_id: draw(st.booleans())
                for fact_id in draw(st.permutations(query))
            },
        )
        for index in range(draw(st.integers(1, 3)))
    )
    return belief, AnswerFamily(answer_sets=answer_sets)


def assert_update_reads_reference(update, belief, log_likelihood):
    """``update()`` is ``log_posterior`` of the reference's log
    likelihood at the support, byte for byte, or fails where it does."""
    try:
        expected = belief.log_posterior(log_likelihood[belief.support])
    except ValueError:
        with pytest.raises(InconsistentEvidenceError):
            update()
        return
    posterior = update()
    assert isinstance(posterior, SparseBeliefState)
    assert posterior.epsilon == belief.epsilon
    assert posterior.support.tobytes() == expected.support.tobytes()
    assert (
        posterior.sparse_probabilities.tobytes()
        == expected.sparse_probabilities.tobytes()
    )


@settings(max_examples=100, deadline=None)
@given(sparse_beliefs_with_families())
def test_sparse_log_likelihood_matches_dense_log_kernel(case):
    """Sparse updates read the dense kernel's per-pattern log table at
    their support, so they equal the truth-table log likelihood's
    posterior exactly; there is no second likelihood formula."""
    belief, family = case
    assert_update_reads_reference(
        lambda: update_with_family(belief, family),
        belief,
        reference.log_family_likelihood(belief, family),
    )
    for answer_set in family:
        assert_update_reads_reference(
            lambda: update_with_answer_set(belief, answer_set),
            belief,
            reference.log_answer_set_likelihood(belief, answer_set),
        )


def test_pattern_indices_compacts_selected_bits():
    states = np.array([0b000, 0b101, 0b110, 0b011], dtype=np.int64)
    # Select bit positions 0 and 2 -> compact index (bit2 << 1) | bit0.
    assert pattern_indices(states, [0, 2]).tolist() == [0, 3, 2, 1]


# ---------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------


def test_truncated_drops_within_budget_and_renormalizes():
    support = np.arange(4, dtype=np.int64)
    values = np.array([0.5, 0.3, 0.15, 0.05])
    kept_support, kept_values = _truncated(support, values, 0.06)
    assert kept_support.tolist() == [0, 1, 2]
    assert kept_values.sum() == pytest.approx(1.0)
    # Dropped mass (0.05) is the TV distance, within the 0.06 budget.
    dense_before = np.zeros(4)
    dense_before[support] = values
    dense_after = np.zeros(4)
    dense_after[kept_support] = kept_values
    assert 0.5 * np.abs(dense_before - dense_after).sum() <= 0.06


def test_truncated_never_empties_the_support():
    support = np.arange(3, dtype=np.int64)
    values = np.array([1 / 3, 1 / 3, 1 / 3])
    kept_support, _values = _truncated(support, values, 0.999999)
    assert kept_support.size >= 1


def test_truncated_epsilon_zero_is_identity():
    support = np.arange(5, dtype=np.int64)
    values = np.full(5, 0.2)
    kept_support, kept_values = _truncated(support, values, 0.0)
    assert kept_support is support
    assert kept_values is values


# ---------------------------------------------------------------------
# SparseBeliefState semantics
# ---------------------------------------------------------------------


def test_sparse_state_matches_dense_accessors():
    facts = FactSet.from_ids([1, 2, 3])
    probabilities = np.array(
        [0.09, 0.11, 0.10, 0.20, 0.08, 0.09, 0.15, 0.18]
    )
    dense = BeliefState(facts, probabilities)
    sparse = _sparse(facts, probabilities)
    assert np.array_equal(sparse.probabilities, dense.probabilities)
    assert np.allclose(sparse.marginals(), dense.marginals())
    assert sparse.map_observation() == dense.map_observation()
    assert sparse.probability_of((True, True, False)) == pytest.approx(
        dense.probability_of((True, True, False))
    )
    assert sparse.marginal(2) == pytest.approx(dense.marginal(2))
    assert sparse.support_size == 8


def test_sparse_update_tracks_dense_within_epsilon():
    facts = FactSet.from_ids([1, 2, 3, 4])
    rng = np.random.default_rng(5)
    probabilities = rng.dirichlet(np.ones(16))
    epsilon = 1e-3
    dense = BeliefState(facts, probabilities)
    sparse = _sparse(facts, probabilities, epsilon)
    answers = AnswerSet(Worker("w0", 0.9), {1: True, 3: False})
    dense = update_with_answer_set(dense, answers)
    sparse = update_with_answer_set(sparse, answers)
    assert isinstance(sparse, SparseBeliefState)
    assert sparse.epsilon == epsilon
    # One init truncation + one update truncation, plus float noise.
    assert _total_variation(dense, sparse) <= 2 * epsilon + 1e-9


def test_sparse_family_update_matches_log_reference():
    facts = FactSet.from_ids([1, 2])
    probabilities = np.array([0.4, 0.3, 0.2, 0.1])
    sparse = _sparse(facts, probabilities, 0.0)
    family = AnswerFamily(
        answer_sets=(
            AnswerSet(Worker("a", 0.8), {1: True, 2: True}),
            AnswerSet(Worker("b", 0.95), {1: True, 2: False}),
        )
    )
    updated = update_with_family(sparse, family)
    dense = BeliefState(facts, probabilities)
    logged = dense.log_reweighted(likelihood_table(dense, family, log=True))
    assert _total_variation(logged, updated) <= 1e-12


def test_sparse_pickle_round_trip_is_bitwise():
    facts = FactSet.from_ids([7, 8, 9])
    sparse = sparse_from_marginals(facts, [0.9, 0.2, 0.5], 1e-4)
    clone = pickle.loads(
        pickle.dumps(sparse, protocol=pickle.HIGHEST_PROTOCOL)
    )
    assert isinstance(clone, SparseBeliefState)
    assert np.array_equal(clone.support, sparse.support)
    assert np.array_equal(
        clone.sparse_probabilities, sparse.sparse_probabilities
    )
    assert clone.epsilon == sparse.epsilon


def test_from_support_rejects_malformed_inputs():
    facts = FactSet.from_ids([1, 2])
    with pytest.raises(ValueError):
        SparseBeliefState.from_support(
            facts, np.array([], dtype=np.int64), np.array([]), 0.0
        )
    with pytest.raises(ValueError):
        SparseBeliefState.from_support(
            facts, np.array([1, 0]), np.array([0.5, 0.5]), 0.0
        )
    with pytest.raises(ValueError):
        SparseBeliefState.from_support(
            facts, np.array([0, 4]), np.array([0.5, 0.5]), 0.0
        )
    with pytest.raises(ValueError):
        SparseBeliefState.from_support(
            facts, np.array([0, 1]), np.array([0.5, 0.0]), 0.0
        )


def test_log_posterior_rejects_all_inf_likelihood():
    facts = FactSet.from_ids([1])
    sparse = _sparse(facts, [0.5, 0.5])
    with pytest.raises(ValueError):
        sparse.log_posterior(np.array([-np.inf, -np.inf]))


# ---------------------------------------------------------------------
# marginal products
# ---------------------------------------------------------------------


def test_sparse_from_marginals_matches_dense_at_epsilon_zero():
    facts = FactSet.from_ids([1, 2, 3])
    marginals = [0.9, 0.25, 0.6]
    dense = BeliefState.from_marginals(facts, marginals)
    sparse = sparse_from_marginals(facts, marginals, 0.0)
    assert _total_variation(dense, sparse) <= 1e-12


def test_sparse_from_marginals_truncates_within_budget():
    facts = FactSet.from_ids(list(range(8)))
    marginals = [0.99] * 8
    epsilon = 1e-3
    dense = BeliefState.from_marginals(facts, marginals)
    sparse = sparse_from_marginals(facts, marginals, epsilon)
    assert sparse.support_size < dense.num_observations
    assert _total_variation(dense, sparse) <= epsilon + 1e-12


def test_sparse_from_marginals_extreme_endpoints_are_exact():
    """Accuracy-0/1 marginals give a point mass, not an underflow."""
    facts = FactSet.from_ids([1, 2, 3])
    sparse = sparse_from_marginals(facts, [0.0, 1.0, 0.0], 0.0)
    assert sparse.support_size == 1
    assert sparse.support[0] == 0b010
    assert sparse.sparse_probabilities[0] == 1.0
