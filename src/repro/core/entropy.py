"""Entropy, data quality, and the conditional-entropy objective.

Implements, in bits (log base 2):

* Shannon entropy ``H(O)`` and the paper's quality function
  ``Q(F) = -H(O)`` (Definition 2);
* the answer-family entropy ``H(AS_CE^T)`` (Definition 4);
* the conditional entropy ``H(O | AS_CE^T)`` that Theorem 1 proves is
  the quantity to minimize when selecting checking tasks (Eq. 34);
* the expected quality ``Q(F|T) = -H(O | AS_CE^T)`` (Definition 5) and
  the expected quality improvement ``dQ = H(O) - H(O|AS)`` (Theorem 1),
  which equals the mutual information ``I(O; AS)``.

The conditional entropy uses the chain-rule identity
``H(O|AS) = H(O) + H(AS|O) - H(AS)`` with the closed form
``H(AS|O) = |T| * sum_cr h(Pr_cr)`` (each answer bit is conditionally
an independent Bernoulli whose entropy does not depend on the
observation); the tests cross-validate it against the naive double sum
over the family space in ``tests/reference/conditional_entropy.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .answers import (
    MAX_FAMILY_BITS,
    crowd_single_query_responses,
    family_distribution,
)
from .observations import BeliefState, check_weights
from .workers import Crowd


class DegenerateSamplesError(RuntimeError):
    """Raised when every Monte Carlo sample has zero posterior mass.

    Returning a value in this situation would silently claim perfect
    certainty (the old behaviour divided an empty sum by the sample
    count), so the estimator refuses instead; callers should widen the
    sample budget or fall back to the exact evaluator.
    """


def shannon_entropy(probabilities: np.ndarray) -> float:
    """Shannon entropy in bits, with the ``0 log 0 = 0`` convention.

    Accepts unnormalized non-negative weights and normalizes first;
    NaN or infinite weights are refused.  The terms summed are exactly
    ``p * log2(p)`` over the positive normalized entries, in order, so
    the value does not depend on which of the shortcuts below apply:
    a total of exactly 1 divides by nothing, and an array without zeros
    is not gathered.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    low = check_weights(probabilities)
    total = probabilities.sum()
    if not np.isfinite(total):
        raise ValueError("probabilities must be finite")
    if total <= 0.0:
        raise ValueError("cannot take the entropy of an all-zero vector")
    if total != 1.0:
        probabilities = probabilities / total
        # A quotient can underflow to zero when the total exceeds 1.
        low = probabilities.min()
    if not low > 0.0:
        probabilities = probabilities[probabilities > 0.0]
    terms = np.log2(probabilities)
    terms *= probabilities
    return float(-terms.sum())


def binary_entropy(probability: float) -> float:
    """Entropy in bits of a Bernoulli(``probability``) variable.

    Values a hair outside [0, 1] (float summation slop in marginals)
    are clamped; anything beyond ``1e-9`` slack is a real error.
    """
    if not -1e-9 <= probability <= 1.0 + 1e-9:
        raise ValueError(f"probability must lie in [0, 1], got {probability}")
    probability = min(max(probability, 0.0), 1.0)
    if probability in (0.0, 1.0):
        return 0.0
    complement = 1.0 - probability
    return float(
        -probability * np.log2(probability) - complement * np.log2(complement)
    )


def observation_entropy(belief: BeliefState) -> float:
    """``H(O)`` of a belief state, memoized on the (immutable) state.

    Sparse beliefs skip the dense materialization: their support holds
    exactly the positive entries :func:`shannon_entropy` would keep, in
    the same (ascending state) order.  Serial and parallel runs agree
    bit for bit because both evaluate the same representation; against
    the dense path the result matches up to pairwise-summation grouping
    of the interleaved zeros (last-ulp).
    """
    entropy = belief._entropy_memo
    if entropy is None:
        from .kernel import SparseBeliefState

        if isinstance(belief, SparseBeliefState):
            entropy = belief.entropy_bits()
        else:
            entropy = shannon_entropy(belief.probabilities)
        belief._entropy_memo = entropy
    return entropy


def quality(belief: BeliefState) -> float:
    """Paper Definition 2: ``Q(F) = -H(O)``.  Higher is better; 0 is
    perfect certainty."""
    return -observation_entropy(belief)


def answer_family_entropy(
    belief: BeliefState,
    query_fact_ids: Sequence[int],
    experts: Crowd,
    max_family_bits: int = MAX_FAMILY_BITS,
) -> float:
    """``H(AS_CE^T)`` (paper Definition 4) by exact enumeration."""
    if not query_fact_ids:
        return 0.0
    distribution = family_distribution(
        belief, query_fact_ids, experts, max_family_bits=max_family_bits
    )
    return shannon_entropy(distribution)


def conditional_entropy(
    belief: BeliefState,
    query_fact_ids: Sequence[int],
    experts: Crowd,
    max_family_bits: int = MAX_FAMILY_BITS,
    prior_entropy: float | None = None,
) -> float:
    """``H(O | AS_CE^T)`` — the selection objective (paper Eq. 34).

    Uses the chain-rule identity
    ``H(O|AS) = H(O) + H(AS|O) - H(AS)`` with
    ``H(AS|O) = |T| * sum_cr h(Pr_cr)``.

    An empty query set yields ``H(O)`` (no information gained).
    ``prior_entropy`` lets callers that evaluate many query sets against
    the same belief pass a precomputed ``H(O)``.
    """
    if prior_entropy is None:
        prior_entropy = observation_entropy(belief)
    if not query_fact_ids:
        return prior_entropy
    entropy_given_observation = len(query_fact_ids) * crowd_answer_noise(experts)
    family_entropy = answer_family_entropy(
        belief, query_fact_ids, experts, max_family_bits=max_family_bits
    )
    value = prior_entropy + entropy_given_observation - family_entropy
    # Mutual information is non-negative, so H(O|AS) <= H(O); tiny
    # negative slack can appear from float cancellation.
    return float(min(max(value, 0.0), prior_entropy))


def crowd_answer_noise(experts: Crowd) -> float:
    """``H(AS|O)`` per queried fact: ``sum_cr h(Pr_cr)`` in bits.

    The crowd's answer-noise term depends only on the accuracy profile,
    so it is memoized on the accuracy tuple; the sum runs in worker
    order, matching the historical inline ``sum(...)`` bit for bit.
    """
    return _cached_answer_noise(tuple(worker.accuracy for worker in experts))


@lru_cache(maxsize=256)
def _cached_answer_noise(accuracies: tuple[float, ...]) -> float:
    return sum(binary_entropy(accuracy) for accuracy in accuracies)


def first_step_gains(
    belief: BeliefState,
    experts: Crowd,
    prior_entropy: float | None = None,
    max_family_bits: int = MAX_FAMILY_BITS,
) -> np.ndarray:
    """First-step gains ``gain^∅({f})`` of every fact in one kernel.

    Entry ``i`` equals
    ``H(O) - conditional_entropy(belief, [f_i], experts)`` (positional
    order), but all ``n`` facts are evaluated together: the crowd's
    single-query response tensor is shared, so the whole group costs one
    ``(n, 2) @ (2, 2**|CE|)`` matmul plus a row-wise entropy instead of
    ``n`` separate family enumerations.  This is the kernel the
    lazy-greedy selector seeds its bound heap from.

    Applies the same clamping as :func:`conditional_entropy` (gains lie
    in ``[0, H(O)]``), so the values match the scalar path up to float
    round-off.  It is :func:`first_step_gains_many` of one group.
    """
    return first_step_gains_many(
        [belief],
        experts,
        None if prior_entropy is None else [prior_entropy],
        max_family_bits=max_family_bits,
    )[0]


def first_step_gains_many(
    states: Sequence[BeliefState],
    experts: Crowd,
    prior_entropies: Iterable[float] | None = None,
    max_family_bits: int = MAX_FAMILY_BITS,
) -> list[np.ndarray]:
    """:func:`first_step_gains` for many groups at once.

    Stacks every group's ``(n_g, 2)`` pattern-marginal block into one
    ``(sum n_g, 2) @ (2, 2**|CE|)`` matmul against the shared crowd
    response tensor, then splits and clamps per group.  Each output row
    is a fixed-order two-term dot product regardless of how rows are
    batched, and the row-wise entropy and clamp operate elementwise, so
    the result is bitwise identical to calling :func:`first_step_gains`
    per group — the batch only removes the per-group Python/BLAS
    dispatch overhead, which dominates at hundreds of small groups.
    """
    states = list(states)
    if prior_entropies is None:
        priors = [observation_entropy(state) for state in states]
    else:
        priors = list(prior_entropies)
        if len(priors) != len(states):
            raise ValueError("need one prior entropy per state")
    if not states:
        return []
    if len(experts) == 0:
        return [np.zeros(state.num_facts) for state in states]
    responses = crowd_single_query_responses(
        experts, max_family_bits=max_family_bits
    )
    marginals = np.concatenate([state.marginals() for state in states])
    pattern = np.stack([1.0 - marginals, marginals], axis=1)
    distributions = pattern @ responses
    totals = distributions.sum(axis=1, keepdims=True)
    distributions = distributions / totals
    contributions = np.zeros_like(distributions)
    positive = distributions > 0.0
    contributions[positive] = distributions[positive] * np.log2(
        distributions[positive]
    )
    family_entropies = -contributions.sum(axis=1)
    gains = family_entropies - crowd_answer_noise(experts)
    results: list[np.ndarray] = []
    offset = 0
    for state, prior in zip(states, priors):
        chunk = gains[offset:offset + state.num_facts]
        offset += state.num_facts
        results.append(np.minimum(np.maximum(chunk, 0.0), prior))
    return results


def conditional_entropy_sampled(
    belief: BeliefState,
    query_fact_ids: Sequence[int],
    experts: Crowd,
    num_samples: int = 2000,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Monte Carlo estimate of ``H(O | AS_CE^T)``.

    For large expert crowds the family space ``2^(|T| |CE|)`` cannot be
    enumerated; this estimator samples answer families from the model
    (sample a pattern ``v ~ q``, then flip each answer bit with the
    worker's error rate) and averages the exact posterior entropies:

        H(O|AS) ~= mean over sampled families A of H(O | A).

    The estimate is consistent and, unlike a naive plug-in entropy of
    the *family* distribution, needs no bias correction because each
    posterior entropy is computed exactly.

    Parameters
    ----------
    num_samples:
        Sampled answer families; the standard error shrinks as
        ``1/sqrt(num_samples)``.
    """
    from .answers import pattern_marginal, worker_response_matrix  # local: cycle-free

    if not query_fact_ids:
        return observation_entropy(belief)
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    rng = np.random.default_rng(rng)
    num_queries = len(query_fact_ids)
    accuracies = np.array([worker.accuracy for worker in experts])
    num_workers = accuracies.size
    if num_workers == 0:
        return observation_entropy(belief)

    marginal = pattern_marginal(belief, query_fact_ids)
    patterns = rng.choice(marginal.size, size=num_samples, p=marginal)
    pattern_bits = (
        (patterns[:, None] >> np.arange(num_queries)) & 1
    ).astype(bool)
    # answers[s, j, t]: worker j's sampled answer to query t in sample s.
    correct = (
        rng.random((num_samples, num_workers, num_queries))
        < accuracies[None, :, None]
    )
    answers = np.where(correct, pattern_bits[:, None, :],
                       ~pattern_bits[:, None, :])

    # Posterior entropy for each sampled family, computed exactly.
    from .observations import truth_table

    positions = [
        belief.facts.position_of(fact_id) for fact_id in query_fact_ids
    ]
    truth_table_view = truth_table(belief.num_facts)[:, positions]
    prior = belief.probabilities
    total = 0.0
    retained = 0
    for sample in range(num_samples):
        # (workers, observations, queries) in one shot per sample.
        matches = (
            truth_table_view[None, :, :] == answers[sample][:, None, :]
        )
        factors = np.where(
            matches,
            accuracies[:, None, None],
            1.0 - accuracies[:, None, None],
        )
        likelihood = factors.prod(axis=(0, 2))
        joint = prior * likelihood
        mass = joint.sum()
        if mass <= 0.0:
            # Degenerate sample: near-deterministic workers drove the
            # family likelihood below the float64 floor everywhere the
            # belief has mass.  It carries no usable posterior.
            continue
        retained += 1
        total += shannon_entropy(joint)
    if retained == 0:
        raise DegenerateSamplesError(
            f"all {num_samples} sampled answer families have zero "
            "posterior mass; increase num_samples, reduce the panel, or "
            "use the exact conditional entropy"
        )
    # Average over the retained samples only: dividing by num_samples
    # would bias the estimate toward 0 (overstating information gain)
    # whenever degenerate samples were skipped.
    return total / retained


def expected_quality(
    belief: BeliefState,
    query_fact_ids: Sequence[int],
    experts: Crowd,
    max_family_bits: int = MAX_FAMILY_BITS,
) -> float:
    """Paper Definition 5: expected post-checking quality
    ``Q(F|T) = -H(O | AS_CE^T)``."""
    return -conditional_entropy(
        belief, query_fact_ids, experts, max_family_bits=max_family_bits
    )


def expected_quality_improvement(
    belief: BeliefState,
    query_fact_ids: Sequence[int],
    experts: Crowd,
    max_family_bits: int = MAX_FAMILY_BITS,
) -> float:
    """Theorem 1: ``dQ(F|T) = H(O) - H(O | AS_CE^T) = I(O; AS_CE^T)``.

    Always non-negative — information (in expectation) never hurts.
    """
    return observation_entropy(belief) - conditional_entropy(
        belief, query_fact_ids, experts, max_family_bits=max_family_bits
    )
