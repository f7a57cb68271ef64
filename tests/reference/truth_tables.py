"""The dense belief kernels as truth-table formulas, kept verbatim.

Until the tensor-contraction kernels replaced them, every dense
marginal, pattern marginal and answer-set likelihood walked the
``(2**n, n)`` truth table of its group.  These are those formulas, as
they were written, with the truth table itself and the Lemma-3 update
they fed.  Production code must not import this module: it is the
fixed point the property suites compare the kernels against, at every
group size (see ``test_tensor_kernels.py``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: ``repro.core.update.EVIDENCE_UNDERFLOW_GUARD`` when these were written.
EVIDENCE_UNDERFLOW_GUARD = 1e-250


@lru_cache(maxsize=16)
def truth_table(num_facts: int) -> np.ndarray:
    states = np.arange(1 << num_facts, dtype=np.int64)
    bits = (states[:, None] >> np.arange(num_facts, dtype=np.int64)) & 1
    table = bits.astype(bool)
    table.setflags(write=False)
    return table


def marginals(belief) -> np.ndarray:
    return belief.probabilities @ truth_table(belief.num_facts)


def pattern_marginal(belief, query_fact_ids) -> np.ndarray:
    positions = [belief.facts.position_of(fact_id) for fact_id in query_fact_ids]
    if not positions:
        return np.ones(1)
    table = truth_table(belief.num_facts)[:, positions]
    weights = 1 << np.arange(len(positions), dtype=np.int64)
    pattern_index = table @ weights
    return np.bincount(
        pattern_index, weights=belief.probabilities, minlength=1 << len(positions)
    )


def answer_set_likelihood(belief, answer_set) -> np.ndarray:
    accuracy = answer_set.worker.accuracy
    query_fact_ids = answer_set.query_fact_ids
    if not query_fact_ids:
        return np.ones(belief.num_observations)
    positions = [belief.facts.position_of(fact_id) for fact_id in query_fact_ids]
    observation_bits = truth_table(belief.num_facts)[:, positions]
    answer_bits = answer_set.bits(query_fact_ids)
    matches = observation_bits == answer_bits
    return np.where(matches, accuracy, 1.0 - accuracy).prod(axis=1)


def log_answer_set_likelihood(belief, answer_set) -> np.ndarray:
    accuracy = answer_set.worker.accuracy
    query_fact_ids = answer_set.query_fact_ids
    if not query_fact_ids:
        return np.zeros(belief.num_observations)
    positions = [belief.facts.position_of(fact_id) for fact_id in query_fact_ids]
    observation_bits = truth_table(belief.num_facts)[:, positions]
    answer_bits = answer_set.bits(query_fact_ids)
    matches = observation_bits == answer_bits
    with np.errstate(divide="ignore"):
        log_hit = np.log(accuracy)
        log_miss = np.log(1.0 - accuracy)
    return np.where(matches, log_hit, log_miss).sum(axis=1)


def family_likelihood(belief, family) -> np.ndarray:
    likelihood = np.ones(belief.num_observations)
    for answer_set in family:
        likelihood *= answer_set_likelihood(belief, answer_set)
    return likelihood


def log_family_likelihood(belief, family) -> np.ndarray:
    total = np.zeros(belief.num_observations)
    for answer_set in family:
        total += log_answer_set_likelihood(belief, answer_set)
    return total


def update_with_family(belief, family):
    """Lemma 3 / Eq. 23: the linear update with its log-space fallback."""
    likelihood = family_likelihood(belief, family)
    evidence = float(belief.probabilities @ likelihood)
    if evidence > EVIDENCE_UNDERFLOW_GUARD:
        return belief.reweighted(likelihood)
    return belief.log_reweighted(log_family_likelihood(belief, family))


def family_distribution(marginal, responses) -> np.ndarray:
    """The einsum of ``family_distribution``, planned on every call."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    axes = letters[: len(responses)]
    subscripts = (
        "A," + ",".join(f"A{axis}" for axis in axes) + "->" + axes
    )
    tensor = np.einsum(subscripts, marginal, *responses, optimize=True)
    return tensor.reshape(-1)
