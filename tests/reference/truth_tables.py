"""The dense belief kernels as truth-table formulas, kept verbatim.

Until the tensor-contraction kernels replaced them, every dense
marginal, pattern marginal and answer-set likelihood walked the
``(2**n, n)`` truth table of its group.  These are those formulas, as
they were written, with the truth table itself, the Lemma-3 updates
they fed (the likelihood over every observation, ``probs @
likelihood`` as the evidence, then the state constructor's clip, sum
and divide or the peak-shifted log path, inlined) and ``H(O)``'s
``shannon_entropy``.  Production code must not import this module: it
is the fixed point the property suites compare the kernels against, at
every group size (see ``test_tensor_kernels.py``), and it calls nothing
of the code under test.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

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


def reweighted(belief, likelihood):
    """``BeliefState(facts, prior * likelihood)``: its checks, clip, sum
    and divide; the result carries only ``probabilities``."""
    probabilities = belief.probabilities * likelihood
    if np.any(probabilities < -1e-12):
        raise ValueError("probabilities must be non-negative")
    probabilities = np.clip(probabilities, 0.0, None)
    total = probabilities.sum()
    if total <= 1e-300:
        raise ValueError("probabilities sum to zero; belief is undefined")
    return SimpleNamespace(probabilities=probabilities / total)


def log_reweighted(belief, log_likelihood):
    """The peak-shifted log-space update, its result kept verbatim."""
    with np.errstate(divide="ignore"):
        log_posterior = np.log(belief.probabilities) + log_likelihood
    peak = float(log_posterior.max())
    if not np.isfinite(peak):
        raise ValueError(
            "log likelihood is -inf everywhere the belief has mass; "
            "posterior is undefined"
        )
    log_norm = peak + float(np.log(np.exp(log_posterior - peak).sum()))
    return SimpleNamespace(probabilities=np.exp(log_posterior - log_norm))


def update_with_family(belief, family):
    """Lemma 3 / Eq. 23: the linear update with its log-space fallback."""
    likelihood = family_likelihood(belief, family)
    evidence = float(belief.probabilities @ likelihood)
    if evidence > EVIDENCE_UNDERFLOW_GUARD:
        return reweighted(belief, likelihood)
    return log_reweighted(belief, log_family_likelihood(belief, family))


def update_with_answer_set(belief, answer_set):
    """Lemma 3 / Eq. 19, as :func:`update_with_family` of one set."""
    likelihood = answer_set_likelihood(belief, answer_set)
    evidence = float(belief.probabilities @ likelihood)
    if evidence > EVIDENCE_UNDERFLOW_GUARD:
        return reweighted(belief, likelihood)
    return log_reweighted(
        belief, log_answer_set_likelihood(belief, answer_set)
    )


def tempered_posterior(belief, likelihood, floor, log_likelihood_fn):
    """The tempered update: exact while the answers have probability,
    else the likelihood floored at ``floor`` times its peak."""
    evidence = float(belief.probabilities @ likelihood)
    if evidence > EVIDENCE_UNDERFLOW_GUARD:
        return reweighted(belief, likelihood), False
    try:
        return log_reweighted(belief, log_likelihood_fn()), False
    except ValueError:
        pass
    scale = float(likelihood.max())
    floored = likelihood + (scale if scale > 0.0 else 1.0) * floor
    return reweighted(belief, floored), True


def tempered_update_with_answer_set(belief, answer_set, floor=1e-9):
    return tempered_posterior(
        belief,
        answer_set_likelihood(belief, answer_set),
        floor,
        lambda: log_answer_set_likelihood(belief, answer_set),
    )


def tempered_update_with_family(belief, family, floor=1e-9):
    return tempered_posterior(
        belief,
        family_likelihood(belief, family),
        floor,
        lambda: log_family_likelihood(belief, family),
    )


def shannon_entropy(probabilities) -> float:
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if np.any(probabilities < -1e-12):
        raise ValueError("probabilities must be non-negative")
    total = probabilities.sum()
    if total <= 0.0:
        raise ValueError("cannot take the entropy of an all-zero vector")
    probabilities = probabilities / total
    positive = probabilities[probabilities > 0.0]
    return float(-(positive * np.log2(positive)).sum())


def family_distribution(marginal, responses) -> np.ndarray:
    """The einsum of ``family_distribution``, planned on every call."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    axes = letters[: len(responses)]
    subscripts = (
        "A," + ",".join(f"A{axis}" for axis in axes) + "->" + axes
    )
    tensor = np.einsum(subscripts, marginal, *responses, optimize=True)
    return tensor.reshape(-1)
