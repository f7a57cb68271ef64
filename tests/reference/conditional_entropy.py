"""The naive Eq. 34 double sum, kept as the reference the production
``conditional_entropy`` (chain-rule identity) is checked against.

Its likelihoods and entropies are the truth-table formulas of
``truth_tables.py``, so it does not move with the kernels it checks.
Production code must not import this module.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.answers import enumerate_answer_families
from repro.core.observations import BeliefState
from repro.core.workers import Crowd

from .truth_tables import family_likelihood, shannon_entropy


def conditional_entropy_naive(
    belief: BeliefState,
    query_fact_ids: Sequence[int],
    experts: Crowd,
) -> float:
    """``H(O | AS_CE^T)`` by the direct double sum of Eq. 34.

    Enumerates every concrete answer family, computes the posterior over
    observations for each, and averages the posterior entropies weighted
    by the family probabilities.  Exponential; test/reference use only.
    """
    if not query_fact_ids:
        return shannon_entropy(belief.probabilities)
    prior = belief.probabilities
    total = 0.0
    for family in enumerate_answer_families(query_fact_ids, experts):
        likelihood = family_likelihood(belief, family)
        joint = prior * likelihood
        family_probability = joint.sum()
        if family_probability <= 0.0:
            continue
        posterior = joint / family_probability
        total += family_probability * shannon_entropy(posterior)
    return float(total)
