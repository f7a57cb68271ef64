"""Belief initialization and Bayesian update (paper section III-A).

* :func:`initialize_from_votes` builds the initial belief from preliminary
  workers' votes, either as the independent-product form of Eq. 15/16 or
  from externally supplied per-fact posteriors (e.g. an EBCC run).
* :func:`update_with_answer_set` / :func:`update_with_family` apply
  Lemma 3: the posterior over observations after seeing expert answers,
  ``P(o | A) = P(o) P(A | o) / P(A)``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .answers import AnswerFamily, AnswerSet, likelihood_table, pattern_table
from .facts import FactSet
from .kernel import SparseBeliefState, pattern_indices, sparse_from_marginals
from .observations import _EPSILON, BeliefState, tensor_shape


class InconsistentEvidenceError(ValueError):
    """Raised when the observed answers have zero probability under the
    current belief (cannot condition on a null event)."""


def initialize_from_votes(
    facts: FactSet,
    yes_fractions: Mapping[int, float] | Sequence[float],
    smoothing: float = 0.01,
    epsilon: float = 0.0,
    on_degenerate=None,
) -> BeliefState:
    """Initial belief from preliminary-crowd vote fractions (Eq. 15/16).

    Parameters
    ----------
    facts:
        The facts of one task group.
    yes_fractions:
        For each fact, the fraction of preliminary workers answering
        "Yes" (or any aggregator's posterior ``P(f)``).  Either a mapping
        ``fact_id -> fraction`` or a sequence in positional order.
    smoothing:
        Fractions are squeezed into ``[smoothing, 1 - smoothing]`` so a
        unanimous preliminary crowd does not produce an irrecoverable
        point mass (experts could then never overturn a wrong label).
        Must lie strictly inside ``(0, 0.5)``: ``smoothing=0`` would
        leave exactly that irrecoverable point mass in place, and the
        checking loop could then die on the first contradicting expert.
    epsilon:
        Truncation budget of the sparse belief kernel.  ``0`` (the
        default) builds the exact dense :class:`BeliefState`;
        a positive value builds a
        :class:`~repro.core.kernel.SparseBeliefState` whose updates drop
        negligible-mass states within a total-variation bound of
        ``epsilon`` per update.
    on_degenerate:
        Callback invoked if the marginal product is degenerate and the
        belief falls back to uniform (``degenerate_marginals`` incident).
    """
    if isinstance(yes_fractions, Mapping):
        ordered = [yes_fractions[fact.fact_id] for fact in facts]
    else:
        ordered = list(yes_fractions)
        if len(ordered) != len(facts):
            raise ValueError("need one vote fraction per fact")
    if not 0.0 < smoothing < 0.5:
        raise ValueError(
            f"smoothing must lie in (0, 0.5), got {smoothing}"
        )
    marginals = np.clip(np.asarray(ordered, dtype=np.float64),
                        smoothing, 1.0 - smoothing)
    if epsilon > 0.0:
        return sparse_from_marginals(
            facts, marginals, epsilon, on_degenerate=on_degenerate
        )
    return BeliefState.from_marginals(
        facts, marginals, on_degenerate=on_degenerate
    )


#: Evidence below this is treated as potential float64 underflow rather
#: than genuine inconsistency: the update retries in log space before
#: concluding the answers truly have zero probability.  Comfortably
#: above the subnormal range (~1e-308) where products lose precision.
EVIDENCE_UNDERFLOW_GUARD = 1e-250


def update_with_answer_set(
    belief: BeliefState, answer_set: AnswerSet
) -> BeliefState:
    """Posterior after one worker's answer set (Lemma 3, Eq. 19)."""
    return _update(belief, (answer_set,))[0]


def update_with_family(belief: BeliefState, family: AnswerFamily) -> BeliefState:
    """Posterior after a whole answer family (Eq. 23).

    Workers are conditionally independent given the observation, so the
    family likelihood is the product of per-worker likelihoods.
    """
    return _update(belief, family)[0]


#: Default likelihood floor used by the tempered updates.
TEMPER_FLOOR = 1e-9


def tempered_update_with_answer_set(
    belief: BeliefState, answer_set: AnswerSet, floor: float = TEMPER_FLOOR
) -> tuple[BeliefState, bool]:
    """:func:`update_with_answer_set` with the tempered fallback; the
    second return value says whether the answers were tempered."""
    return _update(belief, (answer_set,), floor)


def tempered_update_with_family(
    belief: BeliefState, family: AnswerFamily, floor: float = TEMPER_FLOOR
) -> tuple[BeliefState, bool]:
    """:func:`update_with_family` with the tempered fallback."""
    return _update(belief, family, floor)


def _update(
    belief: BeliefState, answer_sets, floor: float | None = None
) -> tuple[BeliefState, bool]:
    """The Lemma-3 update behind every entry point.

    A dense state multiplies the prior by the answers' likelihood
    (:func:`~repro.core.answers.likelihood_table`) in one broadcast
    pass and normalizes the product in place: element for element the
    ``fl(prior * likelihood)``, sum and divide that
    ``BeliefState(facts, prior * likelihood)`` computes, which
    checkpoint resume and every identity suite depend on.  Evidence
    inside the ``EVIDENCE_UNDERFLOW_GUARD`` band retries with the log
    table (:meth:`~repro.core.observations.BeliefState.log_reweighted`),
    which tells "the product underflowed" from "the answers are truly
    impossible".  A sparse state updates in log space only, reading the
    same log table at its support's patterns: sums of logs cannot
    underflow, so zero evidence there *is* inconsistency.

    Truly impossible answers raise :class:`InconsistentEvidenceError`,
    or with a ``floor`` are tempered: the likelihood is floored at
    ``floor`` times its largest entry (over the support states, for a
    sparse state), or at ``floor`` outright where it is zero
    everywhere, and renormalized.  That re-smooths the posterior
    instead of crashing; the second return value says whether it
    happened, so callers can record the incident.
    """
    if floor is not None and not 0.0 < floor < 1.0:
        raise ValueError(f"floor must lie in (0, 1), got {floor}")
    answer_sets = tuple(answer_sets)
    sparse = isinstance(belief, SparseBeliefState)
    if sparse:
        queried, log_table = pattern_table(belief.facts, answer_sets, log=True)
        log_likelihood = log_table[pattern_indices(belief.support, queried)]
        log_update = belief.log_posterior
    else:
        table = likelihood_table(belief, answer_sets)
        posterior = _normalized_product(belief, table, EVIDENCE_UNDERFLOW_GUARD)
        if posterior is not None:
            return posterior, False
        log_likelihood = likelihood_table(belief, answer_sets, log=True)
        log_update = belief.log_reweighted
    try:
        return log_update(log_likelihood), False
    except ValueError as error:
        if floor is None:
            raise InconsistentEvidenceError(
                "observed answers have zero probability under the current "
                "belief"
            ) from error
    if sparse:
        floored = _floored(np.exp(log_likelihood), floor)
        return log_update(np.log(floored)), True
    posterior = _normalized_product(belief, _floored(table, floor), _EPSILON)
    if posterior is None:
        raise ValueError("probabilities sum to zero; belief is undefined")
    return posterior, True


def _floored(likelihood: np.ndarray, floor: float) -> np.ndarray:
    """``likelihood`` plus ``floor`` times its largest entry (or
    ``floor`` itself when it is zero everywhere)."""
    scale = float(likelihood.max())
    return likelihood + (scale if scale > 0.0 else 1.0) * floor


def _normalized_product(
    belief: BeliefState, table: np.ndarray, threshold: float
) -> BeliefState | None:
    """``prior * table`` normalized, or ``None`` when its total is not
    above ``threshold``.

    The evidence is the product's own sum, not ``prior @ likelihood``:
    both are ``P(A)``, summed in a different order.  Clipping, as
    ``__init__`` does, changes only a product with a negative or signed
    zero entry, which a state from ``from_normalized`` can hold.
    """
    weights = np.multiply(
        belief.probabilities.reshape(tensor_shape(belief.num_facts)), table
    ).reshape(-1)
    if not weights.min() > 0.0:
        np.clip(weights, 0.0, None, out=weights)
    total = weights.sum()
    if not total > threshold:
        return None
    weights /= total
    return BeliefState._of_normalized(belief.facts, weights)
