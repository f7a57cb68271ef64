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

from .answers import (
    AnswerFamily,
    AnswerSet,
    likelihood_table,
    log_family_likelihood,
)
from .facts import FactSet
from .kernel import (
    SparseBeliefState,
    sparse_from_marginals,
    sparse_log_answer_set_likelihood,
    sparse_log_family_likelihood,
)
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
    if isinstance(belief, SparseBeliefState):
        return _sparse_posterior(
            belief,
            sparse_log_answer_set_likelihood(
                belief.facts, belief.support, answer_set
            ),
        )
    return _dense_update(belief, (answer_set,))[0]


def update_with_family(belief: BeliefState, family: AnswerFamily) -> BeliefState:
    """Posterior after a whole answer family (Eq. 23).

    Workers are conditionally independent given the observation, so the
    family likelihood is the product of per-worker likelihoods.
    """
    if isinstance(belief, SparseBeliefState):
        return _sparse_posterior(
            belief,
            sparse_log_family_likelihood(
                belief.facts, belief.support, family
            ),
        )
    return _dense_update(belief, family)[0]


def _sparse_posterior(
    belief: "SparseBeliefState", log_likelihood: np.ndarray
) -> BeliefState:
    """Pure log-space update on the sparse kernel (no guard band needed:
    sums of logs cannot underflow, so zero evidence *is* inconsistency)."""
    try:
        return belief.log_posterior(log_likelihood)
    except ValueError as error:
        raise InconsistentEvidenceError(
            "observed answers have zero probability under the current "
            "belief"
        ) from error


def _dense_update(
    belief: BeliefState, answer_sets, floor: float | None = None
) -> tuple[BeliefState, bool]:
    """The dense Lemma-3 update, in one pass over the prior.

    The answers' likelihood is computed once per truth pattern of the
    queried facts (:func:`~repro.core.answers.likelihood_table`), the
    prior is multiplied by it in one broadcast pass, and the product is
    summed and normalized in place: element for element the
    ``fl(prior * likelihood)``, sum and divide that
    ``BeliefState(facts, prior * likelihood)`` computes, which
    checkpoint resume and every identity suite depend on.

    Evidence inside the ``EVIDENCE_UNDERFLOW_GUARD`` band retries in log
    space, which tells "the product underflowed" from "the answers are
    truly impossible".  Truly impossible answers raise
    :class:`InconsistentEvidenceError`, or with a ``floor`` are
    tempered (:func:`tempered_posterior`); the second return value says
    whether they were.
    """
    if floor is not None and not 0.0 < floor < 1.0:
        raise ValueError(f"floor must lie in (0, 1), got {floor}")
    answer_sets = tuple(answer_sets)
    table = likelihood_table(belief, answer_sets)
    posterior = _normalized_product(belief, table, EVIDENCE_UNDERFLOW_GUARD)
    if posterior is not None:
        return posterior, False
    try:
        return belief.log_reweighted(
            log_family_likelihood(belief, answer_sets)
        ), False
    except ValueError:
        pass
    if floor is None:
        raise InconsistentEvidenceError(
            "observed answers have zero probability under the current belief"
        )
    scale = float(table.max())
    floored = table + (scale if scale > 0.0 else 1.0) * floor
    posterior = _normalized_product(belief, floored, _EPSILON)
    if posterior is None:
        raise ValueError("probabilities sum to zero; belief is undefined")
    return posterior, True


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


# ----------------------------------------------------------------------
# tempered fallback (graceful degradation on zero evidence)
# ----------------------------------------------------------------------

#: Default likelihood floor used by the tempered updates.
TEMPER_FLOOR = 1e-9


def tempered_posterior(
    belief: BeliefState,
    likelihood: np.ndarray,
    floor: float = TEMPER_FLOOR,
    log_likelihood_fn=None,
) -> tuple[BeliefState, bool]:
    """Bayes update that survives zero-evidence answer patterns.

    When ``P(A) > 0`` this is the exact Lemma-3 posterior and the second
    return value is ``False``.  When the evidence is zero, the update
    first retries in log space (when ``log_likelihood_fn`` is supplied)
    to distinguish float64 underflow from genuine inconsistency; an
    underflowed-but-consistent update stays exact and is *not* counted
    as tempered.  Only when the answers truly contradict every
    observation the belief still allows (e.g. an accuracy-1.0 worker
    contradicting a point mass) is the likelihood floored at ``floor``
    times its largest entry (or ``floor`` outright if it is identically
    zero) and renormalized, which re-smooths the posterior marginals
    instead of crashing; the second return value is then ``True`` so
    callers can record the incident.
    """
    if not 0.0 < floor < 1.0:
        raise ValueError(f"floor must lie in (0, 1), got {floor}")
    likelihood = np.asarray(likelihood, dtype=np.float64)
    if isinstance(belief, SparseBeliefState):
        with np.errstate(divide="ignore"):
            log_likelihood = np.log(likelihood[belief.support])
        return _sparse_tempered(belief, log_likelihood, floor)
    evidence = float(belief.probabilities @ likelihood)
    if evidence > EVIDENCE_UNDERFLOW_GUARD:
        return belief.reweighted(likelihood), False
    if log_likelihood_fn is not None:
        try:
            return belief.log_reweighted(log_likelihood_fn()), False
        except ValueError:
            pass
    elif evidence > 0.0:
        return belief.reweighted(likelihood), False
    scale = float(likelihood.max())
    floored = likelihood + (scale if scale > 0.0 else 1.0) * floor
    return belief.reweighted(floored), True


def _sparse_tempered(
    belief: "SparseBeliefState",
    log_likelihood: np.ndarray,
    floor: float,
) -> tuple[BeliefState, bool]:
    """Sparse-kernel tempered update, fully in log space.

    Log-space sums cannot underflow, so a failed update means the
    answers genuinely contradict every supported observation; only then
    is the (support-restricted) likelihood floored and retried.
    """
    if not 0.0 < floor < 1.0:
        raise ValueError(f"floor must lie in (0, 1), got {floor}")
    try:
        return belief.log_posterior(log_likelihood), False
    except ValueError:
        pass
    likelihood = np.exp(log_likelihood)
    scale = float(likelihood.max())
    floored = likelihood + (scale if scale > 0.0 else 1.0) * floor
    return belief.log_posterior(np.log(floored)), True


def tempered_update_with_answer_set(
    belief: BeliefState, answer_set: AnswerSet, floor: float = TEMPER_FLOOR
) -> tuple[BeliefState, bool]:
    """:func:`update_with_answer_set` with the tempered fallback."""
    if isinstance(belief, SparseBeliefState):
        return _sparse_tempered(
            belief,
            sparse_log_answer_set_likelihood(
                belief.facts, belief.support, answer_set
            ),
            floor,
        )
    return _dense_update(belief, (answer_set,), floor)


def tempered_update_with_family(
    belief: BeliefState, family: AnswerFamily, floor: float = TEMPER_FLOOR
) -> tuple[BeliefState, bool]:
    """:func:`update_with_family` with the tempered fallback."""
    if isinstance(belief, SparseBeliefState):
        return _sparse_tempered(
            belief,
            sparse_log_family_likelihood(
                belief.facts, belief.support, family
            ),
            floor,
        )
    return _dense_update(belief, family, floor)
