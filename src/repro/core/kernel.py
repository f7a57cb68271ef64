"""Bit-packed, log-space, sparse belief kernel.

The dense :class:`~repro.core.observations.BeliefState` materializes all
``2**n`` observation probabilities.  This module is the scale path:

* **Bit-packed observation states.**  An observation index *is* its
  truth assignment (bit ``i`` of ``s`` is fact ``i``'s value,
  little-endian — the same encoding ``truth_table`` materializes), so
  a state's truth pattern over a query set is a few shifts and masks
  (:func:`pattern_indices`): support states read the answers'
  likelihood from the per-pattern table the dense update uses
  (:func:`~repro.core.answers.pattern_table`), with no ``(2**n, n)``
  bool matrix and no second likelihood formula.
* **Log-space updates.**  Posteriors are computed as
  ``exp(log prior + log likelihood - logsumexp)`` by the one log-space
  normalizer the dense fallback shares; the normalization never leaves
  log space, so no evidence product can underflow and no linear
  renormalization pass perturbs the result afterwards.
* **Sparse truncated beliefs.**  :class:`SparseBeliefState` stores only
  the observations carrying mass.  With truncation budget ``epsilon``
  it drops the smallest states whose *total* mass stays ``<= epsilon``,
  which bounds the total-variation distance to the untruncated belief
  by exactly the dropped mass (see DESIGN.md for the one-line proof).

``epsilon = 0`` is never routed here: the dense class remains the exact
reference path and its bytes (journals, checkpoints, selections) are
pinned by the equivalence suites.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Sequence

import numpy as np

from .facts import FactSet
from .observations import (
    BeliefState,
    _exp_normalized,
    check_group_size,
    check_weights,
    checked_total,
)

__all__ = [
    "SparseBeliefState",
    "default_belief_epsilon",
    "pattern_indices",
    "sparse_from_marginals",
]

def default_belief_epsilon() -> float:
    """Process-wide default for the sparse-kernel truncation budget.

    Reads ``REPRO_BELIEF_EPSILON`` so CI legs (and operators) can run
    existing entry points on the truncated kernel without threading the
    flag through every call site; unset or empty means exact dense.
    """
    raw = os.environ.get("REPRO_BELIEF_EPSILON", "").strip()
    if not raw:
        return 0.0
    value = float(raw)
    if not 0.0 <= value < 1.0:
        raise ValueError(
            f"REPRO_BELIEF_EPSILON must lie in [0, 1), got {raw!r}"
        )
    return value


def pattern_indices(
    states: np.ndarray, positions: Sequence[int]
) -> np.ndarray:
    """Compact pattern index of the selected bit positions per state.

    Output bit ``j`` is input bit ``positions[j]`` — the packed
    equivalent of ``truth_table(n)[:, positions] @ (1 << arange(q))``.
    """
    states = np.asarray(states, dtype=np.int64)
    out = np.zeros(states.shape, dtype=np.int64)
    for j, position in enumerate(positions):
        out |= ((states >> np.int64(position)) & np.int64(1)) << np.int64(j)
    return out


def _truncated(
    support: np.ndarray, values: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Drop the smallest-mass states within a total budget of ``epsilon``.

    ``values`` must be positive.  States are ranked by (probability,
    state index) ascending and the longest prefix whose cumulative mass
    stays ``<= epsilon * total`` is removed (at least one state always
    survives); the rest is renormalized.  The total-variation distance
    between the original and the truncated-renormalized distribution is
    exactly the dropped mass, hence ``<= epsilon``.
    """
    if epsilon <= 0.0 or support.size <= 1:
        return support, values
    order = np.lexsort((support, values))
    cumulative = np.cumsum(values[order])
    budget = epsilon * float(cumulative[-1])
    dropped = int(np.searchsorted(cumulative, budget, side="right"))
    dropped = min(dropped, support.size - 1)
    if dropped == 0:
        return support, values
    keep = np.ones(support.size, dtype=bool)
    keep[order[:dropped]] = False
    support = support[keep]
    values = values[keep]
    return support, values / values.sum()


class SparseBeliefState(BeliefState):
    """A belief stored as (support, probabilities) over packed states.

    Drop-in for :class:`~repro.core.observations.BeliefState` — all
    accessors work, and ``.probabilities`` materializes the dense vector
    on demand (cached) for consumers that need it.  Updates run fully in
    log space restricted to the support, then re-truncate within the
    state's ``epsilon`` budget.

    Parameters
    ----------
    facts:
        The facts this belief is about.
    probabilities:
        Dense array of ``2**n`` non-negative weights (the parent-class
        contract); normalized, sparsified and truncated on construction.
    epsilon:
        Per-update total-variation truncation budget, kept by every
        state derived from this one.
    """

    def __init__(
        self,
        facts: FactSet,
        probabilities: np.ndarray,
        epsilon: float = 0.0,
    ):
        check_group_size(len(facts))
        probabilities = np.asarray(probabilities, dtype=np.float64)
        expected = 1 << len(facts)
        if probabilities.shape != (expected,):
            raise ValueError(
                f"expected {expected} probabilities for {len(facts)} "
                f"facts, got shape {probabilities.shape}"
            )
        check_weights(probabilities)
        if not 0.0 <= epsilon < 1.0:
            raise ValueError(
                f"epsilon must lie in [0, 1), got {epsilon}"
            )
        probabilities = np.clip(probabilities, 0.0, None)
        total = checked_total(probabilities)
        support = np.flatnonzero(probabilities).astype(np.int64)
        values = probabilities[support] / total
        support, values = _truncated(support, values, float(epsilon))
        self._install(facts, support, values, float(epsilon))

    # ------------------------------------------------------------------
    # construction internals
    # ------------------------------------------------------------------

    def _install(
        self,
        facts: FactSet,
        support: np.ndarray,
        values: np.ndarray,
        epsilon: float,
    ) -> None:
        support.setflags(write=False)
        values.setflags(write=False)
        self._facts = facts
        self._support = support
        self._values = values
        self._epsilon = epsilon

    @classmethod
    def from_support(
        cls,
        facts: FactSet,
        support: np.ndarray,
        values: np.ndarray,
        epsilon: float,
    ) -> "SparseBeliefState":
        """Rebuild from an existing (support, probabilities) pair.

        Trusts the values verbatim (no renormalization, no truncation) —
        the sparse analogue of ``BeliefState.from_normalized``, used by
        checkpoint restores so serialization round-trips are bitwise
        exact.
        """
        check_group_size(len(facts))
        support = np.asarray(support, dtype=np.int64).copy()
        values = np.asarray(values, dtype=np.float64).copy()
        if support.shape != values.shape or support.ndim != 1:
            raise ValueError("support and values must be 1-d and aligned")
        if support.size == 0:
            raise ValueError("sparse belief needs a non-empty support")
        if np.any(values <= 0.0):
            raise ValueError("sparse probabilities must be positive")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if support[0] < 0 or support[-1] >= (1 << len(facts)):
            raise ValueError("support states out of range for fact set")
        state = cls.__new__(cls)
        state._install(facts, support, values, float(epsilon))
        return state

    def __reduce__(self):
        return (
            SparseBeliefState.from_support,
            (self._facts, self._support, self._values, self._epsilon),
        )

    # ------------------------------------------------------------------
    # sparse accessors
    # ------------------------------------------------------------------

    @property
    def support(self) -> np.ndarray:
        """Packed observation states carrying mass, ascending."""
        return self._support

    @property
    def sparse_probabilities(self) -> np.ndarray:
        """Probabilities aligned with :attr:`support`."""
        return self._values

    @property
    def epsilon(self) -> float:
        """The truncation budget inherited by updated states."""
        return self._epsilon

    @property
    def support_size(self) -> int:
        return int(self._support.size)

    def __getattr__(self, name: str):
        # Dense materialization is lazy: parent-class code paths that
        # read self._probs trigger it exactly once per state.
        if name != "_probs":
            raise AttributeError(name)
        dense = np.zeros(1 << len(self._facts), dtype=np.float64)
        dense[self._support] = self._values
        dense.setflags(write=False)
        self._probs = dense
        return dense

    # ------------------------------------------------------------------
    # overridden accessors (support-restricted fast paths)
    # ------------------------------------------------------------------

    @property
    def probabilities(self) -> np.ndarray:
        return self._probs

    @property
    def num_observations(self) -> int:
        return 1 << len(self._facts)

    def probability_of(self, assignment: Sequence[bool]) -> float:
        from .observations import observation_index

        state = observation_index(assignment)
        where = np.searchsorted(self._support, state)
        if where < self._support.size and self._support[where] == state:
            return float(self._values[where])
        return 0.0

    def marginal(self, fact_id: int) -> float:
        position = self._facts.position_of(fact_id)
        hit = (self._support >> np.int64(position)) & np.int64(1)
        return float(self._values[hit.astype(bool)].sum())

    def marginals(self) -> np.ndarray:
        bits = (
            (self._support[:, None] >> np.arange(len(self._facts), dtype=np.int64))
            & np.int64(1)
        ).astype(np.float64)
        return self._values @ bits

    def map_observation(self) -> int:
        return int(self._support[int(np.argmax(self._values))])

    def entropy_bits(self) -> float:
        """Shannon entropy in bits over the support (no zeros to skip)."""
        values = self._values / self._values.sum()
        return float(-(values * np.log2(values)).sum())

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def with_probabilities(self, probabilities: np.ndarray) -> "SparseBeliefState":
        return SparseBeliefState(
            self._facts, probabilities, epsilon=self._epsilon
        )

    def log_reweighted(self, log_likelihood: np.ndarray) -> "SparseBeliefState":
        """:meth:`log_posterior` of a log-likelihood with one entry per
        observation, read at the support: the update stays sparse."""
        log_likelihood = np.asarray(log_likelihood, dtype=np.float64)
        if log_likelihood.shape != (self.num_observations,):
            raise ValueError(
                "log likelihood must have one entry per observation"
            )
        return self.log_posterior(log_likelihood[self._support])

    def log_posterior(self, log_likelihood: np.ndarray) -> "SparseBeliefState":
        """Bayes update from a *support-aligned* log-likelihood vector.

        Never leaves log space until the final normalized
        exponentiation: ``posterior = exp(lp - logsumexp(lp))`` with
        ``lp = log prior + log likelihood``.  Raises ``ValueError`` when
        the likelihood is ``-inf`` everywhere on the support.
        """
        log_likelihood = np.asarray(log_likelihood, dtype=np.float64)
        if log_likelihood.shape != self._values.shape:
            raise ValueError(
                "log likelihood must have one entry per support state"
            )
        values = _exp_normalized(np.log(self._values) + log_likelihood)
        keep = values > 0.0
        support, values = _truncated(
            self._support[keep], values[keep], self._epsilon
        )
        return SparseBeliefState.from_support(
            self._facts, support, values, self._epsilon
        )

    def __repr__(self) -> str:
        return (
            f"SparseBeliefState(num_facts={self.num_facts}, "
            f"support={self.support_size}/{self.num_observations}, "
            f"epsilon={self._epsilon:g})"
        )


def sparse_from_marginals(
    facts: FactSet,
    marginals: Sequence[float],
    epsilon: float,
    on_degenerate: Callable[[], None] | None = None,
) -> SparseBeliefState:
    """Product belief from per-fact marginals, built in log space.

    The sparse counterpart of ``BeliefState.from_marginals`` (Eq. 15):
    ``log P(s) = sum_i [bit_i(s) log m_i + (1 - bit_i(s)) log (1-m_i)]``
    accumulated over packed states, so extreme marginals cannot
    underflow the product.  A fully degenerate set of marginals (zero
    mass everywhere) falls back to the exact uniform belief and invokes
    ``on_degenerate``.
    """
    check_group_size(len(facts))
    marginals = np.asarray(marginals, dtype=np.float64)
    if marginals.shape != (len(facts),):
        raise ValueError("need one marginal per fact")
    if np.any(marginals < 0) or np.any(marginals > 1):
        raise ValueError("marginals must lie in [0, 1]")
    states = np.arange(1 << len(facts), dtype=np.int64)
    log_joint = np.zeros(states.shape, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_yes = np.log(marginals)
        log_no = np.log(1.0 - marginals)
    for position in range(len(facts)):
        bit = ((states >> np.int64(position)) & np.int64(1)).astype(bool)
        log_joint += np.where(bit, log_yes[position], log_no[position])
    try:
        values = _exp_normalized(log_joint)
    except ValueError:
        warnings.warn(
            "degenerate marginals: the joint product has zero mass "
            "everywhere; falling back to the uniform belief",
            RuntimeWarning,
            stacklevel=2,
        )
        if on_degenerate is not None:
            on_degenerate()
        size = states.size
        return SparseBeliefState(
            facts, np.full(size, 1.0 / size), epsilon=epsilon
        )
    keep = values > 0.0
    support, values = _truncated(
        states[keep], values[keep], float(epsilon)
    )
    return SparseBeliefState.from_support(facts, support, values, epsilon)
