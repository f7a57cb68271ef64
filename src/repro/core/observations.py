"""Observations and belief states (paper section II-A, Table I).

For ``n`` binary facts there are ``2**n`` *observations* — mutually
exclusive joint truth assignments, exactly one of which is the ground
truth.  A *belief state* is a probability distribution over the
observation space; the whole HC framework is about sharpening this
distribution with crowdsourced answers.

Encoding
--------
Observation ``s`` (an integer in ``[0, 2**n)``) assigns ``True`` to the
fact at position ``i`` iff bit ``i`` of ``s`` is set (little-endian).
``truth_table(n)[s, i]`` materializes that bit matrix.  Equivalently,
the ``2**n`` probabilities reshaped (C order) to a ``2 x ... x 2``
tensor put the fact at position ``i`` on axis ``n - 1 - i``; groups
larger than :data:`TRUTH_TABLE_MAX_FACTS` facts evaluate their
marginals on that tensor instead of the truth table, and every
likelihood is evaluated on it (:func:`tensor_shape`).
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .facts import FactSet

#: Probabilities below this are treated as zero when normalizing and in
#: entropy sums (0 * log 0 == 0).
_EPSILON = 1e-300

#: Refuse to materialize observation spaces larger than this many facts;
#: 2**24 float64 already costs ~128 MiB.
MAX_FACTS_PER_SPACE = 24

#: Groups of at most this many facts (``2**10`` observations, every
#: group of the paper's setting) evaluate marginals and pattern
#: marginals through :func:`truth_table`, bit for bit as they always
#: have.  Larger groups contract the probability tensor over its bit
#: axes instead: ``O(2**n)`` work rather than a ``(2**n, n)`` table
#: cast to float on every call.  Below the cut the contraction's extra
#: array calls cost more than the table saves.
TRUTH_TABLE_MAX_FACTS = 10

#: The lowest this-many positions of the probability tensor stay merged
#: in its last axis (:func:`tensor_shape`), so a likelihood table
#: broadcast against the tensor runs inner loops of ``2**8`` contiguous
#: entries whichever facts it queries.  At 18 facts, broadcasting over
#: one 2-axis per fact cost 3-4x a plain ``2**18`` multiply when a low
#: position was queried; merging 8 brought it back to 1.0-1.3x
#: (measured on a 2-vCPU x86 host).
LOW_AXIS_FACTS = 8


class GroupTooLargeError(ValueError):
    """Raised when a group's ``2**n`` observation space would not fit the
    :data:`MAX_FACTS_PER_SPACE` memory cap."""


def check_group_size(num_facts: int) -> None:
    """Refuse, before anything is allocated, a group whose dense belief
    (``2**n`` float64 probabilities) passes the size cap."""
    if num_facts > MAX_FACTS_PER_SPACE:
        raise GroupTooLargeError(
            f"a group of {num_facts} facts is too large: its belief "
            f"needs 2**{num_facts} x 8 bytes = "
            f"{(8 << num_facts) >> 20:,} MiB "
            f"(limit {MAX_FACTS_PER_SPACE} facts, "
            f"{(8 << MAX_FACTS_PER_SPACE) >> 20:,} MiB)"
        )


@lru_cache(maxsize=64)
def truth_table(num_facts: int) -> np.ndarray:
    """The ``(2**n, n)`` boolean matrix of all joint truth assignments.

    Row ``s`` is observation ``s``; column ``i`` is the truth value that
    observation assigns to the fact at position ``i``.
    """
    if num_facts < 0:
        raise ValueError("num_facts must be non-negative")
    check_group_size(num_facts)
    states = np.arange(1 << num_facts, dtype=np.int64)
    bits = (states[:, None] >> np.arange(num_facts, dtype=np.int64)) & 1
    table = bits.astype(bool)
    table.setflags(write=False)
    return table


def tensor_shape(num_facts: int) -> tuple[int, ...]:
    """Shape of the probability tensor the likelihood kernels broadcast
    against: one 2-axis per position from the highest down to
    :data:`LOW_AXIS_FACTS`, then one axis over the lowest positions.
    Reshaping the ``2**n`` probabilities to it is a view."""
    low = min(num_facts, LOW_AXIS_FACTS)
    return (2,) * (num_facts - low) + (1 << low,)


def check_weights(weights: np.ndarray) -> float:
    """Refuse negative or NaN weights in one pass; returns the minimum.

    ``not min >= -1e-12`` is also true of a NaN minimum.  ``+inf``
    passes, so callers also check that the total is finite
    (:func:`checked_total`).
    """
    low = weights.min(initial=np.inf)  # empty: no weight to refuse
    if not low >= -1e-12:
        raise ValueError("probabilities must be non-negative and finite")
    return low


def checked_total(weights: np.ndarray) -> float:
    """The sum of clipped weights, refused unless finite and positive."""
    total = weights.sum()
    if not np.isfinite(total):
        raise ValueError("probabilities must be finite")
    if total <= _EPSILON:
        raise ValueError("probabilities sum to zero; belief is undefined")
    return total


def _check_state_weights(facts: FactSet, probabilities: np.ndarray) -> float:
    """Refuse a dense state's weights unless there is one per
    observation, none negative or NaN; returns the smallest."""
    expected = 1 << len(facts)
    if probabilities.shape != (expected,):
        raise ValueError(
            f"expected {expected} probabilities for {len(facts)} facts, "
            f"got shape {probabilities.shape}"
        )
    return check_weights(probabilities)


def _exp_normalized(log_weights: np.ndarray) -> np.ndarray:
    """``exp(w - logsumexp(w))``: log weights normalized without
    leaving log space, through the peak-shifted logsumexp, so no weight
    underflows before the normalization.  The one log-space normalizer
    behind every log-space update and the sparse initialization.
    ``-inf`` entries are allowed; raises ``ValueError`` when every
    entry is ``-inf``."""
    peak = float(log_weights.max())
    if not np.isfinite(peak):
        raise ValueError(
            "log likelihood is -inf everywhere the belief has mass; "
            "posterior is undefined"
        )
    log_norm = peak + float(np.log(np.exp(log_weights - peak).sum()))
    return np.exp(log_weights - log_norm)


def observation_index(values: Sequence[bool]) -> int:
    """Encode a truth assignment (position order) into an observation index."""
    index = 0
    for position, value in enumerate(values):
        if value:
            index |= 1 << position
    return index


class BeliefState:
    """A probability distribution over the observations of a fact set.

    Parameters
    ----------
    facts:
        The facts this belief is about.  ``len(facts)`` determines the
        size ``2**n`` of the observation space.
    probabilities:
        Array of ``2**n`` non-negative weights.  Normalized on
        construction; a zero-sum vector is rejected.

    Notes
    -----
    Instances are cheap value objects: update operations return new
    belief states instead of mutating in place, so selection algorithms
    can branch on hypothetical answers safely.

    Because a state never changes, its ``H(O)`` (filled by
    :func:`~repro.core.entropy.observation_entropy`) and its MAP labels
    are memoized on first use.  The memos default to ``None`` at class
    level, so reading them never reaches a subclass ``__getattr__``;
    nothing is computed in ``__init__`` (``from_normalized`` swaps the
    probabilities afterwards); and ``__getstate__`` leaves them out of
    pickles, so a state pickles to the same bytes memoized or not.
    """

    _entropy_memo: float | None = None
    _labels_memo: dict[int, bool] | None = None

    def __init__(self, facts: FactSet, probabilities: np.ndarray):
        check_group_size(len(facts))
        probabilities = np.asarray(probabilities, dtype=np.float64)
        _check_state_weights(facts, probabilities)
        probabilities = np.clip(probabilities, 0.0, None)
        probabilities /= checked_total(probabilities)
        self._adopt(facts, probabilities)

    def _adopt(self, facts: FactSet, probabilities: np.ndarray) -> None:
        """Take ``probabilities`` as this state's, unchecked and uncopied:
        the caller hands over a normalized array nothing else holds."""
        probabilities.setflags(write=False)
        self._facts = facts
        self._probs = probabilities

    @classmethod
    def _of_normalized(
        cls, facts: FactSet, probabilities: np.ndarray
    ) -> "BeliefState":
        """A state over ``probabilities`` as given, with no check, copy
        or renormalization (see :meth:`_adopt`)."""
        state = cls.__new__(cls)
        state._adopt(facts, probabilities)
        return state

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def uniform(cls, facts: FactSet) -> "BeliefState":
        """The maximum-entropy belief (used by the NO-HC baseline)."""
        check_group_size(len(facts))
        size = 1 << len(facts)
        return cls(facts, np.full(size, 1.0 / size))

    @classmethod
    def from_normalized(
        cls, facts: FactSet, probabilities: np.ndarray
    ) -> "BeliefState":
        """Rebuild from probabilities a prior belief already normalized.

        ``__init__`` renormalizes defensively, which perturbs values by
        one ulp when the stored sum is ``1 ± epsilon`` — enough to break
        bitwise reproducibility of checkpoint restores.  This
        constructor trusts the values verbatim (after the same shape /
        non-negativity / finiteness / non-degenerate checks), so
        serialization round-trips are exact.
        """
        check_group_size(len(facts))
        exact = np.array(probabilities, dtype=np.float64)
        # The total __init__ checks is that of the clipped values.
        if _check_state_weights(facts, exact) >= 0.0:
            checked_total(exact)
        else:
            checked_total(np.clip(exact, 0.0, None))
        return cls._of_normalized(facts, exact)

    @classmethod
    def from_marginals(
        cls,
        facts: FactSet,
        marginals: Sequence[float],
        on_degenerate: Callable[[], None] | None = None,
    ) -> "BeliefState":
        """Product belief from per-fact marginals ``P(f_i)`` (paper Eq. 15).

        This is how preliminary-crowd answers initialize the belief: the
        joint is the independent product of the per-fact vote fractions.

        A degenerate set of marginals (e.g. some fact with marginals
        exactly 0 *and* 1 in a contradictory pattern, or a product that
        underflows everywhere) leaves no observation with mass.  The
        fallback is the exact uniform belief — the honest
        maximum-entropy answer to "the initializer told us nothing" —
        and it is never silent: a ``RuntimeWarning`` is raised and
        ``on_degenerate`` (when given) is invoked so callers can record
        a ``degenerate_marginals`` incident.
        """
        check_group_size(len(facts))
        marginals = np.asarray(marginals, dtype=np.float64)
        if marginals.shape != (len(facts),):
            raise ValueError("need one marginal per fact")
        if np.any(marginals < 0) or np.any(marginals > 1):
            raise ValueError("marginals must lie in [0, 1]")
        table = truth_table(len(facts))
        joint = np.where(table, marginals, 1.0 - marginals).prod(axis=1)
        total = float(joint.sum())
        # `not (total > eps)` rather than `total <= eps`: NaN marginals
        # (e.g. an aggregator's 0/0) pass the range check above and must
        # land in the fallback, not propagate through the belief.
        if not total > _EPSILON:
            warnings.warn(
                "degenerate marginals: the joint product has zero mass "
                "everywhere; falling back to the uniform belief",
                RuntimeWarning,
                stacklevel=2,
            )
            if on_degenerate is not None:
                on_degenerate()
            joint = np.full(joint.size, 1.0 / joint.size)
        return cls(facts, joint)

    @classmethod
    def from_mapping(
        cls, facts: FactSet, table: Mapping[Sequence[bool], float]
    ) -> "BeliefState":
        """Belief from an explicit ``{assignment: probability}`` mapping.

        Assignments are tuples of truth values in positional order.
        Unlisted observations get probability zero.  Mirrors the paper's
        Table I presentation.
        """
        check_group_size(len(facts))
        probs = np.zeros(1 << len(facts))
        for assignment, probability in table.items():
            if len(assignment) != len(facts):
                raise ValueError("assignment length must equal fact count")
            probs[observation_index(assignment)] = probability
        return cls(facts, probs)

    @classmethod
    def point_mass(cls, facts: FactSet, assignment: Sequence[bool]) -> "BeliefState":
        """A certain belief concentrated on one observation."""
        check_group_size(len(facts))
        probs = np.zeros(1 << len(facts))
        probs[observation_index(assignment)] = 1.0
        return cls(facts, probs)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def facts(self) -> FactSet:
        return self._facts

    @property
    def probabilities(self) -> np.ndarray:
        """The normalized observation distribution (read-only view)."""
        return self._probs

    @property
    def num_facts(self) -> int:
        return len(self._facts)

    @property
    def num_observations(self) -> int:
        return self._probs.size

    def probability_of(self, assignment: Sequence[bool]) -> float:
        """``P(o)`` for an explicit truth assignment."""
        return float(self._probs[observation_index(assignment)])

    def marginal(self, fact_id: int) -> float:
        """``P(f) = sum over positive models of f`` (paper Eq. 2)."""
        position = self._facts.position_of(fact_id)
        column = truth_table(self.num_facts)[:, position]
        return float(self._probs[column].sum())

    def marginals(self) -> np.ndarray:
        """All per-fact marginals ``P(f_i)`` in positional order.

        Above :data:`TRUTH_TABLE_MAX_FACTS` facts the highest remaining
        bit axis is peeled off per step: its upper half (bit set) sums
        to that fact's marginal, and the two halves add into the
        distribution of the remaining facts — ``O(2**n)`` contiguous
        work in all, summed in a different order than the table's
        matrix product (equal to within float round-off).
        """
        num_facts = self.num_facts
        if num_facts <= TRUTH_TABLE_MAX_FACTS:
            return self._probs @ truth_table(num_facts)
        marginals = np.empty(num_facts)
        rest = self._probs
        for position in reversed(range(num_facts)):
            low, high = rest.reshape(2, -1)
            marginals[position] = high.sum()
            rest = low + high
        return marginals

    def map_observation(self) -> int:
        """Index of the most probable observation ``o*`` (paper Eq. 20)."""
        return int(np.argmax(self._probs))

    def map_assignment(self) -> np.ndarray:
        """Truth values of the MAP observation, positional order."""
        return truth_table(self.num_facts)[self.map_observation()].copy()

    def map_labels(self) -> dict[int, bool]:
        """Finalized labels ``{fact_id: truth}`` from the MAP observation
        (memoized; every call returns a fresh dict).  Read off the
        observation index's bits, so no group size builds a truth table
        for them."""
        labels = self._labels_memo
        if labels is None:
            index = self.map_observation()
            labels = self._labels_memo = {
                fact.fact_id: bool((index >> position) & 1)
                for position, fact in enumerate(self._facts)
            }
        return dict(labels)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def with_probabilities(self, probabilities: np.ndarray) -> "BeliefState":
        """A new belief over the same facts with different weights."""
        return BeliefState(self._facts, probabilities)

    def log_reweighted(self, log_likelihood: np.ndarray) -> "BeliefState":
        """Bayes update from a *log*-likelihood: one entry per
        observation, or a log
        :func:`~repro.core.answers.likelihood_table`, which broadcasts
        against :func:`tensor_shape`.

        The posterior is ``exp(lp - logsumexp(lp))`` with ``lp = log
        prior + log likelihood`` (:func:`_exp_normalized`), so it
        survives likelihoods whose linear products underflow float64 —
        the large-panel / near-0/1-accuracy regime.  The prior's log is
        taken clipped at 0, as the linear update clips its product: an
        entry ``from_normalized`` kept in (-1e-12, 0) has no mass, like
        a zero.  ``-inf`` entries (exactly-zero likelihood) are
        allowed; raises ``ValueError`` when every entry is ``-inf``
        (zero evidence, the log-space analogue of a zero-sum
        posterior).
        """
        shape = tensor_shape(self.num_facts)
        log_likelihood = np.asarray(log_likelihood, dtype=np.float64)
        if log_likelihood.shape == self._probs.shape:
            log_likelihood = log_likelihood.reshape(shape)
        elif np.broadcast_shapes(log_likelihood.shape, shape) != shape:
            raise ValueError(
                "log likelihood must have one entry per observation"
            )
        with np.errstate(divide="ignore"):
            log_prior = np.log(np.clip(self._probs, 0.0, None))
        log_posterior = log_prior.reshape(shape) + log_likelihood
        return BeliefState._of_normalized(
            self._facts, _exp_normalized(log_posterior.reshape(-1))
        )

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_entropy_memo" in state or "_labels_memo" in state:
            state = {
                key: value
                for key, value in state.items()
                if key not in ("_entropy_memo", "_labels_memo")
            }
        return state

    def __repr__(self) -> str:
        return (
            f"BeliefState(num_facts={self.num_facts}, "
            f"map={self.map_observation()})"
        )


class FactoredBelief:
    """A belief over many facts that factors into independent groups.

    The paper's evaluation forms 5-fact tasks out of single-fact tweets;
    different tasks are independent while facts inside a task are
    correlated.  This class keeps one :class:`BeliefState` per group and
    maps global fact ids to their owning group, so the conditional
    entropy of the whole data set decomposes into per-group terms.
    """

    def __init__(self, groups: Iterable[BeliefState]):
        self._groups: list[BeliefState] = list(groups)
        if not self._groups:
            raise ValueError("FactoredBelief needs at least one group")
        self._group_of: dict[int, int] = {}
        for group_index, belief in enumerate(self._groups):
            for fact in belief.facts:
                if fact.fact_id in self._group_of:
                    raise ValueError(
                        f"fact {fact.fact_id} appears in multiple groups"
                    )
                self._group_of[fact.fact_id] = group_index

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self) -> Iterator["BeliefState"]:
        return iter(self._groups)

    def __getitem__(self, group_index: int) -> BeliefState:
        return self._groups[group_index]

    @property
    def num_facts(self) -> int:
        return len(self._group_of)

    @property
    def fact_ids(self) -> list[int]:
        """All fact ids, group by group, positional order inside a group."""
        return [fact.fact_id for belief in self._groups for fact in belief.facts]

    def group_index_of(self, fact_id: int) -> int:
        """Index of the group that owns ``fact_id``."""
        return self._group_of[fact_id]

    def group_of(self, fact_id: int) -> BeliefState:
        """The group belief that owns ``fact_id``."""
        return self._groups[self._group_of[fact_id]]

    def replace_group(self, group_index: int, belief: BeliefState) -> None:
        """Swap in an updated group belief (same facts required)."""
        if belief.facts != self._groups[group_index].facts:
            raise ValueError("replacement belief must cover the same facts")
        self._groups[group_index] = belief

    def add_group(self, belief: BeliefState) -> int:
        """Append a newly formed group (mid-campaign group formation).

        The streaming runtime seals groups as their preliminary votes
        arrive, so a campaign's factored belief grows over time.  New
        groups get the next index — existing indices (and therefore any
        selector caches keyed on them) are untouched.  Returns the new
        group's index.
        """
        for fact in belief.facts:
            if fact.fact_id in self._group_of:
                raise ValueError(
                    f"fact {fact.fact_id} already belongs to group "
                    f"{self._group_of[fact.fact_id]}"
                )
        self._groups.append(belief)
        group_index = len(self._groups) - 1
        for fact in belief.facts:
            self._group_of[fact.fact_id] = group_index
        return group_index

    def marginal(self, fact_id: int) -> float:
        return self.group_of(fact_id).marginal(fact_id)

    def map_labels(self) -> dict[int, bool]:
        """Finalized labels for every fact across all groups."""
        labels: dict[int, bool] = {}
        for belief in self._groups:
            labels.update(belief.map_labels())
        return labels

    def copy(self) -> "FactoredBelief":
        """Shallow copy (belief states themselves are immutable)."""
        return FactoredBelief(self._groups)
