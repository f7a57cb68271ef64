"""Crowdsourced answers and their probabilities (paper section II-B).

This module implements Lemmas 1 and 2:

* the likelihood ``P(A_cr^T | o)`` of a single worker's answer set given an
  observation, via the consistent/inconsistent sets ``T+`` and ``T-``;
* the marginal probability ``P(A_cr^T)`` of an answer set;
* the likelihood and probability of a whole *answer family* (one answer
  set per worker, workers independent given the observation);
* exact enumeration of the answer-family space ``AS_C^T`` needed by the
  conditional-entropy objective.

The enumeration exploits two structural facts.  First, ``P(a | o)``
depends on ``o`` only through the truth values of the queried facts, so
observations collapse into ``2**|T|`` *patterns*.  Second, given a
pattern, a worker's answer-set likelihood depends only on the Hamming
distance between answers and pattern, giving a ``2**|T| x 2**|T|``
response matrix per worker; the family distribution is the pattern
marginal contracted against the per-worker response matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .facts import FactSet
from .observations import (
    TRUTH_TABLE_MAX_FACTS,
    BeliefState,
    tensor_shape,
    truth_table,
)
from .workers import Crowd, Worker

#: Default cap on the answer-family space: ``|T| * |CE|`` answer bits.
#: ``2**22`` float64 entries is ~32 MiB, a sane laptop ceiling.
MAX_FAMILY_BITS = 22


class FamilySpaceTooLarge(ValueError):
    """Raised when enumerating ``AS_C^T`` would exceed the memory guard."""


@dataclass(frozen=True)
class AnswerSet:
    """A single worker's answers to a query set (paper Definition 3).

    ``answers`` maps fact id -> boolean answer ("Yes" == ``True``).  An
    answer set is *not* a complete assignment over the fact set: facts
    outside the query set carry no information.
    """

    worker: Worker
    answers: Mapping[int, bool]

    def __post_init__(self) -> None:
        object.__setattr__(self, "answers", dict(self.answers))

    @property
    def query_fact_ids(self) -> tuple[int, ...]:
        return tuple(self.answers.keys())

    def answer_for(self, fact_id: int) -> bool:
        """The worker's answer ``A_cr^T(f)`` for a queried fact."""
        return self.answers[fact_id]

    def bits(self, query_fact_ids: Sequence[int]) -> np.ndarray:
        """Answers as a boolean vector in the given query order."""
        return np.array(
            [self.answers[fact_id] for fact_id in query_fact_ids], dtype=bool
        )


@dataclass(frozen=True)
class AnswerFamily:
    """Answer sets from every worker in a crowd for one query set."""

    answer_sets: tuple[AnswerSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "answer_sets", tuple(self.answer_sets))
        queries = {
            frozenset(answer_set.query_fact_ids)
            for answer_set in self.answer_sets
        }
        if len(queries) > 1:
            raise ValueError("all answer sets must cover the same query set")

    def __iter__(self):
        return iter(self.answer_sets)

    def __len__(self) -> int:
        return len(self.answer_sets)

    @property
    def query_fact_ids(self) -> tuple[int, ...]:
        if not self.answer_sets:
            return ()
        return self.answer_sets[0].query_fact_ids

    def votes_for(self, fact_id: int) -> list[bool]:
        """All workers' answers ``A_C^T(f)`` for one queried fact."""
        return [answer_set.answer_for(fact_id) for answer_set in self.answer_sets]


@dataclass(frozen=True)
class PartialAnswerFamily:
    """What actually came back from an unreliable crowd for one round.

    Unlike :class:`AnswerFamily` — which requires every worker to answer
    every queried fact — a partial family records only the answers that
    were received: workers may be missing entirely (no-shows) and the
    answer sets may cover different subsets of the query set (partial
    responses).  Lemma 3 still applies exactly: workers are
    conditionally independent given the observation, so conditioning on
    the responders' answers alone is the correct Bayesian update — the
    missing answers simply carry no evidence.

    Parameters
    ----------
    intended_query_fact_ids:
        The query set that was sent out.
    intended_worker_ids:
        The workers the queries were sent to.
    answer_sets:
        One :class:`AnswerSet` per *responding* worker; each may cover
        any non-empty subset of the query set.
    """

    intended_query_fact_ids: tuple[int, ...]
    intended_worker_ids: tuple[str, ...]
    answer_sets: tuple[AnswerSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "intended_query_fact_ids",
            tuple(self.intended_query_fact_ids),
        )
        object.__setattr__(
            self, "intended_worker_ids", tuple(self.intended_worker_ids)
        )
        object.__setattr__(self, "answer_sets", tuple(self.answer_sets))
        intended_facts = set(self.intended_query_fact_ids)
        intended_workers = set(self.intended_worker_ids)
        seen: set[str] = set()
        for answer_set in self.answer_sets:
            worker_id = answer_set.worker.worker_id
            if worker_id in seen:
                raise ValueError(f"duplicate answer set for {worker_id!r}")
            seen.add(worker_id)
            if worker_id not in intended_workers:
                raise ValueError(
                    f"answer set from unexpected worker {worker_id!r}"
                )
            extra = set(answer_set.query_fact_ids) - intended_facts
            if extra:
                raise ValueError(
                    f"worker {worker_id!r} answered unqueried facts "
                    f"{sorted(extra)}"
                )
            if not answer_set.answers:
                raise ValueError(
                    f"empty answer set for {worker_id!r}; omit the worker "
                    "instead"
                )

    def __iter__(self):
        return iter(self.answer_sets)

    def __len__(self) -> int:
        return len(self.answer_sets)

    @property
    def answered_worker_ids(self) -> tuple[str, ...]:
        return tuple(
            answer_set.worker.worker_id for answer_set in self.answer_sets
        )

    @property
    def missing_worker_ids(self) -> tuple[str, ...]:
        """Intended workers that returned nothing, in intended order."""
        answered = set(self.answered_worker_ids)
        return tuple(
            worker_id
            for worker_id in self.intended_worker_ids
            if worker_id not in answered
        )

    @property
    def answered_fact_ids(self) -> tuple[int, ...]:
        """Queried facts with at least one answer, in query order."""
        covered = {
            fact_id
            for answer_set in self.answer_sets
            for fact_id in answer_set.query_fact_ids
        }
        return tuple(
            fact_id
            for fact_id in self.intended_query_fact_ids
            if fact_id in covered
        )

    @property
    def num_answers(self) -> int:
        """Total individual answers received."""
        return sum(len(answer_set.answers) for answer_set in self.answer_sets)

    @property
    def is_empty(self) -> bool:
        return not self.answer_sets

    @property
    def is_complete(self) -> bool:
        """Whether every intended worker answered every queried fact."""
        if set(self.answered_worker_ids) != set(self.intended_worker_ids):
            return False
        intended = set(self.intended_query_fact_ids)
        return all(
            set(answer_set.query_fact_ids) == intended
            for answer_set in self.answer_sets
        )

    def to_family(self) -> AnswerFamily:
        """The equivalent strict :class:`AnswerFamily`.

        Raises ``ValueError`` unless the family is complete.
        """
        if not self.is_complete:
            raise ValueError(
                "partial answer family is incomplete "
                f"(missing workers {list(self.missing_worker_ids)}, "
                f"{self.num_answers} of "
                f"{len(self.intended_worker_ids) * len(self.intended_query_fact_ids)}"
                " answers)"
            )
        return AnswerFamily(answer_sets=self.answer_sets)

    @classmethod
    def from_family(cls, family: AnswerFamily) -> "PartialAnswerFamily":
        """Wrap a complete family in the partial interface."""
        return cls(
            intended_query_fact_ids=family.query_fact_ids,
            intended_worker_ids=tuple(
                answer_set.worker.worker_id for answer_set in family
            ),
            answer_sets=family.answer_sets,
        )


# ----------------------------------------------------------------------
# consistent / inconsistent sets (paper Eq. 7) and single-set likelihoods
# ----------------------------------------------------------------------


def consistent_sets(
    belief: BeliefState,
    observation_index: int,
    answer_set: AnswerSet,
) -> tuple[set[int], set[int]]:
    """The consistent set ``T+`` and inconsistent set ``T-`` (paper Eq. 7)
    of an observation and an answer set, as sets of fact ids."""
    table = truth_table(belief.num_facts)
    consistent: set[int] = set()
    inconsistent: set[int] = set()
    for fact_id, answer in answer_set.answers.items():
        position = belief.facts.position_of(fact_id)
        if bool(table[observation_index, position]) == answer:
            consistent.add(fact_id)
        else:
            inconsistent.add(fact_id)
    return consistent, inconsistent


def answer_set_likelihood(
    belief: BeliefState,
    answer_set: AnswerSet,
) -> np.ndarray:
    """Vector of ``P(A_cr^T | o)`` over all observations (paper Eq. 6).

    Entry ``s`` is ``Pr_cr ** |T+| * (1 - Pr_cr) ** |T-|`` for
    observation ``s``: :func:`likelihood_table` spread over every
    observation.
    """
    return _per_observation(belief, likelihood_table(belief, (answer_set,)))


def likelihood_table(
    belief: BeliefState,
    answer_sets: Iterable[AnswerSet],
    log: bool = False,
) -> np.ndarray:
    """``P(A | o)`` of independent answer sets to one query set (Lemma
    2), or its log, shaped to broadcast against the probability tensor
    (:func:`~repro.core.observations.tensor_shape`).

    It holds :func:`pattern_table`'s ``2**|T|`` values with a 2-axis
    for each queried position and a 1-axis for each unqueried one, down
    to the low axis, over which it is spread out.  It has at most
    ``2**|T| * 2**LOW_AXIS_FACTS`` entries, whatever the group size.
    """
    queried, table = pattern_table(belief.facts, answer_sets, log)
    num_facts = belief.num_facts
    high = len(tensor_shape(num_facts)) - 1
    axes = tuple(
        2 if position in queried else 1
        for position in reversed(range(num_facts))
    )
    # The low positions are spread out so that broadcasting the table
    # against the tensor runs along whole contiguous low-axis rows.
    spread = np.empty(axes[:high] + (2,) * (num_facts - high))
    spread[...] = table.reshape(axes)
    return spread.reshape(axes[:high] + (-1,))


def pattern_table(
    facts: FactSet,
    answer_sets: Iterable[AnswerSet],
    log: bool = False,
) -> tuple[list[int], np.ndarray]:
    """``P(A | o)`` of independent answer sets to one query set (Lemma
    2), or its log, once per truth pattern of the queried facts.

    The likelihood depends on an observation only through the queried
    facts' truth values, so ``2**|T|`` values hold all of it.  Returns
    the queried positions, ascending, and those values: bit ``i`` of a
    pattern is the truth of the ``i``-th of them, so
    :func:`~repro.core.kernel.pattern_indices` of states at those
    positions indexes the table.  This is the one implementation of the
    Lemma-2 factors; every likelihood and update reads it.

    The answer sets may list the facts in different orders.  Each
    combines its factors in its own key order, and the sets combine in
    iteration order (from 1, or 0 in log space, which changes no bit),
    so every observation gets bit for bit the value the truth-table
    formulas give it.
    """
    answer_sets = tuple(answer_sets)
    position_of = facts.position_of
    queried = sorted(
        position_of(fact_id)
        for fact_id in (answer_sets[0].query_fact_ids if answer_sets else ())
    )
    # factors[k, j, r]: the k-th factor, in key order, of answer set j
    # at pattern r.  Key-major, each reduction over axis 0 combines its
    # factors one after another, as the truth-table rows did.
    try:
        ranks = np.array(
            [
                [
                    queried.index(position_of(fact_id))
                    for fact_id in answer_set.answers
                ]
                for answer_set in answer_sets
            ],
            dtype=np.int64,
        ).reshape(len(answer_sets), len(queried)).T
    except ValueError:
        # Only a partial family's answer sets can cover different facts.
        covered = "; ".join(
            f"{answer_set.worker.worker_id}: {sorted(answer_set.answers)}"
            for answer_set in answer_sets
        )
        raise ValueError(
            "the answer sets cover different facts "
            f"({covered}); update with one answer set at a time"
        ) from None
    answers = np.array(
        [list(answer_set.answers.values()) for answer_set in answer_sets],
        dtype=bool,
    ).reshape(ranks.shape[::-1]).T
    hit = np.array(
        [answer_set.worker.accuracy for answer_set in answer_sets]
    ).reshape(-1, 1)
    miss = 1.0 - hit
    combine = np.multiply
    if log:
        with np.errstate(divide="ignore"):
            hit, miss = np.log(hit), np.log(miss)
        combine = np.add
    bits = (np.arange(1 << len(queried)) >> ranks[:, :, None]) & 1
    factors = np.where(bits == answers[:, :, None], hit, miss)
    return queried, combine.reduce(combine.reduce(factors, axis=0), axis=0)


def _per_observation(belief: BeliefState, table: np.ndarray) -> np.ndarray:
    """A :func:`likelihood_table` written out over all ``2**n``
    observations."""
    likelihood = np.empty(belief.num_observations)
    likelihood.reshape(tensor_shape(belief.num_facts))[...] = table
    return likelihood


def answer_set_probability(belief: BeliefState, answer_set: AnswerSet) -> float:
    """Marginal ``P(A_cr^T) = sum_o P(o) P(A_cr^T | o)`` (paper Eq. 8)."""
    return float(belief.probabilities @ answer_set_likelihood(belief, answer_set))


def family_likelihood(
    belief: BeliefState, family: AnswerFamily
) -> np.ndarray:
    """Vector of ``P(A_C^T | o)`` over observations.

    Workers answer independently given the observation, so the family
    likelihood is the product of the per-worker likelihoods (Lemma 2).
    """
    return _per_observation(belief, likelihood_table(belief, family))


def family_probability(belief: BeliefState, family: AnswerFamily) -> float:
    """Marginal ``P(A_C^T)`` (paper Eq. 11)."""
    return float(belief.probabilities @ family_likelihood(belief, family))


# ----------------------------------------------------------------------
# answer-family space enumeration
# ----------------------------------------------------------------------


@lru_cache(maxsize=32)
def _hamming_matrix(num_queries: int) -> np.ndarray:
    """``(2**q, 2**q)`` matrix of Hamming distances between bit patterns."""
    size = 1 << num_queries
    xor = np.arange(size)[:, None] ^ np.arange(size)[None, :]
    distances = np.zeros((size, size), dtype=np.int64)
    value = xor.copy()
    while value.any():
        distances += value & 1
        value >>= 1
    distances.setflags(write=False)
    return distances


def worker_response_matrix(num_queries: int, accuracy: float) -> np.ndarray:
    """``W[v, a] = P(answer pattern a | true pattern v)`` for one worker.

    ``W[v, a] = p**(q - d) * (1-p)**d`` with ``d`` the Hamming distance
    between ``a`` and ``v``; every row sums to 1.
    """
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy must lie in [0, 1], got {accuracy}")
    distances = _hamming_matrix(num_queries)
    # 0**0 == 1 handles the deterministic endpoints p in {0, 1}.
    with np.errstate(divide="ignore"):
        matrix = accuracy ** (num_queries - distances) * (1.0 - accuracy) ** distances
    return matrix


def pattern_marginal(
    belief: BeliefState, query_fact_ids: Sequence[int]
) -> np.ndarray:
    """Marginal ``q(v)`` of the queried facts' joint truth pattern.

    Collapses the observation distribution onto the ``2**|T|`` possible
    truth patterns of the query set; this is the only aspect of the
    belief the answer distribution depends on.  Bit ``j`` of pattern
    ``v`` is the truth of ``query_fact_ids[j]``.  Sparse beliefs collapse
    their support only, via packed-state bit gathers instead of truth
    table columns.  Dense groups above :data:`TRUTH_TABLE_MAX_FACTS`
    facts sum out the unqueried bit axes of the probability tensor,
    highest position first, in contiguous half-array adds; the sums
    associate differently from the table's ``bincount`` (equal to within
    float round-off).
    """
    _require_distinct(query_fact_ids)
    positions = [belief.facts.position_of(fact_id) for fact_id in query_fact_ids]
    if not positions:
        return np.ones(1)
    from .kernel import SparseBeliefState, pattern_indices

    if isinstance(belief, SparseBeliefState):
        return np.bincount(
            pattern_indices(belief.support, positions),
            weights=belief.sparse_probabilities,
            minlength=1 << len(positions),
        )
    num_facts = belief.num_facts
    if num_facts <= TRUTH_TABLE_MAX_FACTS:
        table = truth_table(num_facts)[:, positions]
        weights = 1 << np.arange(len(positions), dtype=np.int64)
        pattern_index = table @ weights
        return np.bincount(
            pattern_index,
            weights=belief.probabilities,
            minlength=1 << len(positions),
        )
    # (rows, 2**(p+1)) holds the kept positions above p in its rows and
    # every position up to p in its columns.
    kept = belief.probabilities.reshape(1, -1)
    queried = set(positions)
    for position in reversed(range(num_facts)):
        if position in queried:
            kept = kept.reshape(kept.shape[0] * 2, -1)
        else:
            halves = kept.reshape(kept.shape[0], 2, -1)
            kept = halves[:, 0] + halves[:, 1]
    # kept's axes are the queried positions, highest first; the result's
    # are positions[-1], ..., positions[0], so bit j is positions[j].
    descending = sorted(positions, reverse=True)
    order = [descending.index(position) for position in reversed(positions)]
    return kept.reshape((2,) * len(positions)).transpose(order).reshape(-1)


def _require_distinct(query_fact_ids: Sequence[int]) -> None:
    if len(set(query_fact_ids)) != len(query_fact_ids):
        raise ValueError(
            f"query set repeats a fact: {list(query_fact_ids)}"
        )


def crowd_single_query_responses(
    experts: Crowd, max_family_bits: int = MAX_FAMILY_BITS
) -> np.ndarray:
    """``R[v, a] = P(joint answer index a | true value v)`` for ``|T| = 1``.

    The single-query answer family of a crowd is one bit per worker;
    ``R`` is the iterated Kronecker product of the per-worker ``2 x 2``
    response matrices, shape ``(2, 2**|CE|)`` with worker 0 on the
    lowest bit of the family index.  Crucially ``R`` does not depend on
    the belief at all, so one tensor serves every fact of every group —
    this is what makes the batched first-step gain kernel
    (:func:`repro.core.entropy.first_step_gains`) a single matmul per
    group.

    Raises
    ------
    FamilySpaceTooLarge
        If ``|CE| > max_family_bits`` (one query bit per worker).
    """
    num_workers = len(experts)
    if num_workers > max_family_bits:
        raise FamilySpaceTooLarge(
            f"single-query family space needs {num_workers} bits "
            f"(> limit {max_family_bits})"
        )
    return _cached_single_query_responses(
        tuple(worker.accuracy for worker in experts)
    )


@lru_cache(maxsize=64)
def _cached_single_query_responses(accuracies: tuple[float, ...]) -> np.ndarray:
    """Memoized body of :func:`crowd_single_query_responses`.

    Keyed on the accuracy tuple alone (worker identities are irrelevant
    to the response tensor), so re-selecting with an unchanged panel —
    the common case inside one checking round batch — reuses the tensor
    instead of re-running the Kronecker build per group.
    """
    tensor = np.ones((2, 1))
    for accuracy in accuracies:
        response = worker_response_matrix(1, accuracy)
        tensor = (tensor[:, :, None] * response[:, None, :]).reshape(2, -1)
    tensor.setflags(write=False)
    return tensor


def family_distribution(
    belief: BeliefState,
    query_fact_ids: Sequence[int],
    experts: Crowd,
    max_family_bits: int = MAX_FAMILY_BITS,
) -> np.ndarray:
    """The full distribution over the answer-family space ``AS_CE^T``.

    Returns a flat array of ``2**(|T| * |CE|)`` probabilities.  Family
    index layout: worker 0's answer pattern occupies the lowest ``|T|``
    bits via the *first* (fastest-varying) axis, i.e. the returned array
    is the flattened ``(A_0, A_1, ..)`` tensor in C order with worker 0
    as the last axis after contraction; callers should treat the layout
    as opaque and only rely on the multiset of probabilities.

    Raises
    ------
    FamilySpaceTooLarge
        If ``|T| * |CE| > max_family_bits``.
    """
    _require_distinct(query_fact_ids)
    num_queries = len(query_fact_ids)
    if len(experts) == 0 or num_queries == 0:
        return np.ones(1)  # single empty family, probability 1
    total_bits = num_queries * len(experts)
    if total_bits > max_family_bits:
        raise FamilySpaceTooLarge(
            f"answer family space needs {total_bits} bits "
            f"(> limit {max_family_bits})"
        )
    if len(experts) > len(_WORKER_AXES):
        raise FamilySpaceTooLarge(
            f"more than {len(_WORKER_AXES)} expert workers are not "
            "supported by exact family enumeration"
        )
    marginal = pattern_marginal(belief, query_fact_ids)
    responses = [
        worker_response_matrix(num_queries, worker.accuracy)
        for worker in experts
    ]
    subscripts, path = _family_contraction(num_queries, len(experts))
    tensor = np.einsum(subscripts, marginal, *responses, optimize=path)
    return tensor.reshape(-1)


_WORKER_AXES = "abcdefghijklmnopqrstuvwxyz"


@lru_cache(maxsize=64)
def _family_contraction(num_queries: int, num_workers: int) -> tuple[str, list]:
    """The einsum of :func:`family_distribution` for one ``(|T|, |CE|)``
    shape: its subscripts and its greedy contraction path, planned once.

    ``P(a_1..a_J) = sum_v q(v) prod_j W_j[v, a_j]``: a pattern axis
    ``A`` plus one output axis per worker.  The greedy path turns the
    two-worker case into a plain matmul, avoiding the (patterns x
    families) intermediate a naive loop would build; it is the path
    ``optimize=True`` would plan on every call, so the result is the
    same bits.  Planning reads only shapes, so it runs on zero-stride
    stand-ins.
    """
    axes = _WORKER_AXES[:num_workers]
    subscripts = "A," + ",".join(f"A{axis}" for axis in axes) + "->" + axes
    size = 1 << num_queries
    operands = [np.broadcast_to(0.0, (size,))] + [
        np.broadcast_to(0.0, (size, size))
    ] * num_workers
    path, _ = np.einsum_path(subscripts, *operands, optimize="greedy")
    return subscripts, path


def enumerate_answer_families(
    query_fact_ids: Sequence[int], experts: Crowd
) -> Iterable[AnswerFamily]:
    """Yield every concrete :class:`AnswerFamily` in ``AS_CE^T``.

    Exponential in ``|T| * |CE|``; intended for tests and the naive
    cross-check implementations, not the optimized selectors.
    """
    num_queries = len(query_fact_ids)
    num_patterns = 1 << num_queries
    workers = list(experts)

    def pattern_to_answers(pattern: int) -> dict[int, bool]:
        return {
            fact_id: bool((pattern >> position) & 1)
            for position, fact_id in enumerate(query_fact_ids)
        }

    total = num_patterns ** len(workers)
    for family_index in range(total):
        remaining = family_index
        answer_sets = []
        for worker in workers:
            pattern = remaining % num_patterns
            remaining //= num_patterns
            answer_sets.append(
                AnswerSet(worker=worker, answers=pattern_to_answers(pattern))
            )
        yield AnswerFamily(answer_sets=tuple(answer_sets))
