"""Checking-task selection (paper section III-B/C).

Selecting the size-``k`` query set that maximizes expected quality
improvement is equivalent to minimizing the conditional entropy
``H(O | AS_CE^T)`` (Theorem 2) and is NP-hard (Theorem 3).  This module
provides:

* :class:`ExactSelector` — brute-force **OPT** over all size-``k``
  subsets (with an optional wall-clock deadline, used to reproduce the
  "timeout" rows of Table III);
* :class:`GreedySelector` — the paper's Algorithm 2 **Approx**,
  a (1 - 1/e)-approximation that adds the fact with the largest
  marginal entropy-reduction gain until ``k`` facts are chosen or no
  fact has a positive gain;
* :class:`LazyGreedySelector` — the same selections via CELF lazy
  evaluation (licensed by the gain's monotone submodularity, Theorems
  1–3) seeded from batch-vectorized first-step gains; the default
  engine of the online/resilient runtimes;
* :class:`RandomSelector` — the **Random** baseline of section IV-C3;
* :class:`MaxMarginalEntropySelector` — the trivial rule from related
  work ([41]): pick the facts whose marginal ``P(f)`` is most
  uncertain, ignoring correlations and the expert answer model;
* :class:`FactoredExactSelector` — an extension beyond the paper: an
  exact selector that exploits the group decomposition with dynamic
  programming over per-group allocations, exponential only within
  groups instead of across the whole fact set.

All selectors work on a :class:`~repro.core.observations.FactoredBelief`.
Because groups are independent, the global conditional entropy
decomposes as ``H(O|AS^T) = sum_g H(O_g | AS^{T ∩ F_g})``, so every
selector only ever evaluates per-group entropies.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .answers import FamilySpaceTooLarge
from .entropy import (
    binary_entropy,
    conditional_entropy,
    first_step_gains_many,
    observation_entropy,
)
from .observations import BeliefState, FactoredBelief
from .workers import Crowd


class SelectionTimeout(RuntimeError):
    """Raised when a selector exceeds its wall-clock deadline."""


@dataclass
class SelectionStats:
    """Work counters of a selector, for benchmarks and regression tests.

    ``entropy_evaluations`` counts *scalar* conditional-entropy kernel
    invocations (cache misses), ``prior_evaluations`` counts ``H(O)``
    computations, ``batch_evaluations`` counts vectorized whole-group
    first-step kernels (``batch_facts`` facts covered by them in total),
    ``sampled_evaluations`` counts Monte Carlo estimator calls, and
    ``heap_pops`` counts lazy-heap pops.  Counters accumulate across
    rounds; call :meth:`reset` between measurements.
    """

    entropy_evaluations: int = 0
    prior_evaluations: int = 0
    batch_evaluations: int = 0
    batch_facts: int = 0
    sampled_evaluations: int = 0
    heap_pops: int = 0
    rounds: int = 0

    @property
    def total_evaluations(self) -> int:
        """Every entropy-kernel invocation, scalar or batched."""
        return (
            self.entropy_evaluations
            + self.prior_evaluations
            + self.batch_evaluations
            + self.sampled_evaluations
        )

    def reset(self) -> None:
        self.entropy_evaluations = 0
        self.prior_evaluations = 0
        self.batch_evaluations = 0
        self.batch_facts = 0
        self.sampled_evaluations = 0
        self.heap_pops = 0
        self.rounds = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "entropy_evaluations": self.entropy_evaluations,
            "prior_evaluations": self.prior_evaluations,
            "batch_evaluations": self.batch_evaluations,
            "batch_facts": self.batch_facts,
            "sampled_evaluations": self.sampled_evaluations,
            "heap_pops": self.heap_pops,
            "rounds": self.rounds,
            "total_evaluations": self.total_evaluations,
        }


class Selector(ABC):
    """Strategy interface: pick up to ``k`` checking tasks."""

    #: Human-readable name used in experiment reports.
    name: str = "base"

    @abstractmethod
    def select(
        self, belief: FactoredBelief, experts: Crowd, k: int
    ) -> list[int]:
        """Return up to ``k`` fact ids to send to the expert crowd.

        May return fewer than ``k`` ids (or none) when no candidate
        offers positive expected quality gain.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class _GroupEntropyCache:
    """Caches per-group conditional entropies across selection passes.

    Keyed on the group's immutable :class:`BeliefState` identity (and,
    for conditional entries, the expert crowd), so a stateful selector
    can carry the cache across rounds and only pay for groups whose
    belief actually changed — while a changed crowd (e.g. a trust
    quarantine) correctly invalidates every conditional entry.

    Entries computed against a superseded state are evicted the first
    time the group is written under its new state (and eagerly via
    :meth:`invalidate_group`): conditional entries live in one
    per-group sub-dict that is dropped wholesale on a state change, so
    a long campaign never pins the old ``2**n`` probability arrays of
    every past round — the cache stays bounded by the *current* states.
    """

    def __init__(self, stats: SelectionStats | None = None) -> None:
        self.stats = stats if stats is not None else SelectionStats()
        self._prior: dict[int, tuple[BeliefState, float]] = {}
        self._conditional: dict[
            int, tuple[BeliefState, Crowd, dict[frozenset[int], float]]
        ] = {}

    def prior(self, group_index: int, state: BeliefState) -> float:
        cached = self._prior.get(group_index)
        if cached is not None and cached[0] is state:
            return cached[1]
        value = observation_entropy(state)
        self.stats.prior_evaluations += 1
        self._prior[group_index] = (state, value)
        return value

    def conditional(
        self,
        group_index: int,
        state: BeliefState,
        query_fact_ids: frozenset[int],
        experts: Crowd,
    ) -> float:
        if not query_fact_ids:
            return self.prior(group_index, state)
        cached = self._conditional.get(group_index)
        if cached is None or cached[0] is not state or not (
            cached[1] is experts or cached[1] == experts
        ):
            values: dict[frozenset[int], float] = {}
            self._conditional[group_index] = (state, experts, values)
        else:
            values = cached[2]
            if query_fact_ids in values:
                return values[query_fact_ids]
        value = conditional_entropy(
            state,
            sorted(query_fact_ids),
            experts,
            prior_entropy=self.prior(group_index, state),
        )
        self.stats.entropy_evaluations += 1
        values[query_fact_ids] = value
        return value

    def invalidate_group(self, group_index: int) -> None:
        """Drop everything cached for one group (e.g. after its belief
        was updated), releasing the superseded state immediately."""
        self._prior.pop(group_index, None)
        self._conditional.pop(group_index, None)

    @property
    def num_entries(self) -> int:
        """Total cached values (prior + conditional), for bound tests."""
        return len(self._prior) + sum(
            len(entry[-1]) for entry in self._conditional.values()
        )


class GreedySelector(Selector):
    """Paper Algorithm 2: iterative greedy with early stop on zero gain.

    The gain of adding fact ``f`` to the current query set ``T`` is
    ``gain^T(f) = H(O|AS^T) - H(O|AS^{T ∪ {f}})`` (Eq. 35), which by
    the group decomposition only involves ``f``'s own group.  Time
    complexity is ``O(N k)`` entropy evaluations for ``N`` candidates.

    The selector keeps a cache of single-fact gains keyed on each
    group's (immutable) belief object: across checking rounds only the
    groups actually updated by the previous round are re-evaluated,
    which turns the per-round cost from ``O(N)`` into ``O(changed)``
    without changing any selected set.
    """

    name = "Approx"

    def __init__(self, gain_tolerance: float = 1e-12):
        #: Gains at or below this are treated as zero (greedy stops).
        self.gain_tolerance = gain_tolerance
        #: Work counters (shared with the entropy cache).
        self.stats = SelectionStats()
        self._cache = _GroupEntropyCache(self.stats)
        # group_index -> (state and crowd computed against,
        # {fact_id: gain}); the whole sub-dict is dropped when either is
        # superseded, so old probability arrays are never pinned across
        # rounds and a changed crowd never serves stale gains.
        self._first_step_gain: dict[
            int, tuple[BeliefState, Crowd, dict[int, float]]
        ] = {}

    def invalidate_groups(self, group_indices: Iterable[int]) -> None:
        """Explicitly drop cached entropies/gains of updated groups.

        Correctness never requires this — caches are keyed on belief
        *identity* — but calling it right after a belief update releases
        the superseded states immediately instead of at the next
        selection pass.
        """
        for group_index in group_indices:
            self._cache.invalidate_group(group_index)
            self._first_step_gain.pop(group_index, None)

    @property
    def cache_entries(self) -> int:
        """Total cached values, for memory-bound regression tests."""
        return self._cache.num_entries + sum(
            len(entry[-1]) for entry in self._first_step_gain.values()
        )

    def _single_fact_gain(
        self, belief: FactoredBelief, experts: Crowd, fact_id: int
    ) -> float:
        """Gain of ``{f}`` over the empty set, cached per belief state."""
        group_index = belief.group_index_of(fact_id)
        state = belief[group_index]
        cached = self._first_step_gain.get(group_index)
        if cached is None or cached[0] is not state or not (
            cached[1] is experts or cached[1] == experts
        ):
            gains: dict[int, float] = {}
            self._first_step_gain[group_index] = (state, experts, gains)
        else:
            gains = cached[2]
            if fact_id in gains:
                return gains[fact_id]
        prior = self._cache.prior(group_index, state)
        conditional = self._cache.conditional(
            group_index, state, frozenset((fact_id,)), experts
        )
        gain = prior - conditional
        gains[fact_id] = gain
        return gain

    def select(
        self, belief: FactoredBelief, experts: Crowd, k: int
    ) -> list[int]:
        return [fact_id for fact_id, _gain in
                self.select_with_gains(belief, experts, k)]

    def select_with_gains(
        self, belief: FactoredBelief, experts: Crowd, k: int
    ) -> list[tuple[int, float]]:
        """Like :meth:`select` but also return each pick's marginal gain.

        The gain sequence is non-increasing (submodularity).
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        self.stats.rounds += 1
        selected: list[tuple[int, float]] = []
        group_queries: dict[int, list[int]] = {}
        # Sorted iteration + strict ">" makes equal-gain ties break on
        # the lowest fact id, independent of hash randomization.
        candidates = sorted(belief.fact_ids)

        while len(selected) < k and candidates:
            best_fact: int | None = None
            best_gain = self.gain_tolerance
            for fact_id in candidates:
                group_index = belief.group_index_of(fact_id)
                queries = group_queries.get(group_index)
                if not queries:
                    gain = self._single_fact_gain(belief, experts, fact_id)
                else:
                    state = belief[group_index]
                    try:
                        current = self._cache.conditional(
                            group_index, state, frozenset(queries), experts
                        )
                        with_fact = self._cache.conditional(
                            group_index,
                            state,
                            frozenset(queries) | {fact_id},
                            experts,
                        )
                    except FamilySpaceTooLarge:
                        # Stacking another query on this group would make
                        # the answer-family space unenumerable (huge CE);
                        # treat the candidate as infeasible this round —
                        # the greedy then spreads across groups instead.
                        continue
                    gain = current - with_fact
                if gain > best_gain:
                    best_fact = fact_id
                    best_gain = gain
            if best_fact is None:
                break  # no fact offers positive gain (Algorithm 2 line 4)
            selected.append((best_fact, best_gain))
            candidates.remove(best_fact)
            group_index = belief.group_index_of(best_fact)
            group_queries.setdefault(group_index, []).append(best_fact)
        return selected


class LazyGreedySelector(Selector):
    """CELF lazy greedy: Algorithm 2's selections at a fraction of the cost.

    Produces exactly the same query sets as :class:`GreedySelector`
    (same gain function, same ``gain_tolerance`` stop rule, same
    lowest-fact-id tie-breaking) but avoids the eager ``O(N k)``
    per-round gain scan with three machines:

    * **Lazy evaluation (CELF).**  Candidate gains live in a max-heap of
      *stale upper bounds*.  The gain of adding ``f`` only depends on
      ``f``'s own group's query set, and within a group the gain
      function is monotone submodular (paper Theorems 1–3), so a gain
      computed against an earlier, smaller query set upper-bounds the
      current gain.  A popped entry whose bound is stale is re-evaluated
      and pushed back; a popped entry whose bound is *fresh* is the true
      argmax and is selected without touching the other ``N - 1``
      candidates.
    * **Batched first-step gains.**  The heap is seeded with the gains
      of every singleton query set, computed one whole group at a time
      by :func:`repro.core.entropy.first_step_gains` — a single matmul
      against the crowd's shared single-query response tensor instead of
      per-fact family enumerations.
    * **One heap across rounds.**  The heap outlives the round.  A group
      the round did not query keeps its seed entries, which are still
      its exact first-step gains, so the next round pushes seeds only
      for groups whose state or crowd changed and for the groups the
      round queried, which are *retired* when it ends (their entries
      were popped or re-evaluated against a non-empty query set).  Each
      entry carries its group's seed epoch; a popped entry whose epoch
      is not its group's current one is dropped uncounted (lazy
      deletion), and when such dead entries outnumber the live ones the
      heap is compacted by one filter and a ``heapify``.  A cold
      selector (first round, new crowd, every group retired) builds
      each entry once and heapifies once.

    The first-step gain vectors are cached per group keyed on belief
    identity, so a retired group whose state did not change (a partial
    round without answers for it, an abandoned round, a repeated
    ``select``) is re-seeded without kernel work: a round costs
    ``O(changed)`` kernel work and heap pushes.  Superseded states are
    evicted on write, keeping memory bounded by the current belief.
    :meth:`invalidate_groups` releases updated groups' entries eagerly —
    the online sessions call it after every belief update.
    """

    name = "Approx-Lazy"

    def __init__(self, gain_tolerance: float = 1e-12):
        #: Gains at or below this are treated as zero (greedy stops).
        self.gain_tolerance = gain_tolerance
        #: Work counters (heap pops, kernel invocations).
        self.stats = SelectionStats()
        self._cache = _GroupEntropyCache(self.stats)
        # group_index -> (state and crowd computed against, per-fact
        # gain vector, number of its gains above the tolerance);
        # superseded entries are replaced on write.
        self._first_gains: dict[
            int, tuple[BeliefState, Crowd, np.ndarray, int]
        ] = {}
        # The CELF heap, kept across rounds, and the crowd its bounds
        # were computed for.  Entries are (-gain, fact_id,
        # bound_version, group_index, epoch).
        self._heap: list[tuple[float, int, int, int, int]] = []
        self._heap_experts: Crowd | None = None
        # Per group index, the state whose seeds are live in the heap
        # (None once retired), and group_index -> the epoch its live
        # entries carry.  Between rounds the heap holds ``_live`` live
        # entries: the seed counts of the groups in ``_epochs``.
        self._seeded: list[BeliefState | None] = []
        self._epochs: dict[int, int] = {}
        self._live = 0
        self._epoch = 0

    def invalidate_groups(self, group_indices: Iterable[int]) -> None:
        """Explicitly drop cached entropies/gains of updated groups."""
        for group_index in group_indices:
            self._retire(group_index)
            self._cache.invalidate_group(group_index)
            self._first_gains.pop(group_index, None)

    @property
    def cache_entries(self) -> int:
        """Total cached values, for memory-bound regression tests."""
        return self._cache.num_entries + sum(
            entry[2].size for entry in self._first_gains.values()
        )

    def _retire(self, group_index: int) -> None:
        """Mark a group's heap entries dead; the next round re-seeds it."""
        if self._epochs.pop(group_index, None) is not None:
            self._live -= self._first_gains[group_index][3]
            self._seeded[group_index] = None

    def _seed_heap(
        self, belief: FactoredBelief, experts: Crowd
    ) -> list[tuple[float, int, int, int, int]]:
        """Bring the persistent CELF heap up to date for a new round.

        A crowd other than the heap's empties it.  Groups past the end
        of ``belief`` are retired, and so is every group seeded from a
        state other than its current one.  Once dead entries outnumber
        live ones the heap is compacted, before this round's pushes.
        Then every group without live seeds gets its positive first-step
        gains pushed under a new epoch (:meth:`_push_seeds`).
        """
        heap, seeded, epochs = self._heap, self._seeded, self._epochs
        if self._heap_experts is not experts and self._heap_experts != experts:
            heap.clear()
            seeded.clear()
            epochs.clear()
            self._live = 0
            self._heap_experts = experts
        num_groups = len(belief)
        for group_index in range(num_groups, len(seeded)):
            self._retire(group_index)
        del seeded[num_groups:]
        seeded.extend([None] * (num_groups - len(seeded)))
        changed = list(itertools.compress(
            itertools.count(), map(operator.is_not, seeded, belief)
        ))
        for group_index in changed:
            if seeded[group_index] is not None:
                self._retire(group_index)
        if len(heap) > 2 * self._live:
            heap[:] = [
                entry for entry in heap if epochs.get(entry[3]) == entry[4]
            ]
            heapq.heapify(heap)
        if changed:
            self._push_seeds(belief, experts, changed)
        return heap

    def _push_seeds(
        self, belief: FactoredBelief, experts: Crowd, changed: list[int]
    ) -> None:
        """Push the positive first-step gains of the ``changed`` groups.

        A group's cached gain vector is reused when it matches the state
        and crowd.  Every other group is evaluated through one stacked
        :func:`~repro.core.entropy.first_step_gains_many` call — a
        single cross-group matmul against the shared crowd response
        tensor, bitwise identical to evaluating each group separately
        (see the kernel's docstring); the stats counters still tick once
        per group so work accounting is unchanged.  Into an empty heap
        the entries go by one ``heapify``, otherwise one push each.
        Live entries are totally ordered (fact ids are unique), so the
        pop sequence does not depend on the order they were pushed in.
        """
        first_gains = self._first_gains
        ready: list[tuple[int, BeliefState, np.ndarray]] = []
        stale: list[tuple[int, BeliefState]] = []
        for group_index in changed:
            state = belief[group_index]
            cached = first_gains.get(group_index)
            if cached is not None and cached[0] is state and (
                cached[1] is experts or cached[1] == experts
            ):
                ready.append((group_index, state, cached[2]))
            else:
                stale.append((group_index, state))
        if stale:
            priors = [
                self._cache.prior(group_index, state)
                for group_index, state in stale
            ]
            batched = first_step_gains_many(
                [state for _index, state in stale], experts,
                prior_entropies=priors,
            )
            for (group_index, state), gains in zip(stale, batched):
                self.stats.batch_evaluations += 1
                self.stats.batch_facts += gains.size
                ready.append((group_index, state, gains))
        heap, seeded, epochs = self._heap, self._seeded, self._epochs
        cold = not heap
        pushed = heap if cold else []
        self._epoch += 1
        epoch = self._epoch
        tolerance = self.gain_tolerance
        for group_index, state, gains in ready:
            seeds = [
                (-float(gain), fact.fact_id, 0, group_index, epoch)
                for fact, gain in zip(state.facts, gains)
                if gain > tolerance
            ]
            first_gains[group_index] = (state, experts, gains, len(seeds))
            seeded[group_index] = state
            epochs[group_index] = epoch
            self._live += len(seeds)
            pushed.extend(seeds)
        if cold:
            heapq.heapify(heap)
        else:
            for entry in pushed:
                heapq.heappush(heap, entry)

    def select(
        self, belief: FactoredBelief, experts: Crowd, k: int
    ) -> list[int]:
        return [fact_id for fact_id, _gain in
                self.select_with_gains(belief, experts, k)]

    def select_with_gains(
        self, belief: FactoredBelief, experts: Crowd, k: int
    ) -> list[tuple[int, float]]:
        """Like :meth:`select` but also return each pick's marginal gain.

        A fresh heap pop *is* the argmax, so its bound is the exact gain
        of the pick; the resulting gain sequence is non-increasing
        (submodularity).
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        self.stats.rounds += 1
        # Heap entries are (-gain, fact_id, bound_version, group_index,
        # epoch); fact_id second makes equal-gain ties pop the lowest id
        # first, matching the eager greedy's deterministic tie-breaking.
        # The bound_version is the size of the group's query set the
        # gain was computed against: the entry is fresh iff it still
        # matches.
        heap = self._seed_heap(belief, experts)
        epochs = self._epochs
        selected: list[tuple[int, float]] = []
        group_queries: dict[int, list[int]] = {}
        try:
            while len(selected) < k and heap:
                neg_gain, fact_id, version, group_index, epoch = (
                    heapq.heappop(heap)
                )
                if epochs.get(group_index) != epoch:
                    continue  # a retired group's entry
                self.stats.heap_pops += 1
                queries = group_queries.get(group_index, [])
                if version == len(queries):
                    # Fresh bound: by submodularity every other entry's
                    # bound dominates its true gain, so this is the
                    # argmax.
                    selected.append((fact_id, -neg_gain))
                    group_queries.setdefault(group_index, []).append(fact_id)
                    continue
                state = belief[group_index]
                try:
                    current = self._cache.conditional(
                        group_index, state, frozenset(queries), experts
                    )
                    with_fact = self._cache.conditional(
                        group_index, state, frozenset(queries) | {fact_id},
                        experts,
                    )
                except FamilySpaceTooLarge:
                    # Stacking another query on this group is
                    # unenumerable; the group's query set only grows
                    # within a round, so the candidate stays infeasible
                    # — drop it (the eager greedy skips it on every
                    # remaining iteration too).
                    continue
                gain = current - with_fact
                if gain > self.gain_tolerance:
                    heapq.heappush(
                        heap,
                        (-gain, fact_id, len(queries), group_index, epoch),
                    )
        finally:
            # Only queried groups had entries popped or re-pushed against
            # a non-empty query set; every other live entry is still a
            # first-step bound for the next round.
            for group_index in group_queries:
                self._retire(group_index)
        return selected


class SampledGreedySelector(Selector):
    """Greedy selection with Monte Carlo conditional entropies.

    For very large checking crowds the answer-family space cannot be
    enumerated, so the exact greedy must skip within-group stacking
    (see :class:`GreedySelector`).  This variant estimates
    ``H(O | AS^T)`` by sampling answer families instead
    (:func:`repro.core.entropy.conditional_entropy_sampled`), making the
    full objective available at any crowd size — at the price of
    estimator noise and per-candidate sampling cost.

    Within one selection round every entropy estimate is cached per
    ``(group, query set)`` — in particular the *current* group entropy
    is estimated once and reused for every candidate of the group, so a
    gain never compares two independently-noisy estimates of the same
    quantity (which produced phantom gains above ``gain_tolerance`` and
    ``O(N)`` redundant sampling per round).  All estimates within a
    round also share one random seed (common random numbers), so both
    the with/without difference and cross-candidate comparisons reuse
    the same draws as far as the query sets allow and subtract
    correlated noise instead of adding independent noise.

    Parameters
    ----------
    num_samples:
        Sampled families per entropy evaluation.
    rng:
        Seed for the sampler.
    gain_tolerance:
        Gains at or below this are treated as zero; should exceed the
        estimator's noise floor to avoid chasing phantom gains.
    """

    name = "Approx-MC"

    def __init__(
        self,
        num_samples: int = 500,
        rng: np.random.Generator | int | None = None,
        gain_tolerance: float = 1e-3,
    ):
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        self.num_samples = num_samples
        self.gain_tolerance = gain_tolerance
        self._rng = np.random.default_rng(rng)
        #: Work counters (``sampled_evaluations`` counts MC estimates).
        self.stats = SelectionStats()

    def select(
        self, belief: FactoredBelief, experts: Crowd, k: int
    ) -> list[int]:
        from .entropy import conditional_entropy_sampled

        if k < 0:
            raise ValueError("k must be non-negative")
        self.stats.rounds += 1
        selected: list[int] = []
        group_queries: dict[int, list[int]] = {}
        candidates = sorted(belief.fact_ids)
        # One seed per round: every estimate of the round shares the
        # same draws (common random numbers), so both the with/without
        # difference and cross-candidate comparisons subtract correlated
        # noise; cached per (group, query set) so each entropy is
        # estimated exactly once per round.
        round_seed = int(self._rng.integers(0, 2**63))
        entropy_cache: dict[tuple[int, frozenset[int]], float] = {}

        def entropy_of(group_index: int, queries: Sequence[int]) -> float:
            key = (group_index, frozenset(queries))
            if key in entropy_cache:
                return entropy_cache[key]
            state = belief[group_index]
            if not queries:
                value = observation_entropy(state)
                self.stats.prior_evaluations += 1
            else:
                value = conditional_entropy_sampled(
                    state, sorted(queries), experts,
                    num_samples=self.num_samples,
                    rng=np.random.default_rng(round_seed),
                )
                self.stats.sampled_evaluations += 1
            entropy_cache[key] = value
            return value

        while len(selected) < k and candidates:
            best_fact: int | None = None
            best_gain = self.gain_tolerance
            for fact_id in candidates:
                group_index = belief.group_index_of(fact_id)
                queries = group_queries.get(group_index, [])
                current = entropy_of(group_index, queries)
                with_fact = entropy_of(group_index, queries + [fact_id])
                gain = current - with_fact
                if gain > best_gain:
                    best_fact = fact_id
                    best_gain = gain
            if best_fact is None:
                break
            selected.append(best_fact)
            candidates.remove(best_fact)
            group_index = belief.group_index_of(best_fact)
            group_queries.setdefault(group_index, []).append(best_fact)
        return selected


class ExactSelector(Selector):
    """Brute-force **OPT**: evaluate every size-``k`` subset.

    Caches per-group subset entropies, but the subset enumeration is
    ``O(C(N, k))`` and grows exponentially in ``k`` — exactly the
    behaviour Table III of the paper demonstrates.

    Parameters
    ----------
    max_subsets:
        Safety valve: raise :class:`RuntimeError` if the enumeration
        would exceed this many subsets.
    deadline_seconds:
        Optional wall-clock limit; :class:`SelectionTimeout` is raised
        when exceeded (used by the Table III harness).
    """

    name = "OPT"

    def __init__(
        self,
        max_subsets: int | None = 20_000_000,
        deadline_seconds: float | None = None,
    ):
        self.max_subsets = max_subsets
        self.deadline_seconds = deadline_seconds
        self._cache = _GroupEntropyCache()

    def select(
        self, belief: FactoredBelief, experts: Crowd, k: int
    ) -> list[int]:
        if k < 0:
            raise ValueError("k must be non-negative")
        fact_ids = belief.fact_ids
        k = min(k, len(fact_ids))
        if k == 0:
            return []
        if self.max_subsets is not None and comb(len(fact_ids), k) > self.max_subsets:
            raise RuntimeError(
                f"OPT would enumerate C({len(fact_ids)}, {k}) subsets "
                f"(> limit {self.max_subsets})"
            )
        deadline = (
            time.monotonic() + self.deadline_seconds
            if self.deadline_seconds is not None
            else None
        )

        best_subset: tuple[int, ...] | None = None
        best_objective = float("inf")
        for count, subset in enumerate(itertools.combinations(fact_ids, k)):
            if deadline is not None and count % 64 == 0:
                if time.monotonic() > deadline:
                    raise SelectionTimeout(
                        f"OPT exceeded {self.deadline_seconds}s at "
                        f"subset {count} of C({len(fact_ids)}, {k})"
                    )
            per_group: dict[int, set[int]] = {}
            for fact_id in subset:
                per_group.setdefault(
                    belief.group_index_of(fact_id), set()
                ).add(fact_id)
            # Objective differs from the prior total only on the touched
            # groups; compare by the (negative) total gain.
            objective = 0.0
            try:
                for group_index, queries in per_group.items():
                    state = belief[group_index]
                    objective -= self._cache.prior(group_index, state)
                    objective += self._cache.conditional(
                        group_index, state, frozenset(queries), experts
                    )
            except FamilySpaceTooLarge:
                continue  # unenumerable subset: skip as infeasible
            if objective < best_objective - 1e-15:
                best_objective = objective
                best_subset = subset
        assert best_subset is not None
        return list(best_subset)


class FactoredExactSelector(Selector):
    """Exact selection via dynamic programming over groups (extension).

    Not in the paper: because the conditional entropy decomposes over
    independent groups, the optimal size-``k`` set is an optimal
    *allocation* of per-group subset sizes.  For each group we compute
    the best subset of every size ``0..k`` (exponential only within the
    group), then a knapsack-style DP picks the allocation maximizing
    total gain.  Returns the same objective value as
    :class:`ExactSelector` while scaling to large fact sets.
    """

    name = "OPT-DP"

    def __init__(self) -> None:
        self._cache = _GroupEntropyCache()

    def select(
        self, belief: FactoredBelief, experts: Crowd, k: int
    ) -> list[int]:
        if k < 0:
            raise ValueError("k must be non-negative")
        if k == 0:
            return []
        num_groups = len(belief)
        # best_gain[g][j], best_subset[g][j]: best gain and subset of
        # exactly j queries inside group g.
        best_gain: list[list[float]] = []
        best_subset: list[list[tuple[int, ...]]] = []
        for group_index in range(num_groups):
            state = belief[group_index]
            group_fact_ids = [fact.fact_id for fact in state.facts]
            prior = self._cache.prior(group_index, state)
            max_size = min(k, len(group_fact_ids))
            gains = [0.0] * (max_size + 1)
            subsets: list[tuple[int, ...]] = [()] * (max_size + 1)
            for size in range(1, max_size + 1):
                for subset in itertools.combinations(group_fact_ids, size):
                    gain = prior - self._cache.conditional(
                        group_index, state, frozenset(subset), experts
                    )
                    if gain > gains[size]:
                        gains[size] = gain
                        subsets[size] = subset
            best_gain.append(gains)
            best_subset.append(subsets)

        # DP over groups: dp[j] = best total gain using exactly j queries.
        NEG = float("-inf")
        dp = [0.0] + [NEG] * k
        choice: list[list[int]] = [[0] * num_groups for _ in range(k + 1)]
        for group_index in range(num_groups):
            gains = best_gain[group_index]
            new_dp = dp[:]
            new_choice = [row[:] for row in choice]
            for used in range(k + 1):
                if dp[used] == NEG:
                    continue
                for size in range(1, min(len(gains) - 1, k - used) + 1):
                    total = dp[used] + gains[size]
                    if total > new_dp[used + size]:
                        new_dp[used + size] = total
                        row = choice[used][:]
                        row[group_index] = size
                        new_choice[used + size] = row
            dp = new_dp
            choice = new_choice

        # The best allocation over at most k queries (gains are
        # monotone, but guard against all-zero-gain edge cases).
        best_total, best_k = max(
            ((value, j) for j, value in enumerate(dp) if value != NEG),
            key=lambda pair: (pair[0], -pair[1]),
        )
        if best_total <= 0.0:
            return []
        selected: list[int] = []
        for group_index, size in enumerate(choice[best_k]):
            if size:
                selected.extend(best_subset[group_index][size])
        return selected


#: Registry of CLI-selectable selector constructors.
SELECTOR_NAMES = ("lazy", "greedy", "sampled", "random", "max-entropy")


def make_selector(
    name: str, seed: int | None = None
) -> Selector:
    """Build a selector by CLI name.

    ``lazy`` (the default engine), ``greedy`` (the eager reference
    Approx), ``sampled`` (Monte Carlo greedy for unenumerable crowds),
    ``random`` and ``max-entropy`` (baselines).  ``seed`` feeds the
    stochastic selectors and is ignored by the deterministic ones.
    """
    key = name.strip().lower()
    if key == "lazy":
        return LazyGreedySelector()
    if key == "greedy":
        return GreedySelector()
    if key == "sampled":
        return SampledGreedySelector(rng=seed)
    if key == "random":
        return RandomSelector(rng=seed)
    if key == "max-entropy":
        return MaxMarginalEntropySelector()
    raise ValueError(
        f"unknown selector {name!r}; expected one of {', '.join(SELECTOR_NAMES)}"
    )


class RandomSelector(Selector):
    """Uniform random size-``k`` selection (section IV-C3 baseline)."""

    name = "Random"

    def __init__(self, rng: np.random.Generator | int | None = None):
        self._rng = np.random.default_rng(rng)

    def select(
        self, belief: FactoredBelief, experts: Crowd, k: int
    ) -> list[int]:
        if k < 0:
            raise ValueError("k must be non-negative")
        fact_ids = belief.fact_ids
        k = min(k, len(fact_ids))
        chosen = self._rng.choice(len(fact_ids), size=k, replace=False)
        return [fact_ids[index] for index in chosen]


class MaxMarginalEntropySelector(Selector):
    """Pick the ``k`` facts whose marginal truth value is most uncertain.

    This is the trivial solution of the single-task/single-worker
    special case discussed in related work [41]; it ignores fact
    correlations and expert accuracies, which is exactly what the full
    conditional-entropy objective adds.  Kept as an ablation.
    """

    name = "MaxEntropy"

    def select(
        self, belief: FactoredBelief, experts: Crowd, k: int
    ) -> list[int]:
        if k < 0:
            raise ValueError("k must be non-negative")
        scored = [
            (binary_entropy(belief.marginal(fact_id)), fact_id)
            for fact_id in belief.fact_ids
        ]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return [fact_id for _score, fact_id in scored[: min(k, len(scored))]]
