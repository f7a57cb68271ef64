"""The hierarchical crowdsourcing orchestrator (paper Algorithms 1 & 3).

:class:`HierarchicalCrowdsourcing` configures the initialization-
checking-update loop: given an initialized factored belief, an expert
crowd, a selector, and an *answer source* (anything that produces an
:class:`~repro.core.answers.AnswerFamily` for a query set — in the
experiments a simulator replaying/ sampling worker answers), its
:meth:`~HierarchicalCrowdsourcing.run` repeatedly selects checking
tasks, collects expert answers, applies the Bayesian update, and
charges the budget until the budget cannot fund another round.  The
loop itself is :meth:`repro.simulation.online.OnlineCheckingSession.run`,
the one every runtime drives.

:func:`run_flat_checking` is the NO-HC baseline of section IV-C5:
uniform initial belief, the whole crowd serves as checking workers.
:func:`run_tiered_checking` is the section III-D extension to more than
two tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, Sequence

from .answers import AnswerFamily
from .budget import CostModel
from .incidents import FaultEvent
from .observations import BeliefState, FactoredBelief
from .selection import LazyGreedySelector, Selector
from .workers import Crowd
from . import entropy as entropy_module


class AnswerSource(Protocol):
    """Produces expert answer families for query sets.

    Implementations include the simulation oracle (samples answers from
    ground truth under each worker's error model) and offline replay of
    recorded crowd answers.
    """

    def collect(
        self, query_fact_ids: Sequence[int], experts: Crowd
    ) -> AnswerFamily: ...


@dataclass(frozen=True)
class RoundRecord:
    """One checking round's bookkeeping.

    ``fault_events`` is empty for healthy rounds; the resilient runtime
    attaches the incidents (no-shows, retries, tempered updates, …) it
    survived while completing the round.
    """

    round_index: int
    query_fact_ids: tuple[int, ...]
    cost: float
    budget_spent: float
    quality: float
    accuracy: float | None
    fault_events: tuple[FaultEvent, ...] = ()


@dataclass
class RunResult:
    """Outcome of a full checking run.

    ``history`` holds one record per round, *plus* an initial record
    (round ``-1``) capturing the post-initialization state, so budget-vs-
    quality curves start at budget 0.
    """

    belief: FactoredBelief
    history: list[RoundRecord] = field(default_factory=list)

    @property
    def final_labels(self) -> dict[int, bool]:
        """Labels finalized from the MAP observation of each group
        (paper Eq. 20)."""
        return self.belief.map_labels()

    @property
    def budgets(self) -> list[float]:
        return [record.budget_spent for record in self.history]

    @property
    def qualities(self) -> list[float]:
        return [record.quality for record in self.history]

    @property
    def accuracies(self) -> list[float | None]:
        return [record.accuracy for record in self.history]


def describe_family(family: AnswerFamily, max_workers: int = 8) -> str:
    """Compact human-readable rendering of an answer family for error
    messages and incident logs: ``{worker: {fact: Y/N}}``."""
    parts = []
    for answer_set in list(family)[:max_workers]:
        answers = ", ".join(
            f"{fact_id}: {'Y' if answer else 'N'}"
            for fact_id, answer in sorted(answer_set.answers.items())
        )
        parts.append(f"{answer_set.worker.worker_id}: {{{answers}}}")
    if len(family) > max_workers:
        parts.append(f"... {len(family) - max_workers} more workers")
    return "{" + "; ".join(parts) + "}"


def total_quality(belief: FactoredBelief) -> float:
    """Data-set quality ``Q = sum_g -H(O_g)`` (Definition 2 summed over
    independent task groups)."""
    return sum(entropy_module.quality(group) for group in belief)


def _label_counts(
    state: BeliefState, ground_truth: Mapping[int, bool]
) -> tuple[int, int]:
    """``(correct, relevant)``: how many of the group's facts the ground
    truth covers, and how many of those its MAP label gets right."""
    labels = state.map_labels()
    relevant = [fact_id for fact_id in labels if fact_id in ground_truth]
    correct = sum(
        1 for fact_id in relevant if labels[fact_id] == ground_truth[fact_id]
    )
    return correct, len(relevant)


def _accuracy(correct: int, relevant: int) -> float:
    if not relevant:
        raise ValueError("ground truth covers none of the belief's facts")
    return correct / relevant


def labeling_accuracy(
    belief: FactoredBelief, ground_truth: Mapping[int, bool]
) -> float:
    """Fraction of facts whose MAP label matches the ground truth."""
    counts = [_label_counts(state, ground_truth) for state in belief]
    return _accuracy(
        sum(correct for correct, _ in counts),
        sum(relevant for _, relevant in counts),
    )


class RoundScoreboard:
    """Per-group terms of a round record's quality and accuracy.

    :func:`total_quality` and :func:`labeling_accuracy` are sums of
    per-group terms, and a checking round changes only the groups it
    queried.  The scoreboard keeps each group's quality, correct-label
    count and relevant-fact count keyed by the identity of the
    (immutable) state they were computed from, so a record costs
    entropy and MAP work for the changed groups only.  Quality is
    summed with the builtin ``sum`` in group order, exactly as
    :func:`total_quality` sums it, so the bits match; counts are exact
    integers.  The counts are recomputed whenever the ground truth's
    size changes (streamed groups bring their truth with them).
    """

    def __init__(self) -> None:
        self._states: list[BeliefState | None] = []
        self._quality: list[float] = []
        self._correct: list[int] = []
        self._relevant: list[int] = []
        self._truth_size: int | None = None

    def score(
        self,
        belief: FactoredBelief,
        ground_truth: Mapping[int, bool] | None,
    ) -> tuple[float, float | None]:
        """``(total_quality, labeling_accuracy)`` of ``belief``; the
        accuracy is ``None`` without a ground truth."""
        truth_size = None if ground_truth is None else len(ground_truth)
        if truth_size != self._truth_size:
            self._truth_size = truth_size
            self._states, self._quality = [], []
            self._correct, self._relevant = [], []
        missing = len(belief) - len(self._states)
        if missing:
            self._states.extend([None] * missing)
            self._quality.extend([0.0] * missing)
            self._correct.extend([0] * missing)
            self._relevant.extend([0] * missing)
        states = self._states
        for group_index, state in enumerate(belief):
            if states[group_index] is state:
                continue
            states[group_index] = state
            self._quality[group_index] = entropy_module.quality(state)
            if ground_truth is not None:
                (
                    self._correct[group_index],
                    self._relevant[group_index],
                ) = _label_counts(state, ground_truth)
        quality = sum(self._quality)
        if ground_truth is None:
            return quality, None
        return quality, _accuracy(sum(self._correct), sum(self._relevant))


class HierarchicalCrowdsourcing:
    """Algorithm 3: the approximate hierarchical crowdsourcing loop.

    Parameters
    ----------
    experts:
        The checking tier ``CE`` (from ``Crowd.split(theta)``).
    selector:
        Checking-task selection strategy; defaults to the paper's greedy
        Algorithm 2.
    k:
        Queries selected per round (``|T| = min(k, affordable)``).
    cost_model:
        Optional per-answer costs (section III-D extension); the default
        charges 1 per answer as in the paper.
    panel_size:
        Experts answering each round.  The paper sends every query to
        all of CE (the default, ``None``); a smaller panel stretches the
        budget over more queries at lower per-query confidence.  The
        ``panel_size`` most-accurate experts are used, and selection
        evaluates the conditional entropy against that panel.
    """

    def __init__(
        self,
        experts: Crowd,
        selector: Selector | None = None,
        k: int = 1,
        cost_model: CostModel | None = None,
        panel_size: int | None = None,
    ):
        if k < 1:
            raise ValueError("k must be at least 1")
        if len(experts) == 0:
            raise ValueError("the expert crowd CE must not be empty")
        if panel_size is not None:
            if not 1 <= panel_size <= len(experts):
                raise ValueError(
                    f"panel_size must lie in [1, {len(experts)}]"
                )
            ranked = sorted(
                experts, key=lambda worker: -worker.accuracy
            )
            experts = Crowd(ranked[:panel_size])
        self.experts = experts
        self.selector = selector or LazyGreedySelector()
        self.k = k
        self.cost_model = cost_model

    def run(
        self,
        belief: FactoredBelief,
        answer_source: AnswerSource,
        budget: float,
        ground_truth: Mapping[int, bool] | None = None,
        on_round: Callable[[RoundRecord], None] | None = None,
        max_rounds: int | None = None,
    ) -> RunResult:
        """Run the checking loop until the budget is exhausted.

        Parameters
        ----------
        belief:
            The initialized factored belief (modified via copy; the
            caller's object is left untouched).
        answer_source:
            Supplier of expert answer families.
        budget:
            Total expert-answer budget ``B``.
        ground_truth:
            Optional ``fact_id -> truth`` map; enables accuracy tracking.
        on_round:
            Optional callback invoked after every round.
        max_rounds:
            Optional hard cap on rounds (guards pathological configs).
        """
        # The loop is the sans-IO session's; repro.simulation builds on
        # repro.core, so it is imported at call time.
        from ..simulation.online import OnlineCheckingSession

        session = OnlineCheckingSession(
            belief,
            self.experts,
            budget,
            selector=self.selector,
            k=self.k,
            cost_model=self.cost_model,
            ground_truth=ground_truth,
        )
        return session.run(
            answer_source, max_rounds=max_rounds, on_round=on_round
        )


def run_flat_checking(
    facts_groups: Sequence[Sequence],
    crowd: Crowd,
    answer_source: AnswerSource,
    budget: float,
    k: int = 1,
    selector: Selector | None = None,
    ground_truth: Mapping[int, bool] | None = None,
) -> RunResult:
    """The NO-HC baseline (section IV-C5).

    Every worker serves as a checking worker and the belief starts
    uniform (no preliminary tier, no aggregation-based initialization).

    ``facts_groups`` is a sequence of :class:`~repro.core.facts.FactSet`
    objects, one per independent task group.
    """
    from .facts import FactSet

    groups = []
    for group in facts_groups:
        fact_set = group if isinstance(group, FactSet) else FactSet(group)
        groups.append(BeliefState.uniform(fact_set))
    belief = FactoredBelief(groups)
    runner = HierarchicalCrowdsourcing(
        experts=crowd, selector=selector, k=k
    )
    return runner.run(
        belief, answer_source, budget, ground_truth=ground_truth
    )


def run_tiered_checking(
    belief: FactoredBelief,
    tiers: Sequence[Crowd],
    answer_source: AnswerSource,
    budget_per_tier: Sequence[float],
    k: int = 1,
    selector: Selector | None = None,
    ground_truth: Mapping[int, bool] | None = None,
) -> list[RunResult]:
    """Section III-D extension: several expert tiers check sequentially.

    Each tier runs a full checking loop on the belief left by the
    previous tier, with its own budget.  Returns one :class:`RunResult`
    per tier (each result's belief feeds the next tier).
    """
    if len(tiers) != len(budget_per_tier):
        raise ValueError("need one budget per tier")
    results: list[RunResult] = []
    current = belief
    for tier, tier_budget in zip(tiers, budget_per_tier):
        runner = HierarchicalCrowdsourcing(
            experts=tier, selector=selector, k=k
        )
        result = runner.run(
            current, answer_source, tier_budget, ground_truth=ground_truth
        )
        results.append(result)
        current = result.belief
    return results
