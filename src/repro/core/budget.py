"""Checking-budget accounting (paper Algorithm 3, lines 7-8).

The budget ``B`` counts *expert answers*: sending a query set ``T`` to
the expert crowd ``CE`` consumes ``|T| * |CE|`` answers.  The loop stops
when the remaining budget cannot fund another (even single-query) round.

:class:`CostModel` implements the section III-D extension where each
worker's answer has an individual cost (e.g. proportional to accuracy);
the default model charges one unit per answer, recovering the paper's
accounting exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .workers import Crowd, Worker


@dataclass(frozen=True)
class CostModel:
    """Per-answer cost of each expert worker.

    Parameters
    ----------
    per_worker:
        Optional mapping ``worker_id -> cost``.  Workers not listed cost
        ``default_cost``.
    default_cost:
        Cost per answer for unlisted workers (1.0 == paper accounting).
    """

    per_worker: dict[str, float] = field(default_factory=dict)
    default_cost: float = 1.0

    def __post_init__(self) -> None:
        if self.default_cost < 0:
            raise ValueError("default_cost must be non-negative")
        for worker_id, cost in self.per_worker.items():
            if cost < 0:
                raise ValueError(
                    f"cost for worker {worker_id!r} must be non-negative"
                )

    @classmethod
    def accuracy_proportional(
        cls, experts: Crowd, rate: float = 1.0
    ) -> "CostModel":
        """Section III-D: cost grows with accuracy, ``cost = rate * Pr_cr``."""
        return cls(
            per_worker={
                worker.worker_id: rate * worker.accuracy for worker in experts
            }
        )

    def answer_cost(self, worker: Worker) -> float:
        """Cost of one answer from ``worker``."""
        return self.per_worker.get(worker.worker_id, self.default_cost)

    def round_cost(self, num_queries: int, experts: Crowd) -> float:
        """Cost of one checking round: every expert answers every query."""
        return num_queries * sum(
            self.answer_cost(worker) for worker in experts
        )

    def family_cost(self, family) -> float:
        """Cost of the answers actually received in a (partial) family.

        Accepts anything iterable over :class:`~repro.core.answers.AnswerSet`
        objects (:class:`~repro.core.answers.AnswerFamily` or
        :class:`~repro.core.answers.PartialAnswerFamily`); only answers
        that exist are charged, so no-shows and skipped facts cost
        nothing.
        """
        return sum(
            self.answer_cost(answer_set.worker) * len(answer_set.answers)
            for answer_set in family
        )


class CheckingBudget:
    """Mutable budget tracker for the checking loop."""

    def __init__(self, total: float, cost_model: CostModel | None = None):
        if not math.isfinite(total) or total < 0:
            raise ValueError(
                f"budget must be finite and non-negative, got {total!r}"
            )
        self._total = float(total)
        self._spent = 0.0
        self._cost_model = cost_model or CostModel()

    @property
    def total(self) -> float:
        return self._total

    @property
    def spent(self) -> float:
        return self._spent

    @property
    def remaining(self) -> float:
        return self._total - self._spent

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    def affordable_queries(self, experts: Crowd, k: int) -> int:
        """Largest query count ``<= k`` fundable this round (0 if none).

        With unit costs this is ``min(k, B // |CE|)``, matching the
        paper's ``|T| = min(k, B)`` clamp in Algorithm 2 combined with
        the Algorithm 3 stopping rule ``B < |T| * |CE|``.
        """
        if k <= 0 or len(experts) == 0:
            return 0
        single_query_cost = self._cost_model.round_cost(1, experts)
        if single_query_cost <= 0:
            return k
        affordable = int(self.remaining // single_query_cost)
        return min(k, affordable)

    def charge_round(self, num_queries: int, experts: Crowd) -> float:
        """Deduct one round's cost; returns the amount charged.

        Raises
        ------
        ValueError
            If the round is not affordable with the remaining budget.
        """
        cost = self._cost_model.round_cost(num_queries, experts)
        if cost > self.remaining + 1e-9:
            raise ValueError(
                f"round cost {cost} exceeds remaining budget {self.remaining}"
            )
        self._spent += cost
        return cost

    def charge_family(self, family) -> float:
        """Deduct the cost of the answers actually received.

        The per-answer analogue of :meth:`charge_round` for partial
        answer families: only (worker, fact) pairs that produced an
        answer are charged, so the spent amount can never exceed what a
        full round would have cost, and the budget can never go
        negative.

        Raises
        ------
        ValueError
            If even the received answers exceed the remaining budget
            (possible when reassigned workers cost more than the panel
            the round was sized for).
        """
        cost = self._cost_model.family_cost(family)
        if cost > self.remaining + 1e-9:
            raise ValueError(
                f"answer cost {cost} exceeds remaining budget "
                f"{self.remaining}"
            )
        self._spent = min(self._spent + cost, self._total)
        return cost

    def restore_spent(self, amount: float) -> None:
        """Set the spent amount directly (checkpoint restore only)."""
        if not 0.0 <= amount <= self._total + 1e-9:
            raise ValueError(
                f"spent amount {amount} outside [0, {self._total}]"
            )
        self._spent = float(amount)

    def __repr__(self) -> str:
        return f"CheckingBudget(spent={self._spent}, total={self._total})"
