"""Fault injection for the checking loop (chaos testing the runtime).

The paper's simulation assumes every expert answers every query
instantly and honestly.  Real crowds do not: workers no-show, the
platform times out, spammers answer uniformly at random, compromised
accounts flip their answers, and busy workers skip half the queries.
:class:`FaultyExpertPanel` wraps any answer source with a seeded,
composable model of exactly those failure modes, so the resilient
runtime (:mod:`repro.simulation.resilient`) can be exercised — and
regression-tested — against crowds that misbehave at configurable
rates.

Every injected fault is recorded as a
:class:`~repro.core.incidents.FaultEvent`; drain them with
:meth:`FaultyExpertPanel.drain_events` after each collection attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core.answers import AnswerFamily, AnswerSet, PartialAnswerFamily
from ..core.incidents import FaultEvent
from ..core.workers import Crowd
from ..faultplan import FaultPlan


class AnswerCollectionTimeout(RuntimeError):
    """The platform failed to collect any answers in time (transient)."""


@dataclass(frozen=True)
class FaultModel(FaultPlan):
    """Seeded configuration of crowd failure rates.

    All rates are probabilities per checking round (``partial`` is per
    answered fact).  Per round each worker independently draws one
    behavior — no-show, spam, adversarial, or honest — with the given
    rates; ``timeout`` is drawn once per collection attempt and aborts
    the whole attempt with :class:`AnswerCollectionTimeout`.

    Parameters
    ----------
    no_show:
        Probability a worker returns nothing this round.
    timeout:
        Probability the whole collection attempt times out.
    spam:
        Probability a worker answers uniformly at random.
    adversarial:
        Probability a worker's answers are flipped.
    partial:
        Probability each individual answer of a responding worker is
        dropped (models workers skipping queries).
    seed:
        Seed of the fault RNG (separate from the answer RNG, so the
        same crowd answers can be replayed under different faults).
    per_worker:
        Optional ``worker_id -> FaultModel`` overrides; a listed
        worker's ``no_show``/``spam``/``adversarial``/``partial`` rates
        replace the global ones (``timeout`` and ``seed`` of overrides
        are ignored — they are attempt- and panel-level knobs).

    :meth:`parse` reads ``"no_show=0.1,spam=0.05,timeout=0.2"``.
    """

    ACTIONS = ("no_show", "spam", "adversarial")
    RATES = ("timeout", "partial")

    no_show: float = 0.0
    timeout: float = 0.0
    spam: float = 0.0
    adversarial: float = 0.0
    partial: float = 0.0
    seed: int = 0
    per_worker: Mapping[str, "FaultModel"] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "per_worker", dict(self.per_worker))

    def rates_for(self, worker_id: str) -> "FaultModel":
        """The effective fault model for one worker."""
        return self.per_worker.get(worker_id, self)


class FaultyExpertPanel:
    """Wrap an answer source with seeded fault injection.

    The wrapped source is asked for the full, honest answer family;
    faults are then applied on top: the whole attempt may time out,
    workers may no-show, spam, answer adversarially, or drop individual
    answers.  The result is a
    :class:`~repro.core.answers.PartialAnswerFamily` (or the unchanged
    :class:`~repro.core.answers.AnswerFamily` when no fault fired, so a
    zero-rate panel is a drop-in replacement for its inner source).

    Parameters
    ----------
    inner:
        Any answer source (``collect(query_fact_ids, experts)``).
    fault_model:
        The failure rates; its ``seed`` seeds the fault RNG.
    rng:
        Optional explicit generator/seed overriding ``fault_model.seed``.
    """

    def __init__(
        self,
        inner,
        fault_model: FaultModel,
        rng: np.random.Generator | int | None = None,
    ):
        self._inner = inner
        self._model = fault_model
        self._rng = np.random.default_rng(
            fault_model.seed if rng is None else rng
        )
        self._events: list[FaultEvent] = []

    @property
    def fault_model(self) -> FaultModel:
        return self._model

    @property
    def inner(self):
        return self._inner

    def drain_events(self) -> list[FaultEvent]:
        """Return and clear the fault events of recent collections."""
        events, self._events = self._events, []
        return events

    # ------------------------------------------------------------------
    # state (journal support)
    # ------------------------------------------------------------------

    def get_state(self) -> dict:
        """JSON-compatible RNG state (fault RNG + inner source state)."""
        state: dict = {"rng": self._rng.bit_generator.state}
        inner_get = getattr(self._inner, "get_state", None)
        if callable(inner_get):
            state["inner"] = inner_get()
        return state

    def set_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]
        inner_set = getattr(self._inner, "set_state", None)
        if callable(inner_set) and "inner" in state:
            inner_set(state["inner"])

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------

    def collect(
        self, query_fact_ids: Sequence[int], experts: Crowd
    ) -> AnswerFamily | PartialAnswerFamily:
        """Collect answers with faults injected.

        Raises
        ------
        AnswerCollectionTimeout
            With probability ``fault_model.timeout`` per call.
        """
        if self._rng.random() < self._model.timeout:
            self._events.append(
                FaultEvent(
                    kind="timeout",
                    fact_ids=tuple(query_fact_ids),
                    detail="simulated platform timeout",
                )
            )
            raise AnswerCollectionTimeout(
                f"collection of {len(query_fact_ids)} queries from "
                f"{len(experts)} experts timed out (injected)"
            )
        family = self._inner.collect(query_fact_ids, experts)
        survivors: list[AnswerSet] = []
        faulted = False
        for answer_set in family:
            worker = answer_set.worker
            rates = self._model.rates_for(worker.worker_id)
            draw = self._rng.random()
            if draw < rates.no_show:
                faulted = True
                self._events.append(
                    FaultEvent(
                        kind="no_show",
                        worker_id=worker.worker_id,
                        fact_ids=tuple(query_fact_ids),
                    )
                )
                continue
            answers = dict(answer_set.answers)
            if draw < rates.no_show + rates.spam:
                faulted = True
                answers = {
                    fact_id: bool(self._rng.random() < 0.5)
                    for fact_id in answers
                }
                self._events.append(
                    FaultEvent(
                        kind="spam",
                        worker_id=worker.worker_id,
                        fact_ids=tuple(query_fact_ids),
                        detail="uniform-random answers",
                    )
                )
            elif draw < rates.no_show + rates.spam + rates.adversarial:
                faulted = True
                answers = {
                    fact_id: not answer for fact_id, answer in answers.items()
                }
                self._events.append(
                    FaultEvent(
                        kind="adversarial",
                        worker_id=worker.worker_id,
                        fact_ids=tuple(query_fact_ids),
                        detail="answers flipped",
                    )
                )
            if rates.partial > 0.0 and answers:
                kept = {
                    fact_id: answer
                    for fact_id, answer in answers.items()
                    if self._rng.random() >= rates.partial
                }
                if len(kept) < len(answers):
                    faulted = True
                    dropped = tuple(
                        fact_id for fact_id in answers if fact_id not in kept
                    )
                    kind = "partial" if kept else "no_show"
                    self._events.append(
                        FaultEvent(
                            kind=kind,
                            worker_id=worker.worker_id,
                            fact_ids=dropped,
                            detail=f"dropped {len(dropped)} of "
                                   f"{len(answers)} answers",
                        )
                    )
                answers = kept
            if answers:
                survivors.append(AnswerSet(worker=worker, answers=answers))
        if not faulted:
            return family
        return PartialAnswerFamily(
            intended_query_fact_ids=tuple(query_fact_ids),
            intended_worker_ids=experts.worker_ids,
            answer_sets=tuple(survivors),
        )
