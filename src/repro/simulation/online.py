"""The checking loop as a sans-IO session (paper Algorithm 3).

:class:`OnlineCheckingSession` owns the strict round loop: select
checking tasks, receive the experts' answers, apply the Lemma 3 /
Eq. 23 update and charge ``|T|·|CE|``.  A real deployment pauses
between selecting queries and receiving human answers (minutes to days
later), so control is inverted:

    session = OnlineCheckingSession(belief, experts, budget=1000)
    while (queries := session.next_queries()) is not None:
        family = my_platform.ask(queries, experts)   # human latency here
        session.submit(family)
    labels = session.final_labels()

:meth:`OnlineCheckingSession.run` is that loop over an answer source;
:meth:`~repro.core.hc.HierarchicalCrowdsourcing.run` (every paper
figure, and :func:`~repro.simulation.session.run_hc_session`'s plain
path) calls it, and the resilient, service and stream runtimes wrap
the session, so simulated and live runs share one loop and one
:class:`~repro.core.hc.RoundRecord` history.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from ..core.answers import AnswerFamily, AnswerSet, PartialAnswerFamily
from ..core.budget import CheckingBudget, CostModel
from ..core.hc import RoundRecord, RoundScoreboard, RunResult, describe_family
from ..core.incidents import FaultEvent
from ..core.observations import BeliefState, FactoredBelief
from ..core.selection import LazyGreedySelector, Selector
from ..core.update import (
    InconsistentEvidenceError,
    tempered_update_with_answer_set,
    update_with_answer_set,
    update_with_family,
)
from ..core.workers import Crowd
from ..obs import OBS


class SessionStateError(RuntimeError):
    """Raised on out-of-order use (submit without pending queries,
    next_queries while answers are pending, or use after completion)."""


def stage_partial_updates(
    belief: FactoredBelief,
    family: PartialAnswerFamily,
    *,
    temper: bool,
    round_index: int,
    accuracy_overrides: Mapping[str, float] | None = None,
) -> tuple[dict[int, BeliefState], list[FaultEvent]]:
    """Stage per-worker Lemma-3 updates per group without committing.

    This is the pure core of :meth:`OnlineCheckingSession.submit_partial`:
    it computes each touched group's posterior state on copies (the
    belief is *not* mutated) so a raised
    :class:`InconsistentEvidenceError` (``temper=False``) leaves the
    caller's belief untouched.

    Returns ``(staged, tempered)`` where ``staged`` maps group index to
    the updated :class:`BeliefState` and ``tempered`` holds the
    ``tempered_update`` fault events in the order they arose.
    """
    staged: dict[int, BeliefState] = {}
    tempered: list[FaultEvent] = []
    for answer_set in family:
        worker = answer_set.worker
        if accuracy_overrides and worker.worker_id in accuracy_overrides:
            worker = worker.with_accuracy(
                accuracy_overrides[worker.worker_id]
            )
        by_group: dict[int, dict[int, bool]] = {}
        for fact_id, answer in answer_set.answers.items():
            group_index = belief.group_index_of(fact_id)
            by_group.setdefault(group_index, {})[fact_id] = answer
        for group_index, answers in by_group.items():
            state = staged.get(group_index, belief[group_index])
            sub = AnswerSet(worker=worker, answers=answers)
            try:
                updated = update_with_answer_set(state, sub)
            except InconsistentEvidenceError as error:
                if not temper:
                    raise InconsistentEvidenceError(
                        f"{error} (round {round_index}, worker "
                        f"{answer_set.worker.worker_id!r}, answers "
                        f"{dict(sorted(answers.items()))})"
                    ) from error
                updated, _ = tempered_update_with_answer_set(state, sub)
                tempered.append(
                    FaultEvent(
                        kind="tempered_update",
                        round_index=round_index,
                        worker_id=answer_set.worker.worker_id,
                        fact_ids=tuple(sorted(answers)),
                        detail="zero-evidence answers; likelihood "
                               "floored and renormalized",
                    )
                )
            staged[group_index] = updated
    return staged, tempered


def stage_family_updates(
    belief: FactoredBelief, family: AnswerFamily
) -> dict[int, BeliefState]:
    """Stage full-round Eq. 23 updates per group without committing.

    The strict counterpart of :func:`stage_partial_updates` (same
    contract) and the pure core of :meth:`OnlineCheckingSession.submit`.
    Returns the staged states by group index, in the order the query
    set first touches each group.
    """
    query_fact_ids = family.query_fact_ids
    groups: dict[int, list[int]] = {}
    for fact_id in query_fact_ids:
        groups.setdefault(belief.group_index_of(fact_id), []).append(fact_id)
    staged: dict[int, BeliefState] = {}
    for group_index, fact_ids in groups.items():
        sub_family = AnswerFamily(
            answer_sets=tuple(
                type(answer_set)(
                    worker=answer_set.worker,
                    answers={
                        fact_id: answer_set.answer_for(fact_id)
                        for fact_id in fact_ids
                    },
                )
                for answer_set in family
            )
        )
        try:
            staged[group_index] = update_with_family(
                belief[group_index], sub_family
            )
        except InconsistentEvidenceError as error:
            raise InconsistentEvidenceError(
                f"{error} (query set {sorted(query_fact_ids)}, "
                f"group facts {sorted(fact_ids)}, answer family "
                f"{describe_family(sub_family)})"
            ) from error
    return staged


class OnlineCheckingSession:
    """Step-wise checking loop with externalized answer collection.

    Parameters
    ----------
    belief:
        The initialized factored belief (copied; caller's object stays
        untouched).
    experts:
        The checking tier CE.
    budget:
        Expert-answer budget ``B``.
    selector, k, cost_model:
        Checking-task selector, queries per round and per-answer costs,
        as in :class:`~repro.core.hc.HierarchicalCrowdsourcing`; the
        selector defaults to the lazy-greedy engine
        (:class:`~repro.core.selection.LazyGreedySelector`), whose
        cross-round gain cache is invalidated for exactly the groups
        each submitted round updates.
    ground_truth:
        Optional truth map enabling accuracy tracking in the history.
    """

    def __init__(
        self,
        belief: FactoredBelief,
        experts: Crowd,
        budget: float,
        selector: Selector | None = None,
        k: int = 1,
        cost_model: CostModel | None = None,
        ground_truth: Mapping[int, bool] | None = None,
    ):
        if len(experts) == 0:
            raise ValueError("the expert crowd CE must not be empty")
        if k < 1:
            raise ValueError("k must be at least 1")
        self._belief = belief.copy()
        self._experts = experts
        self._selector = selector or LazyGreedySelector()
        self._k = k
        self._budget = CheckingBudget(budget, cost_model=cost_model)
        self._ground_truth = (
            dict(ground_truth) if ground_truth is not None else None
        )
        self._pending: tuple[int, ...] | None = None
        self._round_index = 0
        self._finished = False
        self._scoreboard = RoundScoreboard()
        self.history: list[RoundRecord] = [
            self._record(-1, (), 0.0)
        ]

    # ------------------------------------------------------------------

    @property
    def belief(self) -> FactoredBelief:
        return self._belief

    @property
    def experts(self) -> Crowd:
        """The current checking panel."""
        return self._experts

    @property
    def remaining_budget(self) -> float:
        return self._budget.remaining

    @property
    def spent_budget(self) -> float:
        return self._budget.spent

    @property
    def is_finished(self) -> bool:
        return self._finished

    @property
    def round_index(self) -> int:
        """Index of the next round to complete."""
        return self._round_index

    @property
    def pending_queries(self) -> tuple[int, ...] | None:
        return self._pending

    # ------------------------------------------------------------------

    def next_queries(self) -> list[int] | None:
        """Select the next checking-task set, or ``None`` when done.

        ``None`` means either the budget cannot fund another round or no
        fact offers positive expected gain; the session is finished.
        """
        if self._finished:
            return None
        if self._pending is not None:
            raise SessionStateError(
                "answers for the previous query set are still pending"
            )
        affordable = self._budget.affordable_queries(self._experts, self._k)
        if affordable == 0:
            self._finished = True
            return None
        with OBS.phase("select"):
            queries = self._selector.select(
                self._belief, self._experts, affordable
            )
        if OBS.enabled:
            stats = getattr(self._selector, "stats", None)
            if stats is not None:
                OBS.publish_deltas("repro_selection", stats)
        if not queries:
            self._finished = True
            return None
        self._pending = tuple(queries)
        return list(queries)

    def run(
        self,
        answer_source,
        max_rounds: int | None = None,
        on_round: Callable[[RoundRecord], None] | None = None,
    ) -> RunResult:
        """Run the strict loop until the session finishes.

        Each round selects (:meth:`next_queries`), collects the full
        answer family from ``answer_source`` and applies it
        (:meth:`submit`); crowd misbehaviour raises, where
        :meth:`ResilientCheckingSession.run
        <repro.simulation.resilient.ResilientCheckingSession.run>`
        absorbs it.  ``max_rounds`` caps the rounds this call runs and
        ``on_round`` is called with each round's record.
        """
        rounds = 0
        while max_rounds is None or rounds < max_rounds:
            queries = self.next_queries()
            if queries is None:
                break
            with OBS.phase("collect"):
                family = answer_source.collect(queries, self._experts)
            record = self.submit(family)
            if on_round is not None:
                on_round(record)
            rounds += 1
        return RunResult(belief=self._belief, history=list(self.history))

    def submit(self, family: AnswerFamily) -> RoundRecord:
        """Apply collected expert answers for the pending query set.

        The family must hold one answer set from every panel member and
        from no one else.  Updates are staged before any is committed
        (:func:`stage_family_updates`), so an error leaves the belief,
        the pending round and the budget as they were.
        """
        self._require_pending()
        if set(family.query_fact_ids) != set(self._pending):
            raise ValueError(
                f"answer family covers {sorted(family.query_fact_ids)}, "
                f"expected {sorted(self._pending)}"
            )
        answered = [answer_set.worker.worker_id for answer_set in family]
        unknown = [name for name in answered if name not in self._experts]
        if unknown:
            raise ValueError(
                f"answers from workers outside the panel: {unknown}"
            )
        if len(set(answered)) < len(answered):
            raise ValueError(f"answer family repeats a worker: {answered}")
        missing = [
            name for name in self._experts.worker_ids if name not in answered
        ]
        if missing:
            raise ValueError(f"answer family is missing experts: {missing}")
        with OBS.phase("update"):
            updated = self._commit(stage_family_updates(self._belief, family))
            self._invalidate(updated)
        cost = self._budget.charge_round(len(self._pending), self._experts)
        record = self._record(self._round_index, self._pending, cost)
        self.history.append(record)
        self._round_index += 1
        self._pending = None
        return record

    def submit_partial(
        self,
        family: AnswerFamily | PartialAnswerFamily,
        *,
        temper: bool = True,
        fault_events: Sequence[FaultEvent] = (),
        accuracy_overrides: Mapping[str, float] | None = None,
    ) -> RoundRecord:
        """Apply whatever answers actually came back for the pending set.

        Unlike :meth:`submit`, missing workers and partially answered
        query sets are accepted: the Bayesian update conditions only on
        the answers received (Lemma 3 — workers are conditionally
        independent given the observation, so sequential per-worker
        updates over the responders are exact), and the budget is
        charged per answer received instead of per full round.  As in
        :meth:`submit`, updates are staged before any is committed
        (:func:`stage_partial_updates`).

        Parameters
        ----------
        family:
            A complete :class:`AnswerFamily` or a
            :class:`PartialAnswerFamily`; answered facts must be a
            subset of the pending queries and answering workers a
            subset of the current panel.  Must contain at least one
            answer.
        temper:
            When ``True`` (default), a zero-evidence answer pattern is
            absorbed by the tempered update
            (:func:`~repro.core.update.tempered_update_with_answer_set`)
            and recorded as a ``tempered_update`` fault event instead of
            raising :class:`~repro.core.update.InconsistentEvidenceError`.
        fault_events:
            Incidents observed while collecting this round; stamped with
            the round index and stored on the returned record.
        accuracy_overrides:
            Optional ``worker_id -> accuracy`` mapping.  Listed workers'
            answers are weighted with the given accuracy instead of
            their declared rate — the trust layer passes posterior
            means here so the Bayesian update trusts each expert only
            as much as their observed track record warrants.  Workers
            not listed use their declared accuracy; ids without answers
            this round are ignored.
        """
        self._require_pending()
        if isinstance(family, AnswerFamily):
            family = PartialAnswerFamily.from_family(family)
        if family.is_empty:
            raise ValueError(
                "partial answer family contains no answers; use "
                "abandon_pending() instead"
            )
        pending = set(self._pending)
        stray = set(family.answered_fact_ids) - pending
        if stray:
            raise ValueError(
                f"answers cover unpending facts {sorted(stray)}; "
                f"pending are {sorted(pending)}"
            )
        unknown = [
            worker_id
            for worker_id in family.answered_worker_ids
            if worker_id not in self._experts
        ]
        if unknown:
            raise ValueError(
                f"answers from workers outside the panel: {unknown}"
            )
        events = [
            event.stamped(self._round_index) for event in fault_events
        ]
        with OBS.phase("update"):
            staged, tempered = stage_partial_updates(
                self._belief,
                family,
                temper=temper,
                round_index=self._round_index,
                accuracy_overrides=accuracy_overrides,
            )
            events.extend(tempered)
            updated = self._commit(staged)
            self._invalidate(updated)
        cost = self._budget.charge_family(family)
        record = self._record(
            self._round_index, self._pending, cost, tuple(events)
        )
        self.history.append(record)
        self._round_index += 1
        self._pending = None
        return record

    def _require_pending(self) -> None:
        if self._finished:
            raise SessionStateError("session is finished")
        if self._pending is None:
            raise SessionStateError(
                "no pending queries; call next_queries() first"
            )

    def _commit(self, staged: dict[int, BeliefState]):
        """Adopt staged group states; returns the updated indices."""
        for group_index, state in staged.items():
            self._belief.replace_group(group_index, state)
        return staged.keys()

    def _invalidate(self, group_indices) -> None:
        # Release the selector's cached entropies for the groups this
        # round actually changed; untouched groups keep their entries,
        # so the next selection pass costs O(changed), not O(N).
        invalidate = getattr(self._selector, "invalidate_groups", None)
        if callable(invalidate):
            invalidate(group_indices)

    def add_groups(
        self,
        states: Sequence[BeliefState],
        ground_truth: Mapping[int, bool] | None = None,
    ) -> list[int]:
        """Grow the campaign's belief with newly formed groups.

        The streaming runtime seals task groups as their preliminary
        votes arrive; each sealed group joins the live belief here and
        becomes selectable from the next round on.  Existing group
        indices — and therefore the selector's per-group caches — are
        untouched.  A session that had finished because no remaining
        fact offered positive gain is revived: the fresh groups are new
        work (the next ``next_queries`` re-checks affordability, so a
        genuinely exhausted budget finishes it again immediately).
        """
        if self._pending is not None:
            raise SessionStateError(
                "cannot add groups while answers are pending"
            )
        indices = [self._belief.add_group(state) for state in states]
        if ground_truth:
            if self._ground_truth is None:
                self._ground_truth = {}
            for fact_id in ground_truth:
                self._ground_truth[int(fact_id)] = bool(
                    ground_truth[fact_id]
                )
        if indices and self._finished:
            self._finished = False
        return indices

    def apply_out_of_band(
        self, answer_set: AnswerSet
    ) -> list[FaultEvent]:
        """Fold a late, out-of-round answer set in with tempering.

        Streamed preliminary labels that arrive after their group was
        sealed (but inside the straggler window) still carry evidence;
        they are applied between checking rounds with the *tempered*
        update only — a contradictory straggler degrades gracefully
        instead of raising.  No budget is charged: the checking budget
        ``B`` counts expert answers, and these are preliminary-tier
        votes.  Returns one ``late_admit`` event per touched group.
        """
        if self._pending is not None:
            raise SessionStateError(
                "cannot apply out-of-band answers while a round is "
                "pending"
            )
        by_group: dict[int, dict[int, bool]] = {}
        for fact_id, answer in answer_set.answers.items():
            group_index = self._belief.group_index_of(fact_id)
            by_group.setdefault(group_index, {})[fact_id] = answer
        events: list[FaultEvent] = []
        for group_index in sorted(by_group):
            answers = by_group[group_index]
            sub = AnswerSet(worker=answer_set.worker, answers=answers)
            updated, tempered = tempered_update_with_answer_set(
                self._belief[group_index], sub
            )
            self._belief.replace_group(group_index, updated)
            events.append(
                FaultEvent(
                    kind="late_admit",
                    round_index=self._round_index,
                    worker_id=answer_set.worker.worker_id,
                    fact_ids=tuple(sorted(answers)),
                    detail=(
                        "late stream event applied with tempering"
                        + (" (evidence floored)" if tempered else "")
                    ),
                )
            )
        self._invalidate(by_group.keys())
        return events

    def replace_experts(self, experts: Crowd) -> None:
        """Swap the checking panel (worker reassignment).

        Subsequent selection, affordability checks and full-round
        charging use the new panel.  Pending queries stay pending — the
        resilient runtime swaps panels precisely to retry a round that
        the old panel failed to answer.
        """
        if len(experts) == 0:
            raise ValueError("the expert crowd CE must not be empty")
        self._experts = experts

    def abandon_pending(self) -> None:
        """Drop the pending query set without charging the budget
        (e.g. the platform failed to collect answers in time)."""
        if self._pending is None:
            raise SessionStateError("no pending queries to abandon")
        self._pending = None

    def final_labels(self) -> dict[int, bool]:
        """MAP labels of the current belief (paper Eq. 20)."""
        return self._belief.map_labels()

    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def to_checkpoint(self) -> dict:
        """JSON-compatible snapshot of the session's durable state.

        Captures the belief, budget accounting, pending queries and
        history.  Behavioral components (the expert crowd, selector and
        cost model) are supplied again at restore time — they are code,
        not state.
        """
        from ..core.serialization import checkpoint_to_dict

        return checkpoint_to_dict(self.checkpoint_state())

    def checkpoint_state(self) -> dict:
        """The members of :meth:`to_checkpoint` in order, with the
        belief, the ground-truth mapping and the history's round
        records as the live objects (not copies): a journal's
        :class:`~repro.core.serialization.CheckpointWriter` encodes
        only what changed since its previous line."""
        return {
            "belief": self._belief,
            "budget_total": self._budget.total,
            "budget_spent": self._budget.spent,
            "k": self._k,
            "round_index": self._round_index,
            "pending": list(self._pending) if self._pending else None,
            "finished": self._finished,
            "ground_truth": self._ground_truth,
            "history": self.history,
        }

    @classmethod
    def from_checkpoint(
        cls,
        payload: dict,
        experts: Crowd,
        selector: Selector | None = None,
        cost_model: CostModel | None = None,
    ) -> "OnlineCheckingSession":
        """Rebuild a session from :meth:`to_checkpoint` output.

        The caller provides the expert crowd (and optionally the
        selector / cost model) that were in use; pending queries and
        spent budget are restored exactly.
        """
        from ..core.serialization import (
            SerializationError,
            check_version,
            factored_belief_from_dict,
            round_record_from_dict,
        )

        check_version(payload)
        try:
            belief = factored_belief_from_dict(payload["belief"])
            ground_truth = payload.get("ground_truth")
            if ground_truth is not None:
                ground_truth = {
                    int(key): bool(value)
                    for key, value in ground_truth.items()
                }
            session = cls(
                belief,
                experts,
                budget=float(payload["budget_total"]),
                selector=selector,
                k=int(payload["k"]),
                cost_model=cost_model,
                ground_truth=ground_truth,
            )
            session._budget.restore_spent(float(payload["budget_spent"]))
            session._round_index = int(payload["round_index"])
            pending = payload.get("pending")
            session._pending = tuple(pending) if pending else None
            session._finished = bool(payload.get("finished", False))
            session.history = [
                round_record_from_dict(record)
                for record in payload["history"]
            ]
        except (KeyError, TypeError, ValueError) as error:
            if isinstance(error, SerializationError):
                raise
            raise SerializationError(
                f"malformed session checkpoint: {error}"
            ) from error
        return session

    def _record(
        self,
        round_index: int,
        queries: tuple[int, ...],
        cost: float,
        fault_events: tuple[FaultEvent, ...] = (),
    ) -> RoundRecord:
        quality, accuracy = self._scoreboard.score(
            self._belief, self._ground_truth
        )
        return RoundRecord(
            round_index=round_index,
            query_fact_ids=queries,
            cost=cost,
            budget_spent=self._budget.spent,
            quality=quality,
            accuracy=accuracy,
            fault_events=fault_events,
        )
