"""Fault-tolerant campaign runtime over the sans-IO checking session.

:class:`~repro.simulation.online.OnlineCheckingSession` assumes the
caller always manages to produce an answer family.  Against a real (or
fault-injected) crowd, collection fails in every way imaginable; this
module keeps the checking loop alive through all of it:

* **retry with exponential backoff + jitter** when a collection attempt
  times out or comes back empty (:class:`RetryPolicy`);
* **reassignment** to fresh reserve experts after a panel repeatedly
  fails, with the budget charged through the same
  :class:`~repro.core.budget.CostModel`;
* **partial acceptance**: whatever subset of workers/answers arrives is
  applied with exact Lemma-3 conditioning on the responders, and only
  the received answers are charged;
* **graceful degradation** on contradictory evidence — the tempered
  update re-smooths the posterior instead of raising
  :class:`~repro.core.update.InconsistentEvidenceError`;
* **crash-safe checkpointing**: an append-only JSONL journal captures
  belief, budget, pending queries, retry state and RNG states after
  every state transition, and :meth:`ResilientCheckingSession.resume`
  restores mid-round — byte-identical to an uninterrupted run;
* **online trust supervision** (opt-in via ``trust_policy``): a
  :class:`~repro.core.trust.TrustSupervisor` maintains per-worker Beta
  posteriors over accuracy fed by seeded gold probes and MAP-agreement,
  trust-weights the Bayesian update, and drives per-worker circuit
  breakers that quarantine drifting experts through the reassignment
  path and re-admit them after gold-probe probation.  Supervisor state
  (posteriors, breakers, pending probes, probe RNG) is journaled, so
  resume stays byte-identical with trust enabled.

Every survived incident is a :class:`~repro.core.incidents.FaultEvent`
in the session's ``incidents`` log and on the owning round's record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.answers import AnswerFamily, AnswerSet, PartialAnswerFamily
from ..core.budget import CostModel
from ..core.hc import RunResult
from ..core.incidents import FaultEvent
from ..core.observations import BeliefState, FactoredBelief
from ..core.selection import Selector
from ..core.serialization import (
    FORMAT_VERSION,
    CheckpointWriter,
    SerializationError,
    append_journal_record,
    crowd_from_dict,
    crowd_to_dict,
    fault_event_from_dict,
    fault_event_to_dict,
    fold_checkpoints,
    journal_version,
    start_journal,
)
from ..core.trust import TrustPolicy, TrustReport, TrustSupervisor
from ..core.workers import Crowd
from ..obs import OBS
from .faults import AnswerCollectionTimeout
from .online import OnlineCheckingSession


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving a round up.

    Parameters
    ----------
    max_attempts:
        Collection attempts per panel per round (>= 1).
    max_reassignments:
        Panel swaps allowed per round once a panel has burned through
        its attempts (0 disables reassignment).
    base_delay, multiplier, max_delay:
        Exponential backoff: the wait before attempt ``n+1`` is
        ``min(base_delay * multiplier**n, max_delay)`` seconds.
    jitter:
        Fractional +/- jitter applied to each delay (0.25 == +/-25%),
        decorrelating retry storms across concurrent campaigns.
    """

    max_attempts: int = 4
    max_reassignments: int = 1
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.max_reassignments < 0:
            raise ValueError("max_reassignments must be non-negative")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")

    def delay_for(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        delay = min(
            self.base_delay * self.multiplier ** attempt, self.max_delay
        )
        if self.jitter > 0.0 and delay > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return max(delay, 0.0)


@dataclass
class ResilientRunResult(RunResult):
    """A :class:`~repro.core.hc.RunResult` plus the incident log.

    ``halted`` is ``True`` when the session gave up on a query set (all
    retries and reassignments exhausted) before the budget ran out.
    """

    incidents: list[FaultEvent] = field(default_factory=list)
    halted: bool = False
    #: Trust-supervision outcome, ``None`` when supervision was off.
    trust: TrustReport | None = None


class ResilientCheckingSession:
    """Drive a checking campaign to completion through crowd faults.

    Parameters
    ----------
    belief, experts, budget, selector, k, cost_model, ground_truth:
        As in :class:`~repro.simulation.online.OnlineCheckingSession`;
        selection defaults to the lazy-greedy engine
        (:class:`~repro.core.selection.LazyGreedySelector`), which
        carries its gain cache across rounds — after every committed
        round the inner session invalidates exactly the updated groups,
        so steady-state selection work is proportional to the groups
        the previous round touched, not the whole fact set.
    retry_policy:
        Retry/backoff/reassignment knobs; defaults to
        ``RetryPolicy()``.
    reserve_experts:
        Optional pool of fresh workers to swap in when a panel
        repeatedly fails; their answers are charged through the same
        cost model (unlisted workers cost ``default_cost``).
    journal_path:
        When given, every state transition is appended to this JSONL
        journal and :meth:`resume` can restore the session mid-round
        after a crash.
    trust_policy:
        When given, an online :class:`~repro.core.trust.TrustSupervisor`
        tracks every panel member's accuracy posterior, injects gold
        probes, trust-weights the Bayesian update, and quarantines /
        re-admits workers through per-worker circuit breakers.  Probe
        answers are an operational QA cost: they are stripped before the
        belief update and are *not* charged against the checking budget
        ``B``.
    gold_facts:
        ``fact_id -> truth`` probe pool for the trust layer (see
        :func:`~repro.core.trust.select_gold_probes`).  Ignored without
        ``trust_policy``; an empty pool disables probing and probation,
        leaving trust to run on MAP agreement alone.
    seed:
        Seed of the session RNG (backoff jitter).
    sleep:
        Callable invoked with each backoff delay.  ``None`` (default)
        records the delay as a ``backoff`` event without actually
        waiting — right for simulation; live deployments pass
        ``time.sleep``.
    journal_metadata:
        Optional extra record — or sequence of records — appended
        between the journal's header and its first checkpoint (the
        campaign service stores its tenant identity here).  Each must
        carry a ``"kind"`` field; ignored without ``journal_path``.
    journal_header:
        ``False`` when the caller already initialized the journal file
        (header, metadata, its own bootstrap records) and will trigger
        the first checkpoint itself — the streaming runtime does this
        so its stream-offset extras ride on every checkpoint from the
        very first one.  Defaults to ``True`` (write header, metadata
        and an initial checkpoint on construction).
    checkpoint_extras:
        Optional zero-argument callable returning a JSON-serializable
        dict; when set, every checkpoint record carries its result
        under the ``"stream"`` key.  The streaming runtime uses this to
        persist its event-log offset, watermark and dedup state
        atomically with the session state.
    """

    def __init__(
        self,
        belief: FactoredBelief,
        experts: Crowd,
        budget: float,
        *,
        selector: Selector | None = None,
        k: int = 1,
        cost_model: CostModel | None = None,
        ground_truth: Mapping[int, bool] | None = None,
        retry_policy: RetryPolicy | None = None,
        reserve_experts: Crowd | None = None,
        journal_path: str | Path | None = None,
        trust_policy: TrustPolicy | None = None,
        gold_facts: Mapping[int, bool] | None = None,
        seed: int = 0,
        sleep: Callable[[float], None] | None = None,
        journal_metadata: dict | Sequence[dict] | None = None,
        journal_header: bool = True,
        checkpoint_extras: Callable[[], dict] | None = None,
    ):
        inner = OnlineCheckingSession(
            belief,
            experts,
            budget,
            selector=selector,
            k=k,
            cost_model=cost_model,
            ground_truth=ground_truth,
        )
        supervisor = (
            TrustSupervisor(experts, policy=trust_policy, gold=gold_facts)
            if trust_policy is not None
            else None
        )
        self._init_common(
            inner,
            cost_model=cost_model,
            retry_policy=retry_policy,
            reserve=list(reserve_experts) if reserve_experts else [],
            journal_path=journal_path,
            rng=np.random.default_rng(seed),
            sleep=sleep,
            supervisor=supervisor,
            checkpoint_extras=checkpoint_extras,
            # A caller that wrote the header itself may be continuing a
            # journal that predates this format.
            header_version=(
                journal_version(journal_path)
                if journal_path is not None and not journal_header
                else FORMAT_VERSION
            ),
        )
        if self._journal_path is not None and journal_header:
            # Caller-provided runtime metadata (e.g. the service's tenant
            # record) sits between the header and the first checkpoint,
            # so resume's cut back to the last checkpoint can never drop
            # it.
            start_journal(self._journal_path, budget, k, journal_metadata)
            self._journal_checkpoint(None)

    def _init_common(
        self,
        inner: OnlineCheckingSession,
        *,
        cost_model: CostModel | None,
        retry_policy: RetryPolicy | None,
        reserve: list,
        journal_path: str | Path | None,
        rng: np.random.Generator,
        sleep: Callable[[float], None] | None,
        supervisor: TrustSupervisor | None = None,
        checkpoint_extras: Callable[[], dict] | None = None,
        header_version: int = FORMAT_VERSION,
    ) -> None:
        self._inner = inner
        self._supervisor = supervisor
        self._checkpoint_extras = checkpoint_extras
        self._cost_model = cost_model or CostModel()
        self._retry = retry_policy or RetryPolicy()
        self._reserve = reserve
        self._journal_path = (
            Path(journal_path) if journal_path is not None else None
        )
        self._rng = rng
        self._sleep = sleep
        self._attempt = 0
        self._reassignments_used = 0
        self._round_events: list[FaultEvent] = []
        self._halted = False
        self._pending_source_state: dict | None = None
        self._checkpoints = CheckpointWriter(header_version)
        #: Every incident survived so far, in order of occurrence.
        self.incidents: list[FaultEvent] = []

    # ------------------------------------------------------------------
    # delegated accessors
    # ------------------------------------------------------------------

    @property
    def belief(self) -> FactoredBelief:
        return self._inner.belief

    @property
    def experts(self) -> Crowd:
        return self._inner.experts

    @property
    def remaining_budget(self) -> float:
        return self._inner.remaining_budget

    @property
    def spent_budget(self) -> float:
        return self._inner.spent_budget

    @property
    def history(self):
        return self._inner.history

    @property
    def is_finished(self) -> bool:
        return self._inner.is_finished or self._halted

    @property
    def halted(self) -> bool:
        return self._halted

    @property
    def pending_queries(self) -> tuple[int, ...] | None:
        return self._inner.pending_queries

    def final_labels(self) -> dict[int, bool]:
        return self._inner.final_labels()

    # ------------------------------------------------------------------
    # the resilient loop
    # ------------------------------------------------------------------

    def run(self, answer_source, max_rounds: int | None = None) -> ResilientRunResult:
        """Run the checking loop until the budget is exhausted.

        Unlike the strict loop, *no* crowd behavior raises out of this
        method: timeouts are retried with backoff, failed panels are
        reassigned, partial answers are accepted and charged pro rata,
        contradictory answers are tempered, and a permanently
        unanswerable query set halts the session gracefully with an
        ``abandoned`` incident instead of an exception.
        """
        if self._pending_source_state is not None:
            set_state = getattr(answer_source, "set_state", None)
            if callable(set_state):
                set_state(self._pending_source_state)
            self._pending_source_state = None
        rounds = 0
        while not self._halted and (
            max_rounds is None or rounds < max_rounds
        ):
            if self._inner.pending_queries is None:
                queries = self._inner.next_queries()
                if queries is None:
                    break
                self._attempt = 0
                self._reassignments_used = 0
                self._round_events = []
                if self._supervisor is not None:
                    # chosen before the round-start checkpoint so a
                    # resumed session replays the exact same probes
                    self._supervisor.select_probes(exclude=queries)
                self._journal_checkpoint(answer_source)
            else:
                # resumed mid-round: replay the journaled pending set
                queries = list(self._inner.pending_queries)
            probes = (
                self._supervisor.select_probes(exclude=queries)
                if self._supervisor is not None
                else ()
            )
            with OBS.phase("collect"):
                family = self._collect_with_retry(
                    answer_source, queries, probes
                )
            if family is None:
                # the round never completed; its collection incidents
                # would otherwise vanish with the abandoned record
                self.incidents.extend(self._round_events)
                self._round_events = []
                self._note(
                    FaultEvent(
                        kind="abandoned",
                        round_index=self._inner.round_index,
                        attempt=self._attempt,
                        fact_ids=tuple(queries),
                        detail="all retries and reassignments exhausted",
                    ),
                    attach_to_round=False,
                )
                self._inner.abandon_pending()
                if self._supervisor is not None:
                    self._supervisor.clear_probes()
                self._halted = True
                self._journal_checkpoint(answer_source)
                break
            before = len(self._round_events)
            record = self._inner.submit_partial(
                family,
                temper=True,
                fault_events=self._round_events,
                accuracy_overrides=(
                    self._supervisor.accuracy_overrides()
                    if self._supervisor is not None
                    else None
                ),
            )
            self.incidents.extend(record.fault_events[:before])
            for event in record.fault_events[before:]:
                # tempered updates surfaced by submit_partial
                self._note(event, attach_to_round=False)
            self._round_events = []
            if self._supervisor is not None:
                self._trust_post_round(answer_source, record, family)
            self._journal_checkpoint(answer_source)
            rounds += 1
        return self.result()

    def result(self) -> ResilientRunResult:
        """The campaign outcome so far."""
        return ResilientRunResult(
            belief=self._inner.belief,
            history=list(self._inner.history),
            incidents=list(self.incidents),
            halted=self._halted,
            trust=(
                self._supervisor.report()
                if self._supervisor is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # streaming integration: group growth and expert churn
    # ------------------------------------------------------------------

    def add_groups(
        self,
        states: Sequence[BeliefState],
        ground_truth: Mapping[int, bool] | None = None,
    ) -> list[int]:
        """Grow the belief with newly sealed streaming groups.

        Delegates to
        :meth:`~repro.simulation.online.OnlineCheckingSession.add_groups`.
        A session halted on an abandoned query set stays halted (that
        query set is still unanswerable), but one that merely ran out
        of selectable work is revived by the inner call.
        """
        return self._inner.add_groups(states, ground_truth)

    def note_incident(self, event: FaultEvent) -> None:
        """Record an externally observed incident (journaled; not
        attached to any round) — the streaming runtime's hook for
        ``group_sealed``/``late_drop`` events it detects itself."""
        self._note(event, attach_to_round=False)

    def apply_out_of_band(self, answer_set: AnswerSet) -> None:
        """Fold a late streamed answer set in with tempering, noting
        one ``late_admit`` incident per touched group."""
        for event in self._inner.apply_out_of_band(answer_set):
            self._note(event, attach_to_round=False)

    def adopt_expert(self, worker) -> bool:
        """Admit a worker who joined the stream onto the checking panel.

        Registered with the trust supervisor (fresh joiners start on the
        policy prior; rejoining workers keep their earlier posterior),
        so churned-in experts are immediately under CircuitBreaker/CUSUM
        supervision.  Returns ``False`` when the worker is already on
        the panel.
        """
        panel = list(self._inner.experts)
        if any(member.worker_id == worker.worker_id for member in panel):
            return False
        if self._supervisor is not None:
            self._supervisor.register(worker)
        self._inner.replace_experts(Crowd(panel + [worker]))
        self._note(
            FaultEvent(
                kind="worker_join",
                round_index=self._inner.round_index,
                worker_id=worker.worker_id,
                detail=f"stream join (accuracy {worker.accuracy:.3f})",
            ),
            attach_to_round=False,
        )
        return True

    def retire_expert(self, worker_id: str) -> bool:
        """Drop a departed worker from the panel and the reserve pool.

        Departure is not misbehavior: the worker is removed outright
        rather than quarantined (quarantine would schedule probation
        probes for someone who is gone).  Their trust posterior is kept,
        so a later rejoin resumes supervision where it left off.  The
        last panel member is retained — a checking campaign cannot run
        against an empty crowd — with the retention noted.
        """
        before = len(self._reserve)
        self._reserve = [
            member for member in self._reserve
            if member.worker_id != worker_id
        ]
        removed_reserve = len(self._reserve) != before
        panel = list(self._inner.experts)
        on_panel = any(
            member.worker_id == worker_id for member in panel
        )
        if not on_panel:
            if removed_reserve:
                self._note(
                    FaultEvent(
                        kind="worker_leave",
                        round_index=self._inner.round_index,
                        worker_id=worker_id,
                        detail="stream leave (was in reserve pool)",
                    ),
                    attach_to_round=False,
                )
            return removed_reserve
        remaining = [
            member for member in panel if member.worker_id != worker_id
        ]
        if not remaining:
            self._note(
                FaultEvent(
                    kind="worker_leave",
                    round_index=self._inner.round_index,
                    worker_id=worker_id,
                    detail=(
                        "stream leave ignored: last panel member "
                        "retained to keep the crowd non-empty"
                    ),
                ),
                attach_to_round=False,
            )
            return False
        self._inner.replace_experts(Crowd(remaining))
        self._note(
            FaultEvent(
                kind="worker_leave",
                round_index=self._inner.round_index,
                worker_id=worker_id,
                detail="stream leave (removed from panel)",
            ),
            attach_to_round=False,
        )
        return True

    # ------------------------------------------------------------------
    # collection with retry / backoff / reassignment
    # ------------------------------------------------------------------

    def _collect_with_retry(
        self,
        answer_source,
        queries: list[int],
        probes: Sequence[int] = (),
    ) -> PartialAnswerFamily | None:
        """Collect answers for one round, surviving transient failures.

        When the trust layer scheduled gold ``probes``, they ride along
        in the same collection request (indistinguishable from campaign
        queries to the workers), are scored against the gold truth, and
        are stripped back out before the family reaches the budget
        accounting and the Bayesian update.

        Returns ``None`` only when every retry against every available
        panel produced nothing.
        """
        collect_queries = list(queries) + [
            fact_id for fact_id in probes if fact_id not in queries
        ]
        while True:
            attempt = self._attempt
            failure_detail = ""
            partial: PartialAnswerFamily | None = None
            try:
                collected = answer_source.collect(
                    collect_queries, self._inner.experts
                )
            except AnswerCollectionTimeout as error:
                self._drain_source_events(answer_source, attempt)
                failure_detail = str(error)
            else:
                self._drain_source_events(answer_source, attempt)
                partial = self._coerce(collected, collect_queries)
                partial, probe_answers = self._strip_probes(partial, probes)
                partial = self._trim_to_budget(partial)
                if partial.num_answers > 0:
                    self._score_probes(probe_answers)
                    return partial
                self._note(
                    FaultEvent(
                        kind="empty_round",
                        round_index=self._inner.round_index,
                        attempt=attempt,
                        fact_ids=tuple(queries),
                        detail="attempt produced zero answers",
                    )
                )
            self._attempt += 1
            if self._attempt >= self._retry.max_attempts:
                if (
                    self._reassignments_used < self._retry.max_reassignments
                    and self._reserve
                ):
                    self._reassign(queries)
                    self._attempt = 0
                    self._reassignments_used += 1
                    self._journal_checkpoint(answer_source)
                    continue
                # no checkpoint here: the caller's abandoned path notes
                # the outcome and checkpoints the halted state
                return None
            delay = self._retry.delay_for(self._attempt - 1, self._rng)
            self._note(
                FaultEvent(
                    kind="backoff",
                    round_index=self._inner.round_index,
                    attempt=self._attempt,
                    fact_ids=tuple(queries),
                    detail=(
                        f"waiting {delay:.3f}s before attempt "
                        f"{self._attempt + 1}"
                        + (f" ({failure_detail})" if failure_detail else "")
                    ),
                )
            )
            # checkpoint only after the backoff delay was drawn and the
            # event noted, so the snapshot (incidents + round_events +
            # RNG state) is consistent: a resumed replay starts exactly
            # at the next collection attempt and regenerates every
            # journal record that followed this checkpoint
            self._journal_checkpoint(answer_source)
            if self._sleep is not None and delay > 0.0:
                self._sleep(delay)

    def _strip_probes(
        self, partial: PartialAnswerFamily, probes: Sequence[int]
    ) -> tuple[PartialAnswerFamily, dict[str, dict[int, bool]]]:
        """Split gold-probe answers out of a collected family.

        The returned family covers only the campaign queries (probe
        answers must never reach the budget accounting or the belief
        update); the mapping holds each worker's probe answers for
        trust scoring.
        """
        if not probes:
            return partial, {}
        probe_set = set(probes)
        kept: list[AnswerSet] = []
        probe_answers: dict[str, dict[int, bool]] = {}
        for answer_set in partial.answer_sets:
            regular = {
                fact_id: answer
                for fact_id, answer in answer_set.answers.items()
                if fact_id not in probe_set
            }
            probed = {
                fact_id: answer
                for fact_id, answer in answer_set.answers.items()
                if fact_id in probe_set
            }
            if probed:
                probe_answers[answer_set.worker.worker_id] = probed
            if regular:
                kept.append(
                    AnswerSet(worker=answer_set.worker, answers=regular)
                )
        stripped = PartialAnswerFamily(
            intended_query_fact_ids=tuple(
                fact_id
                for fact_id in partial.intended_query_fact_ids
                if fact_id not in probe_set
            ),
            intended_worker_ids=partial.intended_worker_ids,
            answer_sets=tuple(kept),
        )
        return stripped, probe_answers

    def _score_probes(
        self, probe_answers: Mapping[str, Mapping[int, bool]]
    ) -> None:
        """Fold gold-probe answers into trust at weight 1."""
        if self._supervisor is None or not probe_answers:
            return
        for worker_id in sorted(probe_answers):
            answers = probe_answers[worker_id]
            correct, total = self._supervisor.score_gold(worker_id, answers)
            self._note(
                FaultEvent(
                    kind="gold_probe",
                    round_index=self._inner.round_index,
                    attempt=self._attempt,
                    worker_id=worker_id,
                    fact_ids=tuple(sorted(answers)),
                    detail=f"{correct}/{total} gold probes correct",
                )
            )

    def _coerce(
        self, collected, queries: Sequence[int]
    ) -> PartialAnswerFamily:
        if isinstance(collected, PartialAnswerFamily):
            return collected
        if isinstance(collected, AnswerFamily):
            return PartialAnswerFamily.from_family(collected)
        raise TypeError(
            "answer source must return AnswerFamily or "
            f"PartialAnswerFamily, got {type(collected).__name__}"
        )

    def _trim_to_budget(
        self, partial: PartialAnswerFamily
    ) -> PartialAnswerFamily:
        """Drop answer sets (priciest first) until the family fits the
        remaining budget — reassigned workers can cost more than the
        panel the round was sized for."""
        remaining = self._inner.remaining_budget
        answer_sets = list(partial.answer_sets)
        if self._cost_model.family_cost(answer_sets) <= remaining + 1e-9:
            return partial
        answer_sets.sort(
            key=lambda answer_set: self._cost_model.answer_cost(
                answer_set.worker
            )
            * len(answer_set.answers)
        )
        dropped: list[str] = []
        while (
            answer_sets
            and self._cost_model.family_cost(answer_sets) > remaining + 1e-9
        ):
            dropped.append(answer_sets.pop().worker.worker_id)
        if dropped:
            self._note(
                FaultEvent(
                    kind="budget_clip",
                    round_index=self._inner.round_index,
                    attempt=self._attempt,
                    detail=(
                        f"dropped answers from {dropped} to fit the "
                        f"remaining budget {remaining:.2f}"
                    ),
                )
            )
        return PartialAnswerFamily(
            intended_query_fact_ids=partial.intended_query_fact_ids,
            intended_worker_ids=partial.intended_worker_ids,
            answer_sets=tuple(answer_sets),
        )

    def _reassign(self, queries: Sequence[int]) -> None:
        """Swap as many failed panel members for reserves as possible."""
        panel = list(self._inner.experts)
        take = min(len(panel), len(self._reserve))
        replacements = self._reserve[:take]
        del self._reserve[:take]
        new_panel = Crowd(replacements + panel[take:])
        if self._supervisor is not None:
            for worker in replacements:
                self._supervisor.register(worker)
        self._inner.replace_experts(new_panel)
        self._note(
            FaultEvent(
                kind="reassignment",
                round_index=self._inner.round_index,
                attempt=self._attempt,
                fact_ids=tuple(queries),
                detail=(
                    f"replaced {[worker.worker_id for worker in panel[:take]]}"
                    f" with {[worker.worker_id for worker in replacements]}"
                ),
            )
        )

    # ------------------------------------------------------------------
    # trust supervision (post-round)
    # ------------------------------------------------------------------

    def _trust_post_round(
        self, answer_source, record, family: PartialAnswerFamily
    ) -> None:
        """Advance the trust layer after a completed round.

        Folds the round's answers into every responder's posterior
        (agreement with the *post-update* MAP labels; facts in the gold
        pool against gold), ticks every circuit breaker, and acts on the
        decisions: quarantines through the reassignment path, probation
        probes for cooled-down workers, re-admission for workers that
        pass.
        """
        supervisor = self._supervisor
        assert supervisor is not None
        answers_by_worker = {
            answer_set.worker.worker_id: dict(answer_set.answers)
            for answer_set in family.answer_sets
        }
        supervisor.observe_round(answers_by_worker, self._inner.final_labels())
        supervisor.clear_probes()
        round_index = record.round_index
        decisions = supervisor.evaluate(
            round_index, self._inner.experts.worker_ids
        )
        for decision in decisions:
            if decision.kind == "drift":
                self._note(
                    FaultEvent(
                        kind="drift",
                        round_index=round_index,
                        worker_id=decision.worker_id,
                        detail=decision.reason,
                    ),
                    attach_to_round=False,
                )
            elif decision.kind == "quarantine":
                self._quarantine(decision, round_index)
            elif decision.kind == "probation":
                self._probation(answer_source, decision, round_index)

    def _quarantine(self, decision, round_index: int) -> None:
        """Pull a tripped worker from the panel, substituting a reserve."""
        supervisor = self._supervisor
        panel = list(self._inner.experts)
        worker = next(
            member for member in panel
            if member.worker_id == decision.worker_id
        )
        remaining = [
            member for member in panel
            if member.worker_id != decision.worker_id
        ]
        replacement = None
        if self._reserve:
            replacement = self._reserve.pop(0)
            supervisor.register(replacement)
            remaining.append(replacement)
        supervisor.quarantine_worker(worker)
        if not remaining:
            # Never empty the panel: the worker stays active (their
            # trust-weighted accuracy already discounts their answers)
            # while the open breaker keeps them on the probation track.
            detail = (
                f"{decision.reason} (no reserves; worker retained to "
                "keep the panel non-empty)"
            )
        else:
            self._inner.replace_experts(Crowd(remaining))
            detail = decision.reason + (
                f"; replaced by {replacement.worker_id!r}"
                if replacement is not None
                else "; no reserve available"
            )
        self._note(
            FaultEvent(
                kind="quarantine",
                round_index=round_index,
                worker_id=worker.worker_id,
                detail=detail,
            ),
            attach_to_round=False,
        )

    def _probation(self, answer_source, decision, round_index: int) -> None:
        """Send one half-open worker their gold probation probes."""
        supervisor = self._supervisor
        worker = next(
            (
                candidate
                for candidate in supervisor.quarantined_workers
                if candidate.worker_id == decision.worker_id
            ),
            None,
        )
        if worker is None:
            return
        probe_facts = supervisor.probation_probes_for(worker.worker_id)
        if not probe_facts:
            # no gold pool: probation is impossible, the worker stays
            # half-open (and benched) for the rest of the campaign
            return
        try:
            collected = answer_source.collect(
                list(probe_facts), Crowd([worker])
            )
        except AnswerCollectionTimeout as error:
            # the round is already finalized; probation incidents go
            # straight to the session log, not the (closed) round record
            self._drain_source_events(
                answer_source, attempt=0, attach_to_round=False
            )
            self._note(
                FaultEvent(
                    kind="probation",
                    round_index=round_index,
                    worker_id=worker.worker_id,
                    fact_ids=probe_facts,
                    detail=f"probation attempt timed out ({error}); "
                           "retrying next round",
                ),
                attach_to_round=False,
            )
            return
        self._drain_source_events(
            answer_source, attempt=0, attach_to_round=False
        )
        partial = self._coerce(collected, list(probe_facts))
        answers: dict[int, bool] = {}
        for answer_set in partial.answer_sets:
            if answer_set.worker.worker_id == worker.worker_id:
                answers = dict(answer_set.answers)
        verdict = supervisor.score_probation(
            worker.worker_id, answers, round_index
        )
        self._note(
            FaultEvent(
                kind="probation",
                round_index=round_index,
                worker_id=worker.worker_id,
                fact_ids=probe_facts,
                detail=verdict.reason,
            ),
            attach_to_round=False,
        )
        if verdict.kind == "readmit":
            panel = list(self._inner.experts)
            if all(
                member.worker_id != worker.worker_id for member in panel
            ):
                self._inner.replace_experts(Crowd(panel + [worker]))
            self._note(
                FaultEvent(
                    kind="readmit",
                    round_index=round_index,
                    worker_id=worker.worker_id,
                    detail=verdict.reason,
                ),
                attach_to_round=False,
            )

    def _drain_source_events(
        self, answer_source, attempt: int, attach_to_round: bool = True
    ) -> None:
        drain = getattr(answer_source, "drain_events", None)
        if not callable(drain):
            return
        for event in drain():
            self._note(
                event.stamped(self._inner.round_index, attempt),
                attach_to_round=attach_to_round,
            )

    def _note(self, event: FaultEvent, attach_to_round: bool = True) -> None:
        """Record an incident: journal it and, unless told otherwise,
        queue it for attachment to the current round's record."""
        if attach_to_round:
            self._round_events.append(event)
        else:
            self.incidents.append(event)
        if self._journal_path is not None:
            append_journal_record(
                self._journal_path,
                {"kind": "event", "event": fault_event_to_dict(event)},
            )

    # ------------------------------------------------------------------
    # journal / resume
    # ------------------------------------------------------------------

    def _journal_checkpoint(self, answer_source) -> None:
        if self._journal_path is None:
            return
        with OBS.phase("journal"):
            self._write_checkpoint(answer_source)

    def _write_checkpoint(self, answer_source) -> None:
        writer = self._checkpoints
        state = self._inner.checkpoint_state()
        record: dict = {
            "kind": "checkpoint",
            "session": writer.session(state),
            "panel": crowd_to_dict(self._inner.experts, writer.version),
            "reserve": crowd_to_dict(Crowd(self._reserve), writer.version),
            "attempt": self._attempt,
            "reassignments_used": self._reassignments_used,
            "round_events": [
                fault_event_to_dict(event) for event in self._round_events
            ],
            "halted": self._halted,
            "rng": self._rng.bit_generator.state,
        }
        if self._supervisor is not None:
            record["trust"] = self._supervisor.get_state()
        if answer_source is not None:
            get_state = getattr(answer_source, "get_state", None)
            if callable(get_state):
                record["source"] = get_state()
        if self._checkpoint_extras is not None:
            record["stream"] = self._checkpoint_extras()
        append_journal_record(self._journal_path, record)
        writer.wrote(state)

    def rewind_source(self, answer_source) -> None:
        """Apply the journaled answer-source state immediately.

        :meth:`run` does this lazily on its next call; callers that may
        checkpoint a finished session *without* running it again (the
        streaming runtime keeps checkpointing event boundaries after
        the budget is spent) rewind eagerly so those checkpoints carry
        the journaled source state, not a freshly seeded one.
        """
        if self._pending_source_state is None:
            return
        set_state = getattr(answer_source, "set_state", None)
        if callable(set_state):
            set_state(self._pending_source_state)
        self._pending_source_state = None

    def checkpoint(self, answer_source=None) -> None:
        """Force a checkpoint now (streaming event-boundary hook).

        The resilient loop checkpoints at its own transitions; the
        streaming runtime additionally checkpoints after every admitted
        event so a ``kill -9`` at any event boundary resumes
        exactly-once.  No-op without a journal.
        """
        self._journal_checkpoint(answer_source)

    def set_checkpoint_extras(
        self, checkpoint_extras: Callable[[], dict] | None
    ) -> None:
        """Install (or clear) the per-checkpoint extras provider.

        :meth:`resume` cannot receive the callable through the journal;
        the streaming runtime re-attaches it here after restoring."""
        self._checkpoint_extras = checkpoint_extras

    @classmethod
    def resume(
        cls,
        journal_path: str | Path,
        *,
        experts: Crowd | None = None,
        selector: Selector | None = None,
        cost_model: CostModel | None = None,
        retry_policy: RetryPolicy | None = None,
        reserve_experts: Crowd | None = None,
        sleep: Callable[[float], None] | None = None,
        records: list[dict] | None = None,
    ) -> "ResilientCheckingSession":
        """Restore a session from its journal, mid-round if need be.

        The journal's last intact checkpoint supplies the belief, budget
        accounting, pending queries, retry counters, panel composition
        and RNG states; behavioral components (selector, cost model,
        retry policy, sleep hook) are code, not state, and are supplied
        again by the caller.  If the journaled answer source exposed RNG
        state, the source passed to the next :meth:`run` call is rewound
        to it, making the resumed continuation byte-identical to an
        uninterrupted run.  ``records`` are the journal's records from a
        resume that already ran
        :func:`~repro.storage.integrity.recover_for_resume` on it (the
        streaming resume), so the file is not read twice.  The
        session's journal writer is primed from the
        :func:`~repro.core.serialization.fold_checkpoints` of the
        checkpoint lines, so its next checkpoint line is the one the
        uninterrupted run wrote.
        """
        if records is None:
            # Salvage first (a torn trailing line; on v8 journals also
            # interior corruption), then cut the records past the last
            # checkpoint: the replay re-journals the in-flight round's
            # records byte-for-byte, so resumed appends extend the
            # journal byte-identically to an uninterrupted run.
            from ..storage.integrity import recover_for_resume

            records = recover_for_resume(journal_path, ("checkpoint",))
        checkpoint_indices = [
            index
            for index, record in enumerate(records)
            if record.get("kind") == "checkpoint"
        ]
        if not checkpoint_indices:
            raise SerializationError(
                f"journal {journal_path} has no intact checkpoint"
            )
        last_index = checkpoint_indices[-1]
        last = records[last_index]
        checkpoint = fold_checkpoints(records)
        try:
            panel = (
                experts
                if experts is not None
                else crowd_from_dict(last["panel"])
            )
            inner = OnlineCheckingSession.from_checkpoint(
                checkpoint,
                panel,
                selector=selector,
                cost_model=cost_model,
            )
            session = cls.__new__(cls)
            reserve = (
                list(reserve_experts)
                if reserve_experts is not None
                else list(crowd_from_dict(last.get("reserve", {"workers": []})))
            )
            rng = np.random.default_rng(0)
            rng.bit_generator.state = last["rng"]
            trust_state = last.get("trust")
            supervisor = (
                TrustSupervisor.from_state(trust_state)
                if trust_state is not None
                else None
            )
            session._init_common(
                inner,
                cost_model=cost_model,
                retry_policy=retry_policy,
                reserve=reserve,
                journal_path=journal_path,
                rng=rng,
                sleep=sleep,
                supervisor=supervisor,
                header_version=records[0].get("version", 1),
            )
            session._checkpoints.wrote(inner.checkpoint_state())
            session._attempt = int(last.get("attempt", 0))
            session._reassignments_used = int(
                last.get("reassignments_used", 0)
            )
            session._round_events = [
                fault_event_from_dict(event)
                for event in last.get("round_events", ())
            ]
            session._halted = bool(last.get("halted", False))
            session._pending_source_state = last.get("source")
            # Rebuild the incident log from the event records preceding
            # the resume checkpoint.  Records after it belong to work the
            # replay will redo (and re-journal), and the in-flight
            # round's events live in ``round_events`` — they rejoin
            # ``incidents`` when the replayed round completes — so both
            # must be excluded or a resumed campaign double-counts them.
            event_payloads = [
                dict(record["event"])
                for record in records[:last_index]
                if record.get("kind") == "event"
            ]
            for in_flight in reversed(last.get("round_events", ())):
                for position in range(len(event_payloads) - 1, -1, -1):
                    if event_payloads[position] == in_flight:
                        del event_payloads[position]
                        break
            session.incidents = [
                fault_event_from_dict(payload) for payload in event_payloads
            ]
        except (KeyError, TypeError, ValueError) as error:
            if isinstance(error, SerializationError):
                raise
            raise SerializationError(
                f"malformed journal checkpoint: {error}"
            ) from error
        return session
