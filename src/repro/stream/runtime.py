"""The streaming campaign: admit the delivered stream, exactly-once.

:class:`StreamingCampaign` closes the loop between the event log
(:mod:`~repro.stream.arrivals`), the degraded delivery schedule
(:mod:`~repro.stream.chaos`), the incremental initializer
(:mod:`~repro.stream.incremental`) and the fault-tolerant checking
session (:mod:`~repro.simulation.resilient`):

1. **Admit** the next delivered event: dedup on ``seq`` (duplicates
   from chaos or redelivery are dropped — exactly-once ingestion),
   classify against the watermark (on-time / late-within-straggler /
   too-late-dropped), and fold it into the builder, the simulated
   expert panel's ground truth, or the checking panel (worker churn,
   routed through the trust supervisor's CircuitBreaker/CUSUM state via
   :meth:`~repro.simulation.resilient.ResilientCheckingSession.adopt_expert`
   / ``retire_expert``).
2. **Seal** whatever head chunks the builder says are ready — normally
   or by straggler timeout — and grow the live session's belief
   (mid-campaign group formation; the first seal *creates* the
   session).
3. **Drive** up to ``rounds_per_event`` checking rounds.
4. **Checkpoint** at the event boundary.

Every checkpoint — the session's own round checkpoints included —
carries the stream cursor, dedup state, watermark and builder state
under the ``"stream"`` key (FORMAT_VERSION 7), so a campaign killed at
*any* event boundary resumes exactly-once: :meth:`resume` replays from
the last intact checkpoint and the continued journal is byte-identical
to an uninterrupted run over the same delivered stream.

Before the first group seals there is no session and no budget spend;
the runtime journals its own ``{"kind": "stream_checkpoint"}`` records
(one per delivered event) so even a bootstrap-phase kill resumes
exactly-once.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.answers import AnswerSet
from ..core.budget import CostModel
from ..core.incidents import FaultEvent
from ..core.kernel import default_belief_epsilon
from ..core.observations import BeliefState, FactoredBelief
from ..core.selection import Selector
from ..core.serialization import (
    SerializationError,
    append_journal_record,
    crowd_from_dict,
    crowd_to_dict,
    header_field,
    journal_version,
    payload_version,
    start_journal,
)
from ..core.trust import TrustPolicy
from ..core.workers import Crowd, Worker
from ..obs import OBS
from ..simulation.oracle import SimulatedExpertPanel
from ..simulation.resilient import (
    ResilientCheckingSession,
    ResilientRunResult,
    RetryPolicy,
)
from ..simulation.session import check_budget, check_k
from .arrivals import make_arrivals
from .chaos import StreamChaos
from .events import StreamEvent
from .incremental import StreamingBeliefBuilder, WatermarkTracker

#: Seed salt of the simulated expert panel's answer stream.
_SOURCE_SALT = 0x50CE


#: Records a resume restarts from: the last session checkpoint, or in
#: the bootstrap phase the last ``stream_checkpoint`` — else the
#: ``stream`` config record that closes the metadata prefix.  No
#: ``stream_checkpoint`` follows the first session checkpoint, so the
#: last of these is always the right boundary.
_RESUME_BOUNDARY = ("checkpoint", "stream_checkpoint", "stream")


class _DictStatsView:
    """Give a live counters dict the ``as_dict()`` face that
    :meth:`Observability.publish_deltas` wants, with a stable identity
    to carry the last-published snapshot between rounds."""

    def __init__(self, mapping: dict):
        self._mapping = mapping

    def as_dict(self) -> dict:
        return self._mapping


@dataclass(frozen=True)
class StreamSpec:
    """Configuration of a streamed campaign (journaled verbatim).

    Everything needed to regenerate the event log from the dataset and
    to re-derive the degraded delivery schedule lives here, so
    detach/reattach and CLI resume work from the journal alone plus the
    dataset.

    Parameters
    ----------
    arrival, rate:
        Arrival-process shape (``poisson`` / ``bursty`` / ``stalled``)
        and target events/second.
    theta:
        Expert / preliminary crowd split threshold.
    votes_per_fact:
        Simulated preliminary votes per streamed fact.
    group_size, target_votes, smoothing:
        Incremental-initialization knobs (see
        :class:`~repro.stream.incremental.StreamingBeliefBuilder`).
    allowed_lateness, straggler_timeout:
        Watermark grace and the forced-seal / late-drop horizon, in
        event-time seconds.
    rounds_per_event:
        Checking rounds driven after each admitted event.
    events_per_step:
        Delivered events consumed per service ``step()``.
    churn:
        Per-slot probability of an expert leave/join event.
    window:
        Fact-interleaving lookahead of the generator.
    seed:
        Seed of the generator and of the simulated expert panel.
    chaos:
        Optional :class:`~repro.stream.chaos.StreamChaos` delivery
        degradation.
    belief_epsilon:
        Truncation budget of the sparse belief kernel applied to sealed
        groups (see
        :class:`~repro.stream.incremental.StreamingBeliefBuilder`);
        ``0`` keeps the exact dense kernel.  Defaults from the
        ``REPRO_BELIEF_EPSILON`` environment variable so the CI kernel
        leg can flip whole streamed suites onto the truncated kernel.
    """

    arrival: str = "poisson"
    rate: float = 50.0
    theta: float = 0.9
    votes_per_fact: int = 3
    group_size: int = 3
    target_votes: int = 2
    smoothing: float = 0.01
    allowed_lateness: float = 2.0
    straggler_timeout: float = 20.0
    rounds_per_event: int = 1
    events_per_step: int = 8
    churn: float = 0.0
    window: int = 2
    seed: int = 0
    chaos: StreamChaos | None = None
    belief_epsilon: float = field(default_factory=default_belief_epsilon)

    def __post_init__(self) -> None:
        # Every value the runtime would refuse later, or misuse, is
        # refused here, before a service admits the campaign.  The
        # comparisons are written so that NaN fails them.
        make_arrivals(self.arrival, self.rate)
        for name, low in (
            ("group_size", 1),
            ("window", 1),
            ("rounds_per_event", 1),
            ("events_per_step", 1),
            ("votes_per_fact", 0),
            ("target_votes", 0),
            ("seed", 0),
        ):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be at least {low}")
        for name in ("allowed_lateness", "straggler_timeout"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if not 0.0 <= self.churn <= 1.0:
            raise ValueError("churn must lie in [0, 1]")
        if not 0.0 < self.smoothing < 0.5:
            raise ValueError("smoothing must lie in (0, 0.5)")
        if not 0.0 <= self.belief_epsilon < 1.0:
            raise ValueError("belief_epsilon must lie in [0, 1)")

    def to_dict(self) -> dict:
        payload = {
            "arrival": self.arrival,
            "rate": self.rate,
            "theta": self.theta,
            "votes_per_fact": self.votes_per_fact,
            "group_size": self.group_size,
            "target_votes": self.target_votes,
            "smoothing": self.smoothing,
            "allowed_lateness": self.allowed_lateness,
            "straggler_timeout": self.straggler_timeout,
            "rounds_per_event": self.rounds_per_event,
            "events_per_step": self.events_per_step,
            "churn": self.churn,
            "window": self.window,
            "seed": self.seed,
        }
        if self.chaos is not None:
            payload["chaos"] = self.chaos.to_dict()
        # Emitted only when set, like ``chaos``: exact-kernel journals
        # must stay byte-identical to the pre-kernel corpus.
        if self.belief_epsilon:
            payload["belief_epsilon"] = self.belief_epsilon
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StreamSpec":
        chaos = payload.get("chaos")
        return cls(
            arrival=str(payload.get("arrival", "poisson")),
            rate=float(payload.get("rate", 50.0)),
            theta=float(payload.get("theta", 0.9)),
            votes_per_fact=int(payload.get("votes_per_fact", 3)),
            group_size=int(payload.get("group_size", 3)),
            target_votes=int(payload.get("target_votes", 2)),
            smoothing=float(payload.get("smoothing", 0.01)),
            allowed_lateness=float(payload.get("allowed_lateness", 2.0)),
            straggler_timeout=float(
                payload.get("straggler_timeout", 20.0)
            ),
            rounds_per_event=int(payload.get("rounds_per_event", 1)),
            events_per_step=int(payload.get("events_per_step", 8)),
            churn=float(payload.get("churn", 0.0)),
            window=int(payload.get("window", 2)),
            seed=int(payload.get("seed", 0)),
            chaos=(
                StreamChaos.from_dict(chaos) if chaos is not None else None
            ),
            belief_epsilon=float(payload.get("belief_epsilon", 0.0)),
        )


class StreamingCampaign:
    """Drive a checking campaign from a delivered event stream.

    Parameters
    ----------
    events:
        The *generated* event log (see
        :func:`~repro.stream.arrivals.generate_event_stream`); the
        degraded delivery order is derived from ``spec.chaos``.
    experts:
        The initial checking panel; stream churn grows/shrinks it.
    budget:
        Checking budget.
    spec:
        The :class:`StreamSpec`; journaled so resume can rebuild the
        delivery schedule.
    journal_path, journal_metadata:
        As on :class:`~repro.simulation.resilient.ResilientCheckingSession`;
        the runtime writes the header (at
        :data:`~repro.core.serialization.FORMAT_VERSION`), metadata and
        stream config itself, then hands the journal to the session it
        creates on first seal.
    selector, k, cost_model, retry_policy, reserve_experts,
    trust_policy, gold_facts, sleep:
        Forwarded to the checking session when the first group seals.
    """

    def __init__(
        self,
        events: Sequence[StreamEvent],
        experts: Crowd,
        budget: float,
        *,
        spec: StreamSpec | None = None,
        journal_path: str | Path | None = None,
        journal_metadata: "dict | Sequence[dict] | None" = None,
        selector: Selector | None = None,
        k: int = 1,
        cost_model: CostModel | None = None,
        retry_policy: RetryPolicy | None = None,
        reserve_experts: Crowd | None = None,
        trust_policy: TrustPolicy | None = None,
        gold_facts: Mapping[int, bool] | None = None,
        sleep: Callable[[float], None] | None = None,
    ):
        # Refused before the journal header records them: a NaN budget
        # would be written as invalid JSON and refused only at the first
        # seal.
        check_budget(budget)
        check_k(k)
        self._spec = spec or StreamSpec()
        self._events = list(events)
        chaos = self._spec.chaos
        self._delivery = (
            chaos.plan_delivery(self._events)
            if chaos is not None and chaos.enabled
            else list(self._events)
        )
        self._budget = budget
        self._selector = selector
        self._k = int(k)
        self._cost_model = cost_model
        self._retry_policy = retry_policy
        self._reserve_experts = reserve_experts
        self._trust_policy = trust_policy
        self._gold_facts = gold_facts
        self._sleep = sleep
        self._journal_path = (
            Path(journal_path) if journal_path is not None else None
        )

        self._session: ResilientCheckingSession | None = None
        self._source: SimulatedExpertPanel | None = None
        self._restore_extras(None)
        self._bootstrap_experts: list[Worker] = list(experts)
        #: Wall-clock seconds from event delivery to belief commit,
        #: one entry per delivery slot (bench-only; never journaled).
        self.event_latencies: list[float] = []
        if self._journal_path is not None:
            self._init_journal(journal_metadata)

    def _make_builder(self) -> StreamingBeliefBuilder:
        builder = StreamingBeliefBuilder(
            group_size=self._spec.group_size,
            target_votes=self._spec.target_votes,
            smoothing=self._spec.smoothing,
            straggler_timeout=self._spec.straggler_timeout,
            belief_epsilon=self._spec.belief_epsilon,
        )
        builder.on_degenerate = self._count_degenerate
        return builder

    def _count_degenerate(self) -> None:
        """Degenerate seal observed; the incident is noted once the
        session exists (the first seal is what creates it)."""
        self._degenerate_seals += 1

    # ------------------------------------------------------------------
    # journal bootstrap
    # ------------------------------------------------------------------

    def _init_journal(self, journal_metadata) -> None:
        start_journal(
            self._journal_path, self._budget, self._k, journal_metadata
        )
        append_journal_record(
            self._journal_path,
            {
                "kind": "stream",
                "config": self._spec.to_dict(),
                "num_events": len(self._events),
            },
        )
        self._checkpoint_boundary()

    def _extras(self) -> dict:
        extras = {
            "boundary": self._at_boundary,
            "cursor": self._cursor,
            "rounds_done": self._rounds_done,
            "dedup_low": self._dedup_low,
            "dedup_extra": sorted(self._dedup_extra),
            "watermark": self._watermark.state(),
            "builder": self._builder.state(),
            "truth": {
                str(fact_id): bool(value)
                for fact_id, value in self._truth.items()
            },
            "stats": dict(self._stats),
        }
        if self._session is None:
            # Bootstrap records only; a journal that predates v9 keeps
            # its version-8 crowds.
            extras["experts"] = crowd_to_dict(
                Crowd(self._bootstrap_experts),
                payload_version(journal_version(self._journal_path)),
            )
        return extras

    def _checkpoint_boundary(self) -> None:
        """Event-boundary checkpoint: via the session once it exists,
        as a standalone ``stream_checkpoint`` record before then."""
        self._at_boundary = True
        if self._journal_path is None:
            return
        if self._session is not None:
            self._session.checkpoint(self._source)
        else:
            append_journal_record(
                self._journal_path,
                {"kind": "stream_checkpoint", "stream": self._extras()},
            )

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------

    @property
    def spec(self) -> StreamSpec:
        return self._spec

    @property
    def session(self) -> ResilientCheckingSession | None:
        return self._session

    @property
    def cursor(self) -> int:
        """Delivery slots consumed so far."""
        return self._cursor

    @property
    def total_deliveries(self) -> int:
        return len(self._delivery)

    @property
    def backlog(self) -> int:
        """Undelivered events plus unsealed pending facts — the
        pressure signal fed to the service's admission controller."""
        return (
            len(self._delivery) - self._cursor
            + self._builder.pending_count
        )

    @property
    def drained(self) -> bool:
        return self._cursor >= len(self._delivery)

    @property
    def finished(self) -> bool:
        return self.drained and (
            self._session is None
            or (self._session.is_finished and self._builder.pending_count == 0)
        )

    @property
    def spent_budget(self) -> float:
        return 0.0 if self._session is None else self._session.spent_budget

    def stats(self) -> dict:
        summary = dict(self._stats)
        summary["cursor"] = self._cursor
        summary["deliveries"] = len(self._delivery)
        summary["backlog"] = self.backlog
        summary["watermark"] = self._watermark.watermark
        return summary

    def result(self) -> ResilientRunResult | None:
        return None if self._session is None else self._session.result()

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------

    def run(self, max_events: int | None = None) -> dict:
        """Consume up to ``max_events`` delivery slots (all, if None).

        Each slot is admit → seal → drive rounds → boundary checkpoint.
        Once the stream drains, remaining pending facts are flushed into
        final groups and the checking session runs to completion.
        Returns :meth:`stats`.
        """
        processed = 0
        if not self._at_boundary:
            # Resumed mid-event: finish the interrupted slot's rounds
            # and boundary checkpoint before consuming new deliveries.
            # ``rounds_done`` is incremented *after* the session's own
            # post-round checkpoint, so the checkpointed count is one
            # behind once the in-flight round commits — replay the
            # pending round if there is one, then account for it.
            if (
                self._session is not None
                and self._session.pending_queries is not None
            ):
                self._session.run(self._source, max_rounds=1)
            if self._session is not None:
                self._rounds_done += 1
            self._drive_rounds()
            self._checkpoint_boundary()
            processed += 1
        while self._cursor < len(self._delivery):
            if max_events is not None and processed >= max_events:
                return self.stats()
            started = _time.perf_counter()
            self._at_boundary = False
            self._rounds_done = 0
            event = self._delivery[self._cursor]
            self._cursor += 1
            with OBS.phase("admit"):
                self._admit(event)
            with OBS.phase("seal"):
                self._seal_ready()
            self._drive_rounds()
            self._checkpoint_boundary()
            self.event_latencies.append(_time.perf_counter() - started)
            processed += 1
            if OBS.enabled:
                OBS.registry.histogram(
                    "repro_stream_event_seconds",
                    "Delivery-slot wall-clock (admit through checkpoint)",
                ).observe(self.event_latencies[-1])
                OBS.publish_deltas("repro_stream", self._obs_stats)
        self._drain()
        return self.stats()

    def _drain(self) -> None:
        """End of stream: flush every pending fact into final groups
        and run the checking session until budget or work runs out."""
        remaining = self._builder.flush()
        if remaining:
            self._stats["groups_sealed"] += len(remaining)
            self._stats["forced_seals"] += len(remaining)
            self._ingest_groups(remaining, forced=True)
        if self._session is not None and not self._session.is_finished:
            self._session.run(self._source)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def _admit(self, event: StreamEvent) -> None:
        if self._is_duplicate(event.seq):
            self._stats["duplicates"] += 1
            return
        self._mark_seen(event.seq)
        lateness = self._watermark.lateness_of(event.time)
        if lateness > self._spec.straggler_timeout:
            # Too far behind even the straggler grace: drop, tempered
            # degradation's hard edge.  The seq stays marked seen, so a
            # duplicate of a dropped event is still a duplicate.
            self._stats["late_dropped"] += 1
            if self._session is not None:
                self._session.note_incident(
                    FaultEvent(
                        kind="late_drop",
                        detail=(
                            f"event seq={event.seq} arrived "
                            f"{lateness:.3f}s past the watermark"
                        ),
                    )
                )
            return
        late = lateness > 0.0
        self._watermark.observe(event.time)
        self._stats["admitted"] += 1
        if late:
            self._stats["late_admitted"] += 1
        handler = getattr(self, f"_on_{event.kind}")
        handler(event)

    def _is_duplicate(self, seq: int) -> bool:
        return seq < self._dedup_low or seq in self._dedup_extra

    def _mark_seen(self, seq: int) -> None:
        if seq == self._dedup_low:
            self._dedup_low += 1
            while self._dedup_low in self._dedup_extra:
                self._dedup_extra.discard(self._dedup_low)
                self._dedup_low += 1
        else:
            self._dedup_extra.add(seq)

    # -- per-kind handlers ---------------------------------------------

    def _on_new_fact(self, event: StreamEvent) -> None:
        payload = event.payload
        fact_id = int(payload["fact_id"])
        truth = bool(payload["truth"])
        self._truth[fact_id] = truth
        if self._source is not None:
            self._source.extend_truth({fact_id: truth})
        self._builder.add_fact(
            fact_id,
            instance_id=str(payload.get("instance_id", "")),
            label=str(payload.get("label", "positive")),
            time=event.time,
        )

    def _on_prelim_label(self, event: StreamEvent) -> None:
        payload = event.payload
        fact_id = int(payload["fact_id"])
        answer = bool(payload["answer"])
        if self._builder.add_vote(fact_id, answer):
            return
        # The fact's group already sealed: fold the straggler in as a
        # tempered out-of-band update instead of discarding it.
        if self._session is None:
            return
        self._stats["out_of_band"] += 1
        voter = Worker(
            worker_id=str(payload["worker_id"]),
            accuracy=float(payload.get("accuracy", 0.5)),
        )
        self._session.apply_out_of_band(
            AnswerSet(worker=voter, answers={fact_id: answer})
        )

    def _on_worker_join(self, event: StreamEvent) -> None:
        payload = event.payload
        worker = Worker(
            worker_id=str(payload["worker_id"]),
            accuracy=float(payload["accuracy"]),
        )
        self._stats["joins"] += 1
        if self._session is not None:
            self._session.adopt_expert(worker)
        elif all(
            member.worker_id != worker.worker_id
            for member in self._bootstrap_experts
        ):
            self._bootstrap_experts.append(worker)

    def _on_worker_leave(self, event: StreamEvent) -> None:
        worker_id = str(event.payload["worker_id"])
        self._stats["leaves"] += 1
        if self._session is not None:
            self._session.retire_expert(worker_id)
            return
        remaining = [
            member for member in self._bootstrap_experts
            if member.worker_id != worker_id
        ]
        if remaining:
            self._bootstrap_experts = remaining

    # ------------------------------------------------------------------
    # sealing and session growth
    # ------------------------------------------------------------------

    def _seal_ready(self) -> None:
        sealed = self._builder.sealable(self._watermark.watermark)
        if not sealed:
            return
        states = [state for state, _forced in sealed]
        forced = [state for state, was_forced in sealed if was_forced]
        self._stats["groups_sealed"] += len(states)
        self._stats["forced_seals"] += len(forced)
        self._ingest_groups(states, forced=False)
        if self._session is not None:
            for state, was_forced in sealed:
                self._session.note_incident(
                    FaultEvent(
                        kind="group_sealed",
                        fact_ids=tuple(
                            fact.fact_id for fact in state.facts
                        ),
                        detail=(
                            "straggler-timeout forced seal"
                            if was_forced
                            else "vote target reached"
                        ),
                    )
                )

    def _ingest_groups(
        self, states: Sequence[BeliefState], *, forced: bool
    ) -> None:
        if not states:
            return
        truth = {
            fact.fact_id: self._truth[fact.fact_id]
            for state in states
            for fact in state.facts
            if fact.fact_id in self._truth
        }
        if self._session is None:
            self._create_session(states, truth)
            if forced:
                for state in states:
                    self._session.note_incident(
                        FaultEvent(
                            kind="group_sealed",
                            fact_ids=tuple(
                                fact.fact_id for fact in state.facts
                            ),
                            detail="straggler-timeout forced seal",
                        )
                    )
        else:
            self._session.add_groups(states, truth)
        while self._degenerate_seals:
            self._degenerate_seals -= 1
            self._session.note_incident(
                FaultEvent(
                    kind="degenerate_marginals",
                    detail="uniform fallback at streamed seal",
                )
            )

    def _create_session(
        self, states: Sequence[BeliefState], truth: Mapping[int, bool]
    ) -> None:
        self._source = SimulatedExpertPanel(
            dict(self._truth),
            rng=np.random.default_rng(
                np.random.SeedSequence(
                    [int(self._spec.seed), _SOURCE_SALT]
                )
            ),
        )
        self._session = ResilientCheckingSession(
            FactoredBelief(states),
            Crowd(self._bootstrap_experts),
            self._budget,
            selector=self._selector,
            k=self._k,
            cost_model=self._cost_model,
            ground_truth=dict(truth),
            retry_policy=self._retry_policy,
            reserve_experts=self._reserve_experts,
            journal_path=self._journal_path,
            trust_policy=self._trust_policy,
            gold_facts=self._gold_facts,
            seed=self._spec.seed,
            sleep=self._sleep,
            journal_header=False,
            checkpoint_extras=self._extras,
        )

    def _drive_rounds(self) -> None:
        if self._session is None:
            self._rounds_done = self._spec.rounds_per_event
            return
        while self._rounds_done < self._spec.rounds_per_event:
            if self._session.is_finished:
                break
            self._session.run(self._source, max_rounds=1)
            self._rounds_done += 1
        self._rounds_done = self._spec.rounds_per_event

    # ------------------------------------------------------------------
    # resume
    # ------------------------------------------------------------------

    @classmethod
    def resume(
        cls,
        journal_path: str | Path,
        events: Sequence[StreamEvent],
        *,
        selector: Selector | None = None,
        cost_model: CostModel | None = None,
        retry_policy: RetryPolicy | None = None,
        reserve_experts: Crowd | None = None,
        sleep: Callable[[float], None] | None = None,
        experts: Crowd | None = None,
    ) -> "StreamingCampaign":
        """Restore a streamed campaign from its journal.

        ``events`` is the regenerated event log (the journal's stream
        config record pins the spec that regenerates it from the
        dataset).  Behavioral components are supplied again by the
        caller, exactly as on
        :meth:`~repro.simulation.resilient.ResilientCheckingSession.resume`.
        Works from any kill point: mid-round, mid-event, or during the
        pre-session bootstrap phase.  ``experts`` re-supplies the
        initial checking panel; it is only consulted when the journal
        holds no intact checkpoint at all (a kill that tore the very
        first record), where nothing was admitted yet.
        """
        journal_path = Path(journal_path)
        # Salvage, then cut back to the last boundary: a kill (or an
        # interior-damage salvage) can leave the journal ending on
        # complete records — a ``group_sealed`` event, say — whose
        # covering checkpoint never landed.  Replay regenerates them,
        # so keeping them would journal each twice.
        from ..storage.integrity import recover_for_resume

        records = recover_for_resume(journal_path, _RESUME_BOUNDARY)
        config_record = next(
            (
                record
                for record in records
                if record.get("kind") == "stream"
            ),
            None,
        )
        if config_record is None:
            raise SerializationError(
                f"journal {journal_path} has no stream config record"
            )
        spec = StreamSpec.from_dict(config_record.get("config", {}))
        header = records[0]
        budget = header_field(header, "budget_total")
        k = header_field(header, "k", int)
        last = next(
            (
                record
                for record in reversed(records)
                if record.get("kind") == "checkpoint"
            ),
            None,
        )
        if last is not None:
            extras = last.get("stream")
            if extras is None:
                raise SerializationError(
                    "checkpoint lacks stream state; not a streamed "
                    "campaign journal"
                )
            session = ResilientCheckingSession.resume(
                journal_path,
                selector=selector,
                cost_model=cost_model,
                retry_policy=retry_policy,
                reserve_experts=reserve_experts,
                sleep=sleep,
                records=records,
            )
        else:
            session = None
            extras = next(
                (
                    record["stream"]
                    for record in reversed(records)
                    if record.get("kind") == "stream_checkpoint"
                ),
                None,
            )

        # Built without a journal path, so nothing is appended; the
        # trust policy and gold facts come back inside the session.
        campaign = cls(
            events,
            (),
            budget,
            spec=spec,
            selector=selector,
            k=k,
            cost_model=cost_model,
            retry_policy=retry_policy,
            reserve_experts=reserve_experts,
            sleep=sleep,
        )
        campaign._journal_path = journal_path
        campaign._session = session
        campaign._restore_extras(extras)
        if session is None and extras is None:
            # Killed before the initial boundary record survived a
            # full write: nothing was admitted, so restart the
            # bootstrap with the caller's panel and re-append the
            # record so the continued journal stays byte-identical to
            # an uninterrupted run.
            if experts is not None:
                campaign._bootstrap_experts = list(experts)
            campaign._checkpoint_boundary()
        if session is not None:
            campaign._bootstrap_experts = []
            campaign._source = SimulatedExpertPanel(
                dict(campaign._truth),
                rng=np.random.default_rng(
                    np.random.SeedSequence([int(spec.seed), _SOURCE_SALT])
                ),
            )
            session.rewind_source(campaign._source)
            session.set_checkpoint_extras(campaign._extras)
        return campaign

    def _restore_extras(self, extras: "dict | None") -> None:
        """Set the bootstrap and delivery state from a checkpoint's
        stream extras; ``None`` is a fresh start (a new campaign, or a
        kill before the first event-boundary record: nothing was
        admitted yet)."""
        # Never checkpointed: a pending degenerate-seal count is always
        # drained into the journal before the boundary record is cut.
        self._degenerate_seals = 0
        if extras is None:
            self._bootstrap_experts = []
            self._cursor = 0
            self._rounds_done = self._spec.rounds_per_event
            self._at_boundary = True
            self._dedup_low = 0
            self._dedup_extra = set()
            self._watermark = WatermarkTracker(self._spec.allowed_lateness)
            self._builder = self._make_builder()
            self._truth = {}
            self._stats = {
                "admitted": 0,
                "duplicates": 0,
                "late_admitted": 0,
                "late_dropped": 0,
                "joins": 0,
                "leaves": 0,
                "groups_sealed": 0,
                "forced_seals": 0,
                "out_of_band": 0,
            }
        else:
            self._at_boundary = bool(extras["boundary"])
            self._cursor = int(extras["cursor"])
            self._rounds_done = int(extras["rounds_done"])
            self._dedup_low = int(extras["dedup_low"])
            self._dedup_extra = set(
                int(value) for value in extras["dedup_extra"]
            )
            self._watermark = WatermarkTracker.from_state(
                extras["watermark"]
            )
            self._builder = StreamingBeliefBuilder.from_state(
                extras["builder"]
            )
            self._builder.on_degenerate = self._count_degenerate
            self._truth = {
                int(fact_id): bool(value)
                for fact_id, value in extras["truth"].items()
            }
            self._stats = {
                key: int(value) for key, value in extras["stats"].items()
            }
            experts = extras.get("experts")
            self._bootstrap_experts = (
                list(crowd_from_dict(experts)) if experts is not None else []
            )
        # Persistent adapter so delta publication into the metrics
        # registry never double-counts the admit/seal counters above.
        self._obs_stats = _DictStatsView(self._stats)
