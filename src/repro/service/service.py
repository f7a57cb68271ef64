"""The multi-tenant campaign service.

:class:`CampaignService` multiplexes many simultaneous hierarchical-
checking campaigns onto one shared budget pool and a bounded set of
runtime slots.  The design keeps three properties that the rest of the
codebase already guarantees for solo campaigns, and extends them
across tenants:

**Bit-identity.**  Each campaign runs its *own* resilient session,
charging its own budget, stepped one round at a time
(``session.run(source, max_rounds=1)``).  Interleaving campaigns
therefore cannot perturb any campaign's selections, budget trajectory,
beliefs, or journal bytes: every campaign's outcome is byte-identical
to the same campaign run solo through
:func:`~repro.simulation.session.run_hc_session`.  The shared
:class:`~repro.engine.ledger.BudgetLedger` holds only *deposits* —
whole-campaign reservations — so cross-tenant accounting never touches
per-round arithmetic.

**Backpressure.**  Admission is deposit-based and fail-fast (see
:mod:`~repro.service.admission`): a submission either secures its full
remaining budget on the pool, possibly shedding strictly
lower-priority pending work, or is rejected with
:class:`~repro.service.errors.ServiceSaturatedError` leaving no state
behind.

**Fault isolation.**  A round that raises (e.g. a failing answer
source) or overruns the service's round deadline costs the campaign a
*strike*: its runtime is torn down and the campaign rebuilds from its
journal on its next turn.
``max_strikes`` strikes quarantine it — runtime gone, deposit intact —
without ever touching another tenant's rounds or the shared ledger's
commitments.

Detach/reattach rides the same machinery: a detach is a voluntary
teardown at a round boundary, and an attach (same service or a fresh
one after a restart) rebuilds the session from the journal via
:meth:`~repro.simulation.resilient.ResilientCheckingSession.resume`,
rewinds the answer source from the checkpointed source state, and
continues byte-identically.

**Streamed tenants.**  A spec carrying a
:class:`~repro.stream.runtime.StreamSpec` runs as a
:class:`~repro.stream.runtime.StreamingCampaign`: each service step
consumes ``events_per_step`` delivery slots instead of one checking
round, and the aggregate stream backlog is fed back into admission
control (:meth:`AdmissionController.observe_backlog`), shrinking the
effective queue under sustained pressure.  Strikes, detach/reattach,
and post-restart attach all work unchanged — the streaming runtime
journals its cursor/watermark/builder state on every checkpoint, so a
rebuild resumes exactly-once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

from ..core.selection import LazyGreedySelector
from ..core.serialization import SerializationError
from ..engine.ledger import BudgetLedger
from ..obs import OBS, latency_report
from ..simulation.resilient import ResilientCheckingSession
from ..simulation.session import (
    campaign_answer_source,
    campaign_inputs,
    resilient_session,
)
from ..storage.integrity import JournalDamageReport, recover_journal
from ..stream.arrivals import generate_event_stream, make_arrivals
from ..stream.runtime import StreamingCampaign
from .admission import AdmissionController, TenantQuota
from .campaign import (
    CampaignHandle,
    CampaignRecord,
    CampaignSpec,
    CampaignStatus,
    resolve_config,
)
from .errors import (
    CampaignQuarantinedError,
    CampaignStateError,
    ServiceError,
    ServiceSaturatedError,
    UnknownCampaignError,
)
from .scheduler import WeightedFairScheduler


class _StatsView:
    """Adapt a counters-dict thunk to the ``as_dict()`` shape that
    :meth:`Observability.publish_deltas` expects, while persisting long
    enough to carry the last-published snapshot between calls."""

    def __init__(self, thunk):
        self._thunk = thunk

    def as_dict(self) -> dict:
        return self._thunk()


def _completed_rounds(session) -> int:
    """Checking rounds completed so far (``history`` also holds the
    initialization record, which is not a served round)."""
    return max(0, len(session.history) - 1)


@dataclass(frozen=True)
class ServicePolicy:
    """Service-wide knobs (per-campaign overrides live on the spec).

    Parameters
    ----------
    slots:
        Maximum campaigns with a live runtime at once; the rest wait in
        the admission queue.
    queue_limit:
        Bound on the pending queue; beyond it, admission sheds or
        rejects.
    round_deadline:
        Wall-clock budget for one campaign round, in seconds.  An
        overrun costs a strike (the round itself, being journaled, is
        not lost).  ``None`` disables the check.
    max_strikes:
        Fault strikes before a campaign is quarantined.
    """

    slots: int = 4
    queue_limit: int = 16
    round_deadline: float | None = None
    max_strikes: int = 3

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError("slots must be at least 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if self.round_deadline is not None and self.round_deadline <= 0:
            raise ValueError("round_deadline must be positive")
        if self.max_strikes < 1:
            raise ValueError("max_strikes must be at least 1")


class CampaignService:
    """A long-lived host for many tenants' campaigns.

    Parameters
    ----------
    budget_pool:
        Total budget of the shared ledger backing every deposit.
    policy:
        :class:`ServicePolicy`; defaults apply when omitted.
    quotas, default_quota:
        Per-tenant :class:`~repro.service.admission.TenantQuota`
        overrides and the fallback quota.
    journal_root:
        Directory under which campaigns without an explicit
        ``config.journal_path`` journal (``journal_root/tenant/name
        .jsonl``).

    The service is synchronous and single-threaded by design: callers
    drive it with :meth:`step` / :meth:`run_until_idle`, which makes
    every schedule — and therefore every test — deterministic.
    """

    def __init__(
        self,
        budget_pool: float,
        *,
        policy: ServicePolicy | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        journal_root: str | Path | None = None,
    ):
        self.ledger = BudgetLedger(float(budget_pool))
        self.policy = policy or ServicePolicy()
        self._admission = AdmissionController(
            self.ledger,
            queue_limit=self.policy.queue_limit,
            quotas=quotas,
            default_quota=default_quota,
        )
        self._journal_root = (
            Path(journal_root) if journal_root is not None else None
        )
        self._records: dict[str, CampaignRecord] = {}
        self._pending: list[CampaignRecord] = []
        self._active: list[CampaignRecord] = []
        self._scheduler = WeightedFairScheduler()
        self._closed = False
        self._steps = 0
        self._completed = 0
        # Observability bookkeeping (only touched when OBS.enabled):
        # per-campaign end-of-last-step marks for scheduler-wait, and a
        # persistent view of the admission counters so delta publishing
        # never double-counts.
        self._obs_last_step: dict[str, float] = {}
        self._obs_admission = _StatsView(lambda: self._admission.counters)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def submit(self, spec: CampaignSpec) -> CampaignHandle:
        """Admit a fresh campaign; raises before any state changes when
        the tenant is over quota or the service is saturated."""
        self._ensure_open()
        campaign_id = spec.campaign_id
        existing = self._records.get(campaign_id)
        if existing is not None and existing.status is not CampaignStatus.SHED:
            raise CampaignStateError(
                f"campaign {campaign_id!r} is already registered "
                f"({existing.status.value})"
            )
        config, journal_path = resolve_config(spec, self._journal_root)
        if journal_path.exists():
            raise CampaignStateError(
                f"journal {journal_path} already exists; use attach() to "
                "re-admit an existing campaign"
            )
        weight = (
            float(spec.weight)
            if spec.weight is not None
            else self._admission.quota_for(spec.tenant).weight
        )
        record = CampaignRecord(
            spec=spec,
            config=config,
            journal_path=journal_path,
            weight=weight,
        )
        self._shed(self._admit_with_hint(record))
        self._records[campaign_id] = record
        self._pending.append(record)
        return CampaignHandle(record)

    def attach(self, spec: CampaignSpec) -> CampaignHandle:
        """(Re-)admit a campaign whose journal already exists.

        Covers both flavors of reattachment: a campaign this service
        instance detached or quarantined (deposit still open — it just
        rejoins the queue), and a journal from *before a service
        restart* (the spec re-describes it; spending already on the
        journal is committed to the fresh pool and only the remainder
        is deposited).  A journal from before a restart is salvaged
        (:func:`~repro.storage.integrity.recover_journal`) before its
        spending and identity are read.
        """
        return self._attach(spec, None)

    def _attach(
        self, spec: CampaignSpec, scan: JournalDamageReport | None
    ) -> CampaignHandle:
        """:meth:`attach`, taking the journal's records from ``scan``
        when the caller has just salvaged it (recovery's sweep)."""
        self._ensure_open()
        campaign_id = spec.campaign_id
        existing = self._records.get(campaign_id)
        if existing is not None:
            if existing.status not in (
                CampaignStatus.DETACHED,
                CampaignStatus.QUARANTINED,
            ):
                raise CampaignStateError(
                    f"campaign {campaign_id!r} is {existing.status.value}; "
                    "only detached or quarantined campaigns can reattach"
                )
            # Adopt the caller's fresh spec (it may carry a repaired
            # source factory) but keep the admitted identity: resolved
            # config, journal, deposit and base_spent all stay.
            existing.spec = spec
            if spec.weight is not None:
                existing.weight = float(spec.weight)
            existing.strikes = 0
            existing.error = None
            existing.status = CampaignStatus.PENDING
            self._pending.append(existing)
            return CampaignHandle(existing)
        config, journal_path = resolve_config(spec, self._journal_root)
        if not journal_path.exists():
            raise UnknownCampaignError(
                f"no journal at {journal_path} to attach"
            )
        base_spent, journaled = self._read_attach_state(
            scan if scan is not None else recover_journal(journal_path)
        )
        if journaled is not None and (
            journaled.get("tenant") != spec.tenant
            or journaled.get("name") != spec.name
        ):
            raise CampaignStateError(
                f"journal {journal_path} belongs to "
                f"{journaled.get('tenant')}/{journaled.get('name')}, "
                f"not {campaign_id}"
            )
        weight = (
            float(spec.weight)
            if spec.weight is not None
            else float(
                (journaled or {}).get(
                    "weight", self._admission.quota_for(spec.tenant).weight
                )
            )
        )
        record = CampaignRecord(
            spec=spec,
            config=config,
            journal_path=journal_path,
            weight=weight,
            base_spent=base_spent,
            launched=True,
        )
        self._shed(self._admit_with_hint(record))
        self._records[campaign_id] = record
        self._pending.append(record)
        return CampaignHandle(record)

    def recover(
        self,
        journal_root: "str | Path | None" = None,
        *,
        specs=None,
        spec_factory=None,
        strict: bool = True,
    ):
        """Rebuild the service's campaigns from a journal directory.

        Scans every ``*.jsonl`` under ``journal_root`` (defaulting to
        this service's own root), salvages each journal through
        :func:`~repro.storage.integrity.recover_journal`, re-attaches
        every campaign whose verified prefix still holds a checkpoint,
        resubmits the ones damaged into their bootstrap region (their
        remains preserved in ``.damaged`` sidecars), and finishes with
        a strict ledger audit.  Returns a
        :class:`~repro.service.recovery.RecoveryReport`; see
        :mod:`~repro.service.recovery` for the full semantics.
        """
        self._ensure_open()
        from .recovery import recover_service

        return recover_service(
            self,
            journal_root,
            specs=specs,
            spec_factory=spec_factory,
            strict=strict,
        )

    def _admit_with_hint(self, record: CampaignRecord) -> list[CampaignRecord]:
        """Admit through the controller, stamping a retry hint on
        queue-saturation rejections (ledger exhaustion gets none: only
        a completion can free deposited money, and the scheduler cannot
        predict one)."""
        try:
            return self._admission.admit(record, self._pending)
        except ServiceSaturatedError as error:
            if error.reason == "queue":
                error.retry_after_rounds = self._retry_after_rounds()
            raise

    def _retry_after_rounds(self) -> int:
        """Scheduler-virtual-time estimate of when a retry can succeed.

        The backlog clears once every active campaign has caught up to
        the current maximum ``pass`` (``(max_pass - pass) * weight``
        rounds each) and the queue ahead of the caller has drained —
        approximated as one full weighted cycle per queued campaign
        plus one for the caller itself.
        """
        entries = self._scheduler.snapshot()
        catch_up = 0
        cycle = 1
        if entries:
            max_pass = max(entry[1] for entry in entries)
            catch_up = sum(
                math.ceil((max_pass - pass_value) * weight)
                for _key, pass_value, weight in entries
            )
            cycle = sum(
                max(1, round(weight)) for _key, _pass, weight in entries
            )
        return max(1, catch_up + cycle * (len(self._pending) + 1))

    def detach(self, campaign: "CampaignHandle | str") -> None:
        """Release a campaign's runtime at the current round boundary.

        The deposit and the journal stay; :meth:`attach` (here or on a
        future service instance) continues the campaign
        byte-identically.
        """
        self._ensure_open()
        record = self._resolve(campaign)
        if record.status is CampaignStatus.ACTIVE:
            self._teardown_runtime(record)
            self._scheduler.remove(record.campaign_id)
            self._active.remove(record)
        elif record.status is CampaignStatus.PENDING:
            self._pending.remove(record)
        else:
            raise CampaignStateError(
                f"campaign {record.campaign_id!r} is "
                f"{record.status.value}; nothing to detach"
            )
        record.status = CampaignStatus.DETACHED

    # ------------------------------------------------------------------
    # the step loop
    # ------------------------------------------------------------------

    def step(self) -> dict | None:
        """Run one round of the next scheduled campaign.

        Returns a small info dict (campaign id, wall latency, whether
        it finished, the error if it struck) or ``None`` when nothing
        is runnable — the service is idle.
        """
        self._ensure_open()
        self._activate_pending()
        campaign_id = self._scheduler.peek()
        if campaign_id is None:
            return None
        record = self._records[campaign_id]
        stream = record.runtime.get("stream")
        started = time.perf_counter()
        if OBS.enabled:
            # Everything the round records below carries this tenant
            # label; scheduler-wait is the gap since this campaign's
            # previous round ended (time lost to other tenants' turns).
            OBS.tenant = record.spec.tenant
            waited_from = self._obs_last_step.get(campaign_id)
            if waited_from is not None:
                OBS.observe_phase("scheduler-wait", started - waited_from)
        error: BaseException | None = None
        try:
            with OBS.phase("round", campaign=campaign_id):
                if stream is not None:
                    stream.run(max_events=stream.spec.events_per_step)
                else:
                    record.runtime["session"].run(
                        record.runtime["source"], max_rounds=1
                    )
        except Exception as exc:
            error = exc
        latency = time.perf_counter() - started
        record.latencies.append(latency)
        self._scheduler.charge(campaign_id)
        self._steps += 1
        self._feed_backlog()
        if OBS.enabled:
            OBS.tenant = ""
            self._obs_last_step[campaign_id] = time.perf_counter()
            OBS.registry.counter(
                "repro_service_rounds_total",
                "Rounds stepped by the service",
                labels=("tenant",),
            ).labels(tenant=record.spec.tenant).inc()
            OBS.publish_gauges(
                "repro_service",
                {
                    "active_campaigns": len(self._active),
                    "pending_campaigns": len(self._pending),
                    "completed_campaigns": self._completed,
                    "stream_backlog": self._admission.backlog,
                },
            )
            OBS.publish_deltas("repro_admission", self._obs_admission)
        info = {
            "campaign": campaign_id,
            "latency": latency,
            "finished": False,
            "error": None,
        }
        if error is not None:
            info["error"] = f"{type(error).__name__}: {error}"
            self._strike(record, info["error"])
            return info
        if stream is not None:
            session = stream.session
            record.rounds = (
                _completed_rounds(session) if session is not None else 0
            )
            record.spent = float(stream.spent_budget)
            finished = stream.finished
        else:
            session = record.runtime["session"]
            record.rounds = _completed_rounds(session)
            record.spent = float(session.spent_budget)
            finished = session.is_finished
        if finished:
            info["finished"] = True
            self._finalize(record)
        elif (
            self.policy.round_deadline is not None
            and latency > self.policy.round_deadline
        ):
            # The round itself committed (and is journaled) — only the
            # runtime is torn down, so a slow tenant degrades to
            # rebuild-per-round and eventually quarantine instead of
            # stalling everyone behind it.
            info["error"] = (
                f"round took {latency:.3f}s "
                f"(deadline {self.policy.round_deadline}s)"
            )
            self._strike(record, info["error"])
        return info

    def run_until_idle(self, max_steps: int | None = None) -> int:
        """Step until no campaign is runnable; returns rounds run."""
        steps = 0
        while max_steps is None or steps < max_steps:
            if self.step() is None:
                break
            steps += 1
        return steps

    # ------------------------------------------------------------------
    # lifecycle internals
    # ------------------------------------------------------------------

    def _activate_pending(self) -> None:
        while self._pending and len(self._active) < self.policy.slots:
            record = self._pending.pop(0)
            try:
                if record.launched:
                    self._reattach_runtime(record)
                else:
                    self._launch_runtime(record)
            except Exception as exc:
                record.error = f"{type(exc).__name__}: {exc}"
                record.strikes += 1
                if record.strikes >= self.policy.max_strikes:
                    record.status = CampaignStatus.QUARANTINED
                else:
                    self._pending.append(record)
                continue
            record.status = CampaignStatus.ACTIVE
            self._active.append(record)
            self._scheduler.add(record.campaign_id, record.weight)

    def _launch_runtime(self, record: CampaignRecord) -> None:
        spec = record.spec
        record.journal_path.parent.mkdir(parents=True, exist_ok=True)
        if spec.stream is not None:
            campaign = StreamingCampaign(
                self._stream_events(spec),
                spec.dataset.split_crowd(spec.stream.theta)[0],
                float(record.config.budget),
                spec=spec.stream,
                journal_path=record.journal_path,
                journal_metadata=[record.identity_record()],
                k=record.config.k,
                retry_policy=record.config.retry_policy,
                trust_policy=record.config.trust_policy,
            )
            record.runtime = {"stream": campaign}
            record.launched = True
            return
        experts, belief, source = campaign_inputs(
            spec.dataset, record.config, answer_source=spec.build_source()
        )
        session = resilient_session(
            spec.dataset,
            record.config,
            belief,
            experts,
            record.config.budget,
            LazyGreedySelector(),
            journal_metadata=[record.identity_record()],
        )
        record.runtime = {"session": session, "source": source}
        record.launched = True

    @staticmethod
    def _stream_events(spec: CampaignSpec):
        """Regenerate a streamed campaign's event log from its spec.

        Pure data from (dataset, stream spec) — the same log every
        time, which is what lets reattach resume against it."""
        stream = spec.stream
        return generate_event_stream(
            spec.dataset,
            theta=stream.theta,
            votes_per_fact=stream.votes_per_fact,
            arrivals=make_arrivals(stream.arrival, stream.rate),
            seed=stream.seed,
            churn_rate=stream.churn,
            window=stream.window,
        )

    def _reattach_runtime(self, record: CampaignRecord) -> None:
        spec = record.spec
        if spec.stream is not None:
            campaign = StreamingCampaign.resume(
                record.journal_path,
                self._stream_events(spec),
                retry_policy=record.config.retry_policy,
            )
            record.runtime = {"stream": campaign}
            session = campaign.session
            record.rounds = (
                _completed_rounds(session) if session is not None else 0
            )
            record.spent = float(campaign.spent_budget)
            return
        session = ResilientCheckingSession.resume(
            record.journal_path, retry_policy=record.config.retry_policy
        )
        source = campaign_answer_source(
            spec.dataset, record.config, spec.build_source()
        )
        record.runtime = {"session": session, "source": source}
        record.rounds = _completed_rounds(session)
        record.spent = float(session.spent_budget)

    def _teardown_runtime(self, record: CampaignRecord) -> None:
        runtime, record.runtime = record.runtime, None
        if runtime is None:
            return
        stream = runtime.get("stream")
        if stream is not None:
            session = stream.session
            record.rounds = (
                _completed_rounds(session) if session is not None else 0
            )
            record.spent = float(stream.spent_budget)
            return
        session = runtime["session"]
        record.rounds = _completed_rounds(session)
        record.spent = float(session.spent_budget)

    def _strike(self, record: CampaignRecord, reason: str) -> None:
        record.strikes += 1
        record.error = reason
        if OBS.enabled:
            OBS.registry.counter(
                "repro_service_strikes_total",
                "Fault strikes charged to campaigns",
                labels=("tenant",),
            ).labels(tenant=record.spec.tenant).inc()
        self._teardown_runtime(record)
        self._scheduler.remove(record.campaign_id)
        self._active.remove(record)
        if record.strikes >= self.policy.max_strikes:
            # Deposit and journal are untouched: an operator can
            # attach() later; other tenants never notice.
            record.status = CampaignStatus.QUARANTINED
        else:
            record.status = CampaignStatus.PENDING
            self._pending.append(record)

    def _finalize(self, record: CampaignRecord) -> None:
        stream = record.runtime.get("stream")
        if stream is not None:
            record.result = stream.result()
        else:
            record.result = record.runtime["session"].result()
        self._teardown_runtime(record)
        self._scheduler.remove(record.campaign_id)
        self._active.remove(record)
        self._admission.settle(
            record.campaign_id, record.spent - record.base_spent
        )
        record.status = CampaignStatus.COMPLETED
        self._completed += 1

    def _shed(self, victims: list[CampaignRecord]) -> None:
        for victim in victims:
            self._pending.remove(victim)
            victim.status = CampaignStatus.SHED

    def _feed_backlog(self) -> None:
        """Report the streamed campaigns' aggregate backlog to
        admission control (zero when none are streaming)."""
        depth = sum(
            record.runtime["stream"].backlog
            for record in self._active
            if record.runtime is not None and "stream" in record.runtime
        )
        self._admission.observe_backlog(depth)

    # ------------------------------------------------------------------
    # introspection / teardown
    # ------------------------------------------------------------------

    def handle(self, campaign_id: str) -> CampaignHandle:
        return CampaignHandle(self._resolve(campaign_id))

    def status(self, campaign: "CampaignHandle | str") -> CampaignStatus:
        return self._resolve(campaign).status

    def result(self, campaign: "CampaignHandle | str"):
        record = self._resolve(campaign)
        if record.status is CampaignStatus.QUARANTINED:
            raise CampaignQuarantinedError(
                f"campaign {record.campaign_id!r} was quarantined: "
                f"{record.error}"
            )
        if record.result is None:
            raise CampaignStateError(
                f"campaign {record.campaign_id!r} has not completed "
                f"({record.status.value})"
            )
        return record.result

    def stats(self) -> dict:
        """A JSON-compatible service snapshot (stats endpoint/bench)."""
        return {
            "steps": self._steps,
            "completed": self._completed,
            "active": len(self._active),
            "pending": len(self._pending),
            "stream_backlog": self._admission.backlog,
            "effective_queue_limit": self._admission.effective_queue_limit,
            "admission": self._admission.counters,
            "ledger": self.ledger.as_dict(),
            "campaigns": {
                campaign_id: {
                    "tenant": record.spec.tenant,
                    "status": record.status.value,
                    "rounds": record.rounds,
                    "strikes": record.strikes,
                    "spent": record.spent,
                }
                for campaign_id, record in sorted(self._records.items())
            },
        }

    def round_latencies(self) -> list[float]:
        """Every stepped round's wall latency (percentile fodder)."""
        latencies: list[float] = []
        for record in self._records.values():
            latencies.extend(record.latencies)
        return latencies

    def health_summary(self) -> str:
        """One-line service health, sourced from the metrics registry.

        Used by ``repro serve --health-every N``.  The p95 round
        latency comes from the ``repro_phase_seconds{phase="round"}``
        histogram; with observability disabled it reads 0 and the line
        still renders the campaign/shed counts from admission state.
        """
        shed = int(self._admission.counters.get("shed", 0))
        p95 = 0.0
        for row in latency_report(OBS.registry)["phases"]:
            if row["phase"] == "round":
                p95 = row["p95"]
                break
        return (
            f"health: active={len(self._active)} "
            f"queued={len(self._pending)} "
            f"completed={self._completed} shed={shed} "
            f"p95_round={p95 * 1000:.1f}ms"
        )

    def close(self) -> None:
        """Tear everything down, returning unfinished deposits.

        Idempotent.  Committed money (completed campaigns, pre-restart
        ``base_spent``) stays committed; every open deposit of a
        non-completed campaign is released so the pool ends with
        ``open_reservations == 0``.
        """
        if self._closed:
            return
        for record in list(self._active):
            self._teardown_runtime(record)
            self._scheduler.remove(record.campaign_id)
            self._active.remove(record)
            record.status = CampaignStatus.DETACHED
        self._pending.clear()
        for record in self._records.values():
            if self._admission.has_deposit(record.campaign_id):
                self._admission.forfeit(record.campaign_id)
        self._closed = True

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _resolve(self, campaign: "CampaignHandle | str") -> CampaignRecord:
        campaign_id = (
            campaign.campaign_id
            if isinstance(campaign, CampaignHandle)
            else str(campaign)
        )
        try:
            return self._records[campaign_id]
        except KeyError:
            raise UnknownCampaignError(campaign_id) from None

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("the campaign service is closed")

    @staticmethod
    def _read_attach_state(
        scan: JournalDamageReport,
    ) -> tuple[float, dict | None]:
        """Base spending + journaled tenant identity for an attach, from
        a salvaged journal's scan."""
        journal_path = scan.path
        records = scan.strict_records()
        checkpoints = [
            record
            for record in records
            if record.get("kind") == "checkpoint"
        ]
        if checkpoints:
            base_spent = float(checkpoints[-1]["session"]["budget_spent"])
        elif any(
            record.get("kind") == "stream_checkpoint" for record in records
        ):
            # A streamed campaign killed in its bootstrap phase: the
            # checking session does not exist yet, so nothing of the
            # budget is spent.
            base_spent = 0.0
        else:
            raise SerializationError(
                f"journal {journal_path} has no intact checkpoint"
            )
        tenant_records = [
            record for record in records if record.get("kind") == "tenant"
        ]
        return base_spent, tenant_records[-1] if tenant_records else None
