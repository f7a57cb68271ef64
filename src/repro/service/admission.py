"""Admission control: tenant quotas, deposits, and load shedding.

The service's shared :class:`~repro.engine.ledger.BudgetLedger` is the
one real resource every tenant contends for.  Admission is therefore
*deposit-based*: a campaign is admitted only if its full remaining
budget can be reserved on the shared pool right now.  An admitted
campaign can always run to completion — the service never discovers
mid-round that tenants oversubscribed the pool — and the deposit is
settled exactly once:

* **completion** commits the campaign's actual spending (refunding the
  unspent remainder to the pool atomically);
* **shedding / service close** releases the deposit in full;
* **detach** and **quarantine** keep the deposit open — the campaign's
  claim on the pool survives client disconnects and fault strikes, so
  re-attach never races other tenants for the money it already owned.

Backpressure is explicit and fail-fast: when the bounded admission
queue or the ledger cannot take a new campaign, strictly lower-priority
*pending* campaigns are shed to make room; if that still does not free
enough, the submission is rejected with
:class:`~repro.service.errors.ServiceSaturatedError` and **no state
changes** — rejection is free, by design.

Streamed campaigns add a second pressure source: their aggregate
backlog (undelivered events plus unsealed facts), fed in through
:meth:`AdmissionController.observe_backlog`, shrinks the *effective*
queue bound so new admissions slow down while the service digests the
stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.ledger import BudgetLedger, LedgerError
from .campaign import CampaignRecord, check_weight
from .errors import QuotaExceededError, ServiceSaturatedError

#: Float-accumulation tolerance, matching the ledger's own slack.
_SLACK = 1e-9


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits, independent of service load.

    Parameters
    ----------
    max_active:
        Maximum campaigns a tenant may have admitted at once (pending,
        active, detached, or quarantined — anything still holding a
        deposit).  ``None`` is unlimited.
    max_budget:
        Cap on the summed ``config.budget`` of the tenant's admitted
        campaigns.  ``None`` is unlimited.
    weight:
        Default scheduling weight for the tenant's campaigns, finite
        and > 0 (a spec's explicit ``weight`` wins).
    """

    max_active: int | None = None
    max_budget: float | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.max_active is not None and self.max_active < 1:
            raise ValueError("max_active must be at least 1")
        if self.max_budget is not None and self.max_budget < 0:
            raise ValueError("max_budget must be non-negative")
        check_weight(self.weight)


class AdmissionController:
    """Deposit bookkeeping over the shared ledger.

    The service calls :meth:`admit` on submit/attach, :meth:`settle`
    on completion, and :meth:`forfeit` when a deposit must be returned
    (shed, or close of a never-finished campaign).  All counters are
    monotone and exposed via :attr:`counters` for the stats endpoint
    and the benchmark.
    """

    def __init__(
        self,
        ledger: BudgetLedger,
        *,
        queue_limit: int,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        backlog_per_slot: int = 32,
    ):
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if backlog_per_slot < 1:
            raise ValueError("backlog_per_slot must be at least 1")
        self._ledger = ledger
        self._queue_limit = int(queue_limit)
        self._backlog_per_slot = int(backlog_per_slot)
        self._backlog = 0
        self._quotas = dict(quotas or {})
        self._default_quota = default_quota or TenantQuota()
        # campaign_id -> (ticket, tenant, budget_total, deposit_amount)
        self._deposits: dict[str, tuple[int, str, float, float]] = {}
        self._counters = {
            "admitted": 0,
            "rejected_queue": 0,
            "rejected_ledger": 0,
            "rejected_quota": 0,
            "shed": 0,
        }

    # ------------------------------------------------------------------

    @property
    def counters(self) -> dict[str, int]:
        return dict(self._counters)

    def quota_for(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant, self._default_quota)

    def has_deposit(self, campaign_id: str) -> bool:
        return campaign_id in self._deposits

    def deposit_amount(self, campaign_id: str) -> float:
        """The refundable amount held on the ledger for a campaign."""
        return self._deposits[campaign_id][3]

    def open_deposits(self) -> list[str]:
        return sorted(self._deposits)

    # ------------------------------------------------------------------
    # streaming backpressure

    def observe_backlog(self, depth: int) -> None:
        """Feed the aggregate streaming backlog into admission.

        ``depth`` is the total number of undelivered events plus
        unsealed pending facts across the service's streamed campaigns.
        Every ``backlog_per_slot`` events of backlog withhold one slot
        of the admission queue (never below one), so a service drowning
        in stream events sheds *new* work at the door instead of
        letting the backlog compound.
        """
        if depth < 0:
            raise ValueError("backlog depth must be non-negative")
        self._backlog = int(depth)

    @property
    def backlog(self) -> int:
        return self._backlog

    @property
    def effective_queue_limit(self) -> int:
        """The queue bound after backpressure shrinkage."""
        withheld = self._backlog // self._backlog_per_slot
        return max(1, self._queue_limit - withheld)

    # ------------------------------------------------------------------

    def admit(
        self,
        record: CampaignRecord,
        pending: list[CampaignRecord],
    ) -> list[CampaignRecord]:
        """Admit ``record``, shedding lower-priority pending work if
        needed; returns the shed records (the service marks them).

        Checks run in order quota → queue → ledger, and every check is
        evaluated *before* any state changes: a rejection (raised
        :class:`QuotaExceededError` / :class:`ServiceSaturatedError`)
        leaves the queue, the ledger, and every other campaign exactly
        as they were.
        """
        quota = self.quota_for(record.spec.tenant)
        self._check_quota(record, quota)
        deposit = float(record.config.budget) - float(record.base_spent)
        if deposit < 0:
            raise ValueError(
                "campaign has already overspent its configured budget"
            )
        victims = self._plan_shedding(record, pending, deposit)
        for victim in victims:
            self.forfeit(victim.campaign_id)
            self._counters["shed"] += 1
        if record.base_spent > 0:
            # Attach-after-restart: the pre-restart spending is real,
            # already-settled money — it joins the pool's committed
            # side directly, never as a refundable reservation.
            self._ledger.commit_direct(float(record.base_spent))
        try:
            ticket = self._ledger.reserve(
                deposit, label=f"deposit:{record.campaign_id}"
            )
        except LedgerError as error:  # pragma: no cover - planned above
            self._counters["rejected_ledger"] += 1
            raise ServiceSaturatedError(str(error), reason="ledger")
        self._deposits[record.campaign_id] = (
            ticket,
            record.spec.tenant,
            float(record.config.budget),
            deposit,
        )
        self._counters["admitted"] += 1
        return victims

    def settle(self, campaign_id: str, spent_delta: float) -> None:
        """Commit a completed campaign's deposit at its actual cost."""
        ticket = self._deposits.pop(campaign_id)[0]
        self._ledger.commit(ticket, max(0.0, float(spent_delta)))

    def forfeit(self, campaign_id: str) -> None:
        """Release a deposit in full (shed, or close-unfinished)."""
        ticket = self._deposits.pop(campaign_id)[0]
        self._ledger.release(ticket)

    # ------------------------------------------------------------------

    def _check_quota(
        self, record: CampaignRecord, quota: TenantQuota
    ) -> None:
        tenant = record.spec.tenant
        held = [
            entry[2]
            for entry in self._deposits.values()
            if entry[1] == tenant
        ]
        if quota.max_active is not None and len(held) + 1 > quota.max_active:
            self._counters["rejected_quota"] += 1
            raise QuotaExceededError(
                f"tenant {tenant!r} already has {len(held)} admitted "
                f"campaigns (quota {quota.max_active})"
            )
        if (
            quota.max_budget is not None
            and sum(held) + float(record.config.budget)
            > quota.max_budget + _SLACK
        ):
            self._counters["rejected_quota"] += 1
            raise QuotaExceededError(
                f"tenant {tenant!r} holds {sum(held)} of budget quota "
                f"{quota.max_budget}; cannot admit "
                f"{record.config.budget} more"
            )

    def _plan_shedding(
        self,
        record: CampaignRecord,
        pending: list[CampaignRecord],
        deposit: float,
    ) -> list[CampaignRecord]:
        """Pick the pending campaigns to shed for ``record``, if any.

        Only *strictly* lower-priority pending campaigns are sheddable
        (equal priority is first-come-first-served), evicted lowest
        priority first, newest first within a priority — the victims
        that lose the least invested standing.  Raises the appropriate
        saturation error when shedding everything sheddable still does
        not make room.
        """
        sheddable = sorted(
            (
                candidate
                for candidate in pending
                if candidate.spec.priority < record.spec.priority
                and candidate.campaign_id in self._deposits
            ),
            key=lambda candidate: (
                candidate.spec.priority,
                -pending.index(candidate),
            ),
        )
        victims: list[CampaignRecord] = []
        limit = self.effective_queue_limit
        overflow = len(pending) + 1 - limit
        if overflow > 0:
            if len(sheddable) < overflow:
                self._counters["rejected_queue"] += 1
                crowded = (
                    f" (backpressure holds {self._queue_limit - limit} "
                    f"of {self._queue_limit} slots)"
                    if limit < self._queue_limit
                    else ""
                )
                raise ServiceSaturatedError(
                    f"admission queue is full ({len(pending)}/{limit})"
                    f"{crowded} with no lower-priority work to shed",
                    reason="queue",
                )
            victims = sheddable[:overflow]
        demand = float(record.base_spent) + deposit
        freed = sum(
            self._deposits[victim.campaign_id][3] for victim in victims
        )
        index = len(victims)
        while (
            demand > self._ledger.available + freed + _SLACK
            and index < len(sheddable)
        ):
            victim = sheddable[index]
            victims.append(victim)
            freed += self._deposits[victim.campaign_id][3]
            index += 1
        if demand > self._ledger.available + freed + _SLACK:
            self._counters["rejected_ledger"] += 1
            raise ServiceSaturatedError(
                f"shared budget pool cannot cover a {demand} deposit "
                f"(available {self._ledger.available}, sheddable "
                f"{freed})",
                reason="ledger",
            )
        return victims
