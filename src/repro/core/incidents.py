"""Structured incident records for degraded checking rounds.

A production checking campaign runs against humans who no-show, time
out, spam, or contradict the belief so hard the Bayesian update has no
support.  The resilient runtime (:mod:`repro.simulation.resilient`)
keeps the loop alive through all of that; :class:`FaultEvent` is the
audit trail it leaves behind — one record per incident, attached to the
round it happened in (``RoundRecord.fault_events``) and to the session's
journal, so a degraded run can be inspected after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


#: Known incident kinds.  The set is advisory (events from newer
#: versions deserialize fine); it documents what the built-in fault
#: injection and resilient session emit.
FAULT_KINDS = frozenset(
    {
        "no_show",         # a worker returned no answers this round
        "timeout",         # the whole collection attempt timed out
        "spam",            # a worker answered uniformly at random
        "adversarial",     # a worker's answers were flipped
        "partial",         # a worker skipped some queried facts
        "empty_round",     # an attempt produced zero answers overall
        "backoff",         # the session slept before retrying
        "reassignment",    # failed workers were swapped for reserves
        "tempered_update", # zero-evidence answers required tempering
        "budget_clip",     # answers dropped to stay within budget
        "abandoned",       # a query set was given up on permanently
        "gold_probe",      # a seeded known-truth fact was scored
        "drift",           # a worker's CUSUM drift statistic alarmed
        "quarantine",      # a worker's breaker opened; worker benched
        "probation",       # a half-open worker answered probation probes
        "readmit",         # a quarantined worker passed probation
        # The shard_* kinds were emitted by the removed process-shard
        # engine; they stay so the journals it wrote still read.
        "shard_deadline",  # a shard missed its command deadline (hung)
        "shard_death",     # a shard worker process died mid-command
        "shard_protocol",  # a shard reply arrived garbled/desynchronized
        "shard_restart",   # a failed shard was respawned in place
        "shard_failover",  # a shard's groups degraded to inline execution
        "shard_rebalance", # degraded groups merged into a surviving shard
        "worker_join",     # a streamed expert joined the checking panel
        "worker_leave",    # a streamed expert left the checking panel
        "group_sealed",    # a streamed group's belief was initialized
        "late_admit",      # a late event was admitted with tempering
        "late_drop",       # an event arrived past the straggler timeout
        "degenerate_marginals",  # zero-mass marginal product; uniform fallback
    }
)


@dataclass(frozen=True)
class FaultEvent:
    """One incident observed while collecting or applying answers.

    Parameters
    ----------
    kind:
        Incident category; see :data:`FAULT_KINDS` for the built-ins.
    round_index:
        Checking round the incident belongs to (``-1`` when the emitter
        does not know it yet; the session re-stamps on receipt).
    attempt:
        Zero-based collection attempt within the round.
    worker_id:
        The worker involved, when the incident is worker-specific.
    fact_ids:
        The queried facts affected (e.g. the answers a worker dropped).
    detail:
        Free-form human-readable context.
    """

    kind: str
    round_index: int = -1
    attempt: int = 0
    worker_id: str | None = None
    fact_ids: tuple[int, ...] = ()
    detail: str = ""

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("FaultEvent.kind must be a non-empty string")
        object.__setattr__(self, "fact_ids", tuple(self.fact_ids))

    def stamped(self, round_index: int, attempt: int | None = None) -> "FaultEvent":
        """Copy of the event tagged with its round (and attempt)."""
        return replace(
            self,
            round_index=round_index,
            attempt=self.attempt if attempt is None else attempt,
        )
