"""Supervision for shard workers: deadlines, respawn, and failover.

PR 4's :class:`~repro.engine.shards.ShardPool` talks to its workers
over blocking pipe reads: a worker that is SIGKILLed, hangs, or garbles
a reply stalls or aborts the whole campaign.  This module adds the
missing supervision layer.  Every shard command is awaited through a
heartbeat-checked poll loop with a configurable deadline; a worker that
dies, times out, or desynchronizes its reply stream is terminated and
respawned with its :class:`~repro.engine.shards.ShardState` rebuilt
from the coordinator's authoritative belief mirror; and once a shard
exhausts its restart budget its groups *fail over* — first to an
in-coordinator :class:`~repro.engine.shards.InlineShard` (degrading
that slice to serial execution), then, at the next safe point, merged
into a surviving worker.

Why recovery preserves bit-identity
-----------------------------------
The checking loop is stateless per round over independent groups
(paper §III, Alg. 2), and every shard command falls into one of two
classes:

* **Re-executable** (``select``, ``stage_partial``, ``stage_family``,
  ``sync_groups``, ``replace_experts``, ``stats``, ``ping``): pure
  reads, staged-on-copies updates, or idempotent overwrites.
* **Subsumed by the rebuild** (``commit``, ``abort``): the coordinator
  mirrors staged posteriors into its own belief *before* broadcasting
  ``commit`` (see :meth:`~repro.engine.sharded.ShardedUpdateEngine`),
  so a worker rebuilt from the mirror already holds the post-commit
  (respectively post-abort) state and the command is skipped.

Group migration (restart with the same groups, failover to inline,
rebalance onto a survivor) cannot change results either: selection
merge and staged updates are partition-independent, which the
equivalence suite pins for every worker count.  Supervision therefore
turns infrastructure faults into pure wall-clock cost — the final
beliefs, selections, budget trajectory and journal bytes stay
identical to a fault-free serial run.

Every intervention is counted in :class:`SupervisorStats`, recorded as
a :class:`ShardIncident` (also exposed as a
:class:`~repro.core.incidents.FaultEvent` via
:meth:`ShardIncident.as_fault_event`), and — when the campaign
journals — appended as a ``{"kind": "shard_incident"}`` record so a
resumed campaign can replay the same failover layout.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import asdict, dataclass, field, fields, replace

from ..core.incidents import FaultEvent
from ..core.serialization import append_journal_record
from ..obs import OBS

#: Commands safe to re-execute on a rebuilt worker (pure, staged on
#: copies, or idempotent).
REEXECUTABLE_COMMANDS = frozenset(
    {
        "select",
        "stage_partial",
        "stage_family",
        "sync_groups",
        "replace_experts",
        "stats",
        "ping",
    }
)

#: Commands a rebuilt worker must *skip*: the coordinator's belief
#: mirror is updated before ``commit`` is broadcast (and is untouched
#: by ``abort``), so the rebuild itself already realizes their effect.
REBUILD_SUBSUMES_COMMANDS = frozenset({"commit", "abort"})

#: Transport-level exceptions that mean the worker or its pipe failed
#: (as opposed to an application error raised *inside* the worker,
#: which arrives as a well-formed ``("error", exc)`` reply).
TRANSPORT_ERRORS = (EOFError, OSError, pickle.UnpicklingError)


class ShardFailureError(RuntimeError):
    """A shard exhausted its restart budget with failover disabled."""


class ShardRespawnError(RuntimeError):
    """A replacement worker failed to come up within its deadline."""


class ProtocolFailure(RuntimeError):
    """A reply arrived garbled (wrong shape or undecodable payload)."""


_NO_REPLY = object()


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the shard supervision loop.

    Parameters
    ----------
    deadline:
        Seconds a shard may take to answer one command before it is
        declared hung, killed and respawned.  ``None`` disables the
        deadline (death is still detected via liveness checks).
    poll_interval:
        Granularity of the heartbeat poll loop; replies wake the
        coordinator immediately, so this only bounds how often
        liveness/deadline are re-checked.
    startup_deadline:
        Seconds a *respawned* worker may take to finish its startup
        handshake (process spawn + imports are much slower than a
        command, so this is separate from ``deadline``).
    max_restarts:
        In-place respawns granted per shard before its groups fail
        over.  ``0`` fails over on the first incident.
    failover:
        When a shard's restart budget is exhausted: ``True`` degrades
        its groups to an in-coordinator
        :class:`~repro.engine.shards.InlineShard` (later merged into a
        surviving worker at a safe point); ``False`` raises
        :class:`ShardFailureError`, aborting the campaign.
    """

    deadline: float | None = 60.0
    poll_interval: float = 0.05
    startup_deadline: float | None = 60.0
    max_restarts: int = 2
    failover: bool = True

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")

    @classmethod
    def from_env(cls, environ=None) -> "SupervisionPolicy":
        """Defaults overridable via ``REPRO_SHARD_DEADLINE``,
        ``REPRO_MAX_SHARD_RESTARTS`` and ``REPRO_SHARD_FAILOVER`` —
        the hook the CI chaos matrix and ``reproduce`` flags use to
        reach every pool in a process tree (spawned experiment workers
        inherit the environment)."""
        env = os.environ if environ is None else environ
        kwargs: dict = {}
        deadline = env.get("REPRO_SHARD_DEADLINE")
        if deadline:
            value = float(deadline)
            kwargs["deadline"] = value if value > 0 else None
        restarts = env.get("REPRO_MAX_SHARD_RESTARTS")
        if restarts:
            kwargs["max_restarts"] = int(restarts)
        failover = env.get("REPRO_SHARD_FAILOVER")
        if failover:
            kwargs["failover"] = failover.strip().lower() not in {
                "0", "false", "no", "off",
            }
        return cls(**kwargs)

    def with_overrides(self, overrides: dict | None) -> "SupervisionPolicy":
        """Copy with non-``None`` entries of ``overrides`` applied
        (unknown keys rejected)."""
        if not overrides:
            return self
        known = {spec.name for spec in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown supervision overrides {sorted(unknown)}")
        return replace(
            self,
            **{k: v for k, v in overrides.items() if v is not None},
        )


@dataclass
class SupervisorStats:
    """Counters of every supervision intervention (all start at 0)."""

    deadline_hits: int = 0
    deaths: int = 0
    protocol_errors: int = 0
    restarts: int = 0
    failovers: int = 0
    rebalances: int = 0
    reexecuted_commands: int = 0
    skipped_commands: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def interventions(self) -> int:
        return self.restarts + self.failovers + self.rebalances


@dataclass(frozen=True)
class ShardIncident:
    """One supervision event: what failed (or was repaired), where.

    ``kind`` is one of ``deadline`` / ``death`` / ``protocol`` (the
    observed fault) or ``restart`` / ``failover`` / ``rebalance`` (the
    repair).  Layout-bearing incidents (``failover``, ``rebalance``)
    carry the pool's post-repair ``partition`` and per-slice
    ``degraded`` flags so a resumed campaign can rebuild the same
    layout.
    """

    kind: str
    shard_id: int
    command: str
    restarts: int
    group_indices: tuple[int, ...] = ()
    detail: str = ""
    partition: tuple[tuple[int, ...], ...] | None = None
    degraded: tuple[bool, ...] | None = None

    def to_record(self) -> dict:
        """The ``{"kind": "shard_incident"}`` journal record."""
        record = {
            "kind": "shard_incident",
            "incident": self.kind,
            "shard": self.shard_id,
            "command": self.command,
            "restarts": self.restarts,
            "groups": list(self.group_indices),
            "detail": self.detail,
        }
        if self.partition is not None:
            record["partition"] = [list(shard) for shard in self.partition]
            record["degraded"] = list(self.degraded or ())
        return record

    @classmethod
    def from_record(cls, record: dict) -> "ShardIncident":
        partition = record.get("partition")
        return cls(
            kind=str(record.get("incident", "")),
            shard_id=int(record.get("shard", -1)),
            command=str(record.get("command", "")),
            restarts=int(record.get("restarts", 0)),
            group_indices=tuple(record.get("groups", ())),
            detail=str(record.get("detail", "")),
            partition=(
                tuple(tuple(shard) for shard in partition)
                if partition is not None
                else None
            ),
            degraded=(
                tuple(bool(flag) for flag in record.get("degraded", ()))
                if partition is not None
                else None
            ),
        )

    def as_fault_event(self) -> FaultEvent:
        """The incident as a ``shard_*``-kind fault event (uniform
        display next to crowd-level incidents)."""
        return FaultEvent(
            kind=f"shard_{self.kind}",
            fact_ids=(),
            detail=(
                f"shard {self.shard_id} [{self.command}] "
                f"groups {list(self.group_indices)}: {self.detail}"
            ),
        )


class ShardSupervisor:
    """Deadline-checked dispatch with respawn and failover.

    The pool delegates every coordinator→shard interaction here.  The
    supervisor submits commands, awaits replies through a poll loop,
    classifies failures (deadline, death, garbled protocol), and
    repairs the pool in place: respawn within the restart budget,
    degrade to inline beyond it, and — only at a ``select`` dispatch,
    when nothing is staged or in flight anywhere — merge degraded
    slices back onto a surviving worker.

    The pool owns the structure (transports, partition, degraded
    flags and the authoritative belief mirror); the supervisor owns the
    policy, the failure handling, the counters and the incident log.
    """

    def __init__(self, pool, policy: SupervisionPolicy):
        self._pool = pool
        self.policy = policy
        self.stats = SupervisorStats()
        self.incidents: list[ShardIncident] = []
        self._restarts: dict[int, int] = {}
        self._journal_path = None
        self._on_incident = None

    # -- wiring --------------------------------------------------------

    def attach_journal(self, path) -> None:
        """Journal every incident as a ``shard_incident`` record."""
        self._journal_path = path

    def set_incident_callback(self, callback) -> None:
        self._on_incident = callback

    # -- dispatch ------------------------------------------------------

    def broadcast(self, command: str, *payload) -> list:
        if command == "select":
            # The only safe rebalance point: a round starts here, so no
            # shard holds staged state and no command is in flight —
            # respawning a merge target cannot lose anything.
            self._rebalance()
        positions = range(len(self._pool.shards))
        return self._dispatch([(p, command, payload) for p in positions])

    def multicast(self, positions, command: str, *payload) -> list:
        return self._dispatch([(p, command, payload) for p in positions])

    def scatter(self, command: str, payloads) -> list:
        """One distinct single-argument payload per shard."""
        return self._dispatch(
            [(p, command, (payloads[p],)) for p in range(len(payloads))]
        )

    def _dispatch(self, plan) -> list:
        if not OBS.enabled or not plan:
            return self._dispatch_plan(plan)
        # One span per fan-out (not per shard): the interesting number
        # is how long the coordinator blocked on the slowest worker.
        command = plan[0][1]
        with OBS.tracer.span(
            "shard.dispatch", command=command, fanout=len(plan)
        ):
            started = time.perf_counter()
            replies = self._dispatch_plan(plan)
        OBS.registry.counter(
            "repro_shard_dispatch_total",
            "Coordinator-side shard command fan-outs",
            labels=("command",),
        ).labels(command=command).inc()
        OBS.registry.histogram(
            "repro_shard_dispatch_seconds",
            "Coordinator wall-clock per shard command fan-out",
            labels=("command",),
        ).labels(command=command).observe(
            time.perf_counter() - started
        )
        return replies

    def _dispatch_plan(self, plan) -> list:
        resolved: dict[int, object] = {}
        for position, command, payload in plan:
            self._submit(position, command, payload, resolved)
        replies = []
        for position, command, payload in plan:
            if position in resolved:
                replies.append(resolved.pop(position))
            else:
                replies.append(self._await(position, command, payload))
        return replies

    def _submit(self, position, command, payload, resolved) -> None:
        while True:
            try:
                self._pool.shards[position].submit(command, *payload)
                return
            except TRANSPORT_ERRORS as error:
                self._handle_failure(
                    position, command, "death", f"submit failed: {error!r}"
                )
                if command in REBUILD_SUBSUMES_COMMANDS:
                    self.stats.skipped_commands += 1
                    resolved[position] = None
                    return

    def _await(self, position, command, payload):
        policy = self.policy
        deadline = (
            None
            if policy.deadline is None
            else time.monotonic() + policy.deadline
        )
        while True:
            shard = self._pool.shards[position]
            reply = _NO_REPLY
            failure = None
            # Event-driven wait: wake on reply arrival or worker death
            # (multiprocessing.connection.wait over pipe + sentinel in
            # ProcessShard.wait_reply) instead of sleeping fixed poll
            # ticks.  With a deadline the wait is bounded by it; without
            # one, poll_interval caps each wait so liveness keeps being
            # re-checked.  Transports that must sleep-poll (a chaos
            # "hang" has no event) use poll_interval as their tick.
            if deadline is None:
                timeout = policy.poll_interval
            else:
                timeout = max(0.0, deadline - time.monotonic())
            try:
                if self._wait_for_reply(shard, timeout):
                    reply = shard.take_reply()
                elif not shard.is_alive():
                    # A reply may have raced in between the wait timing
                    # out and the liveness check; drain it first.
                    if shard.poll(0.0):
                        reply = shard.take_reply()
                    else:
                        failure = ("death", "worker died mid-command")
                elif (
                    deadline is not None and time.monotonic() >= deadline
                ):
                    failure = (
                        "deadline",
                        f"no reply within {policy.deadline}s",
                    )
            except TRANSPORT_ERRORS as error:
                # A pipe EOF/reset means the worker closed its end —
                # it is dead or dying even if the OS hasn't reaped it
                # yet; only an undecodable payload is a protocol fault.
                kind = (
                    "protocol"
                    if isinstance(error, pickle.UnpicklingError)
                    else "death"
                )
                failure = (kind, repr(error))
            if reply is not _NO_REPLY:
                try:
                    return self._consume(reply)
                except ProtocolFailure as error:
                    failure = ("protocol", str(error))
            if failure is None:
                continue
            self._handle_failure(position, command, *failure)
            if command in REBUILD_SUBSUMES_COMMANDS:
                self.stats.skipped_commands += 1
                return None
            self._resubmit(position, command, payload)
            self.stats.reexecuted_commands += 1
            deadline = (
                None
                if policy.deadline is None
                else time.monotonic() + policy.deadline
            )

    def _wait_for_reply(self, shard, timeout: float) -> bool:
        """Wait up to ``timeout`` for a readable reply on one shard.

        Prefers the transport's event-driven ``wait_reply`` (pipe +
        sentinel); falls back to a plain blocking ``poll`` for
        transports that predate it.
        """
        waiter = getattr(shard, "wait_reply", None)
        if callable(waiter):
            return waiter(timeout, self.policy.poll_interval)
        return shard.poll(timeout)

    def _resubmit(self, position, command, payload) -> None:
        while True:
            try:
                self._pool.shards[position].submit(command, *payload)
                return
            except TRANSPORT_ERRORS as error:
                self._handle_failure(
                    position, command, "death", f"submit failed: {error!r}"
                )

    @staticmethod
    def _consume(reply):
        """Validate a raw protocol reply; raise the worker's own
        exception for well-formed error replies, :class:`ProtocolFailure`
        for garbled ones."""
        if (
            not isinstance(reply, tuple)
            or len(reply) != 2
            or reply[0] not in ("ok", "error")
        ):
            raise ProtocolFailure(f"garbled reply {reply!r}")
        status, value = reply
        if status == "error":
            if isinstance(value, BaseException):
                raise value
            raise ProtocolFailure(
                f"error reply without an exception: {value!r}"
            )
        return value

    # -- failure handling ----------------------------------------------

    def _handle_failure(self, position, command, kind, detail) -> None:
        pool = self._pool
        shard_id = pool.shard_ids[position]
        groups = tuple(pool.partition[position])
        if kind == "deadline":
            self.stats.deadline_hits += 1
        elif kind == "death":
            self.stats.deaths += 1
        else:
            self.stats.protocol_errors += 1
        used = self._restarts.get(shard_id, 0)
        self._note(
            ShardIncident(
                kind=kind,
                shard_id=shard_id,
                command=command,
                restarts=used,
                group_indices=groups,
                detail=detail,
            )
        )
        pool.destroy_shard(position)
        self._restarts[shard_id] = used + 1
        degraded = pool.is_degraded(position)
        if used < self.policy.max_restarts and not degraded:
            try:
                pool.respawn_shard(
                    position, startup_deadline=self.policy.startup_deadline
                )
            except TRANSPORT_ERRORS + (ShardRespawnError,) as error:
                # A failed respawn consumes another restart attempt;
                # the recursion bottoms out in failover (or the error).
                self._handle_failure(
                    position, command, "death", f"respawn failed: {error!r}"
                )
                return
            self.stats.restarts += 1
            self._note(
                ShardIncident(
                    kind="restart",
                    shard_id=shard_id,
                    command=command,
                    restarts=self._restarts[shard_id],
                    group_indices=groups,
                    detail="worker respawned from coordinator state",
                )
            )
            return
        if not self.policy.failover:
            raise ShardFailureError(
                f"shard {shard_id} (groups {list(groups)}) failed "
                f"{kind} on {command!r} after {used} restart(s) and "
                f"failover is disabled"
            )
        pool.respawn_shard(
            position,
            degraded=True,
            startup_deadline=self.policy.startup_deadline,
        )
        if not degraded:
            self.stats.failovers += 1
        layout = pool.layout()
        self._note(
            ShardIncident(
                kind="failover",
                shard_id=shard_id,
                command=command,
                restarts=self._restarts[shard_id],
                group_indices=groups,
                detail=(
                    "restart budget exhausted; groups degraded to an "
                    "in-coordinator InlineShard"
                ),
                partition=layout["partition"],
                degraded=layout["degraded"],
            )
        )

    def _rebalance(self) -> None:
        """Merge degraded slices onto surviving process workers.

        Only called from a ``select`` dispatch (round start): no staged
        state exists anywhere, so respawning the merge target with the
        union of groups — rebuilt from the coordinator mirror — cannot
        lose state.  With no survivors the degraded slices stay inline
        (full serial degradation)."""
        pool = self._pool
        if not self.policy.failover or pool.inline:
            return
        while True:
            degraded = [
                p
                for p in range(len(pool.shards))
                if pool.is_degraded(p)
            ]
            survivors = [
                p
                for p in range(len(pool.shards))
                if not pool.is_degraded(p)
            ]
            if not degraded or not survivors:
                return
            position = degraded[0]
            target = min(
                survivors, key=lambda p: (len(pool.partition[p]), p)
            )
            moved = tuple(pool.partition[position])
            shard_id = pool.shard_ids[position]
            target_id = pool.shard_ids[target]
            pool.merge_shards(
                target,
                position,
                startup_deadline=self.policy.startup_deadline,
            )
            self.stats.rebalances += 1
            layout = pool.layout()
            self._note(
                ShardIncident(
                    kind="rebalance",
                    shard_id=shard_id,
                    command="select",
                    restarts=self._restarts.get(shard_id, 0),
                    group_indices=moved,
                    detail=(
                        f"degraded groups {list(moved)} merged into "
                        f"surviving shard {target_id}"
                    ),
                    partition=layout["partition"],
                    degraded=layout["degraded"],
                )
            )

    # -- incident log --------------------------------------------------

    def _note(self, incident: ShardIncident) -> None:
        self.incidents.append(incident)
        if OBS.enabled:
            OBS.registry.counter(
                "repro_shard_incidents_total",
                "Supervision incidents by kind",
                labels=("kind",),
            ).labels(kind=incident.kind).inc()
        if self._journal_path is not None:
            append_journal_record(self._journal_path, incident.to_record())
        if self._on_incident is not None:
            self._on_incident(incident)
