"""Process-level fault injection for the shard transport layer.

:mod:`repro.simulation.faults` chaos-tests the *crowd*: workers no-show,
spam, or flip answers.  This module chaos-tests the *engine* one layer
down: :class:`ChaosTransport` wraps a shard transport and can kill the
worker process, swallow a command so the shard appears hung, delay a
reply past its deadline, or corrupt the reply's wire shape — the exact
failure classes the :class:`~repro.engine.supervisor.ShardSupervisor`
must absorb.  :class:`ChaosPlan` decides *when*: either by seeded
per-command draws (``SeedSequence([seed, shard_id, command_index])``,
so a plan is deterministic across runs, processes and respawns) or by
an explicit ``schedule`` of ``(shard_id, command_index) -> action``
entries for surgical tests ("kill shard 1 on its 7th command").

Command indices are counted per *shard id* and persist across respawns
(the replacement transport continues the victim's count), so "kill on
command 7" cannot re-trigger forever.  Degraded (failed-over) inline
replacements are never chaos-wrapped — an injection plan can slow a
campaign down, but never prevent it from terminating.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from ..faultplan import FaultPlan

#: Injectable actions, in the order draws are checked.
CHAOS_ACTIONS = ("kill", "hang", "delay", "corrupt")


@dataclass(frozen=True)
class ChaosPlan(FaultPlan):
    """Seeded configuration of transport failure injection.

    Parameters
    ----------
    kill, hang, delay, corrupt:
        Per-command probabilities (mutually exclusive per draw, checked
        in that order) that the command's transport is killed, the
        command is swallowed (the shard looks hung), the reply is held
        back for ``delay_duration`` seconds, or the reply's wire shape
        is garbled.
    delay_duration:
        Seconds a delayed reply is held back.
    seed:
        Seed of the per-``(shard, command)`` draw streams.
    schedule:
        Explicit ``{(shard_id, command_index): action}`` overrides;
        scheduled entries fire regardless of the rates, which lets
        tests place a single fault surgically.

    :meth:`parse` reads ``"kill=0.05,hang=0.02,delay_duration=0.5"``;
    :meth:`from_env` reads ``REPRO_CHAOS`` (+ ``REPRO_CHAOS_SEED``), the
    hook the CI ``engine-chaos`` matrix uses to inject faults under the
    whole test suite without touching any call site.
    """

    ACTIONS = CHAOS_ACTIONS
    DURATIONS = ("delay_duration",)
    ENV = "REPRO_CHAOS"
    KIND = "chaos"
    SCHEDULE_KEY = (int, int)

    kill: float = 0.0
    hang: float = 0.0
    delay: float = 0.0
    corrupt: float = 0.0
    delay_duration: float = 0.1
    seed: int = 0
    schedule: Mapping[tuple[int, int], str] = field(default_factory=dict)

    def action_for(self, shard_id: int, command_index: int) -> str | None:
        """The action to inject for one command, or ``None``.

        Deterministic: the draw comes from its own
        ``SeedSequence([seed, shard_id, command_index])`` stream, so
        the same plan injects the same faults no matter how commands
        interleave across shards or how often workers are respawned.
        """
        scheduled = self.schedule.get((shard_id, command_index))
        if scheduled is not None:
            return scheduled
        return self.pick(shard_id, command_index)


class ChaosTransport:
    """Wrap a shard transport; inject faults per the plan.

    Injection happens coordinator-side, at submit/poll/reply time:

    * ``kill`` — the inner transport's worker is killed for real
      (``chaos_kill()``: SIGKILL for a process shard, a dead-flag for
      an inline one), *after* the command is sent; the supervisor sees
      a genuine mid-command death.
    * ``hang`` — the command is swallowed: ``poll`` honours its timeout
      and reports nothing, ``is_alive`` stays true; only the deadline
      can unstick the coordinator.
    * ``delay`` — the command goes through, but ``poll`` reports no
      reply until ``delay_duration`` has elapsed.
    * ``corrupt`` — the command goes through; the reply's wire tuple is
      replaced with a garbled payload, exercising the protocol-failure
      path.

    The wrapper is transparent when no action fires, and the supervisor
    replaces it (not the inner transport) on respawn, feeding
    ``command_offset`` so the shard's command count survives.  A worker
    that had a kill, hang or corrupt injected is destroyed on
    :meth:`close`, so it never goes back to an idle set.
    """

    def __init__(self, inner, plan: ChaosPlan, shard_id: int,
                 command_offset: int = 0):
        self._inner = inner
        self._plan = plan
        self.shard_id = int(shard_id)
        self.commands_seen = int(command_offset)
        self._action: str | None = None
        self._delay_until = 0.0
        self._faulted = False

    @property
    def inner(self):
        return self._inner

    # -- protocol pass-through ----------------------------------------

    def wait_ready(self) -> None:
        self._inner.wait_ready()

    def ensure_ready(self, timeout=None) -> None:
        self._inner.ensure_ready(timeout)

    def submit(self, command: str, *payload) -> None:
        action = self._plan.action_for(self.shard_id, self.commands_seen)
        self.commands_seen += 1
        self._action = action
        self._faulted |= action in ("kill", "hang", "corrupt")
        if action == "hang":
            # Swallow the command entirely; the shard never sees it.
            return
        self._inner.submit(command, *payload)
        if action == "kill":
            self._inner.chaos_kill()
        elif action == "delay":
            self._delay_until = (
                time.monotonic() + self._plan.delay_duration
            )

    def poll(self, timeout: float) -> bool:
        if self._action == "hang":
            if timeout > 0:
                time.sleep(timeout)
            return False
        if self._action == "delay":
            remaining = self._delay_until - time.monotonic()
            if remaining > 0:
                time.sleep(min(timeout, remaining))
                if self._delay_until > time.monotonic():
                    return False
        return self._inner.poll(timeout)

    def wait_reply(self, timeout: float, tick: float | None = None) -> bool:
        """Event-driven wait with the injected fault honoured.

        A hung command has no event to wait on, so the wait degrades to
        a sleep capped at ``tick`` (the supervisor's poll interval) —
        liveness and deadline are re-checked at that granularity, same
        as the pre-wait poll loop.  A delayed reply sleeps out the
        remaining hold-back, then waits on the real transport for
        whatever timeout is left.
        """
        if self._action == "hang":
            wait_for = timeout if tick is None else min(timeout, tick)
            if wait_for > 0:
                time.sleep(wait_for)
            return False
        if self._action == "delay":
            remaining = self._delay_until - time.monotonic()
            if remaining > 0:
                wait_for = min(timeout, remaining)
                if wait_for > 0:
                    time.sleep(wait_for)
                if self._delay_until > time.monotonic():
                    return False
                timeout -= wait_for
        return self._inner.wait_reply(timeout, tick)

    def take_reply(self):
        reply = self._inner.take_reply()
        if self._action == "corrupt":
            self._action = None
            return ("garbled", repr(reply)[:64], None)
        self._action = None
        return reply

    def is_alive(self) -> bool:
        if self._action == "hang":
            return True
        return self._inner.is_alive()

    def chaos_kill(self) -> None:
        self._inner.chaos_kill()

    def result(self):
        return self._inner.result()

    def call(self, command: str, *payload):
        self.submit(command, *payload)
        return self.result()

    def destroy(self) -> None:
        self._inner.destroy()

    def close(self) -> None:
        if self._faulted:
            self._inner.destroy()
        else:
            self._inner.close()
