"""Shard workers: the per-shard slice of a campaign, plus transports.

A shard owns a contiguous slice of the campaign's task groups.  Because
groups are independent, the shard can hold its own
:class:`~repro.core.observations.FactoredBelief` over just those
groups, run the CELF lazy-greedy selector with a *shard-local* gain
cache, and apply Bayesian updates for its facts — all without ever
seeing another shard's state.  The coordinator talks to shards through
a tiny command protocol:

``select``
    Run the shard-local greedy for up to ``k`` picks; reply with the
    non-increasing ``(fact_id, gain)`` sequence.
``stage_partial`` / ``stage_family``
    Phase one of a belief update: compute the posterior states of the
    shard's touched groups on copies; reply with their probability
    arrays (bit-exact through pickling) without committing.
``commit`` / ``abort``
    Phase two: atomically adopt (or drop) the staged states and
    invalidate exactly the updated groups' selector caches.
``replace_experts``, ``sync_groups``, ``stats``, ``close``
    Panel swaps, resume re-sync, work counters, shutdown.
``release``
    The end of a campaign on a worker that is kept for the next one
    (see :class:`IdleWorkers`).

Two transports implement the protocol: :class:`InlineShard` executes
commands in the calling process (fast, used by tests and ``--jobs 1``)
and :class:`ProcessShard` runs the same :class:`ShardState` in a
``multiprocessing`` child using the **spawn** start method (fork-safety:
no inherited locks or RNG state; everything crosses the pipe pickled).
:class:`ShardPool` owns one transport per shard and the broadcast /
gather helpers the coordinator uses.

A process worker outlives its campaign when the pool is given an
:class:`IdleWorkers` set: a clean close *releases* the worker (it drops
its :class:`ShardState` and waits for the next init frame) and the next
pool on the same set adopts it instead of spawning a new interpreter.
Reuse cannot change a result: every :class:`ShardState` is rebuilt from
its init frame, and the module-level caches a worker keeps between
campaigns (truth tables, einsum plans, Hamming matrices, response
tables) are pure functions of their arguments.

Both transports expose a *supervisable* surface — non-blocking
``poll(timeout)`` / raw ``take_reply()`` / ``is_alive()`` /
``destroy()`` — in addition to the legacy blocking
``submit``/``result`` pair.  The pool routes every command through a
:class:`~repro.engine.supervisor.ShardSupervisor`, which awaits replies
under a deadline and repairs dead, hung, or desynchronized workers by
respawning them from the pool's authoritative coordinator-side state
(see :meth:`ShardPool.respawn_shard`), failing their groups over to
inline execution once the restart budget runs out.
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle
import time
from multiprocessing import connection as mp_connection
from typing import Sequence

from ..obs import OBS

from ..core.answers import AnswerFamily, PartialAnswerFamily
from ..core.kernel import state_from_wire, state_wire_payload
from ..core.observations import BeliefState, FactoredBelief
from ..core.selection import LazyGreedySelector
from ..core.update import InconsistentEvidenceError
from ..core.workers import Crowd
from ..simulation.online import stage_family_updates, stage_partial_updates


def _dumps(obj) -> bytes:
    """Wire encoding: always ``HIGHEST_PROTOCOL``.

    ``Connection.send`` pickles with the *default* protocol, which
    frames large float64 arrays less efficiently (no out-of-band buffer
    framing) and re-serializes the object per call; every pipe frame in
    this module goes through here instead, so the protocol is pinned in
    one place and payloads can be pre-serialized once and reused.
    """
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _send(connection, obj) -> int:
    """Send one pre-pickled frame; returns its size in bytes."""
    frame = _dumps(obj)
    connection.send_bytes(frame)
    return len(frame)


def _recv(connection):
    return pickle.loads(connection.recv_bytes())


class ShardProtocolError(RuntimeError):
    """The coordinator and a shard disagreed about the protocol state."""


class ShardState:
    """The shard-local campaign slice and its command handlers.

    Shared verbatim by both transports, so inline and process shards
    cannot drift apart behaviourally.

    Parameters
    ----------
    group_indices:
        The *global* group indices this shard owns (ascending).
    states:
        The owned groups' belief states, aligned with ``group_indices``.
    experts:
        The current checking panel.
    gain_tolerance:
        Forwarded to the shard's
        :class:`~repro.core.selection.LazyGreedySelector`.
    """

    def __init__(
        self,
        group_indices: Sequence[int],
        states: Sequence[BeliefState],
        experts: Crowd,
        gain_tolerance: float = 1e-12,
    ):
        if len(group_indices) != len(states) or not group_indices:
            raise ValueError("need one state per owned group (and >= 1)")
        self._global_indices = tuple(int(index) for index in group_indices)
        self._belief = FactoredBelief(states)
        self._fact_ids = frozenset(self._belief.fact_ids)
        self._experts = experts
        self._selector = LazyGreedySelector(gain_tolerance)
        self._staged: dict[int, BeliefState] | None = None
        # Worker-local observability aggregation: command counts and
        # busy seconds, drained as a delta piggybacked on ``commit``
        # replies (never a dedicated round-trip; see
        # :meth:`take_metrics_delta`).  Always on — two perf_counter
        # reads per command are noise next to any command body, and
        # keeping the protocol identical whether or not the
        # coordinator's observability is enabled is what makes the
        # enabled/disabled byte-identity guarantee trivial.
        self._metrics_commands: dict[str, int] = {}
        self._metrics_busy: dict[str, float] = {}

    # ------------------------------------------------------------------

    def _to_global(self, local_index: int) -> int:
        return self._global_indices[local_index]

    def handle(self, command: str, payload: tuple) -> object:
        handler = getattr(self, f"_cmd_{command}", None)
        if handler is None:
            raise ShardProtocolError(f"unknown shard command {command!r}")
        started = time.perf_counter()
        try:
            return handler(*payload)
        finally:
            elapsed = time.perf_counter() - started
            self._metrics_commands[command] = (
                self._metrics_commands.get(command, 0) + 1
            )
            self._metrics_busy[command] = (
                self._metrics_busy.get(command, 0.0) + elapsed
            )

    def take_metrics_delta(self) -> dict:
        """Drain the worker-local counters accumulated since the last
        drain.  The coordinator folds the delta into its registry with
        a ``shard`` label (:meth:`Observability.consume_worker_delta`);
        the reply payload is a few dozen bytes riding a message that
        was being sent anyway."""
        delta = {
            "commands": self._metrics_commands,
            "busy_seconds": self._metrics_busy,
        }
        self._metrics_commands = {}
        self._metrics_busy = {}
        return delta

    # -- selection ------------------------------------------------------

    def _cmd_select(self, k: int) -> list[tuple[int, float]]:
        return self._selector.select_with_gains(
            self._belief, self._experts, k
        )

    def _cmd_replace_experts(self, experts: Crowd) -> None:
        self._experts = experts

    def _cmd_stats(self) -> dict:
        return self._selector.stats.as_dict()

    # -- two-phase belief updates --------------------------------------

    def _stage(self, stage) -> tuple:
        """Run one staging function (``stage() -> (staged, tempered)``)
        over the shard's facts without committing.

        Replies ``("staged", {global_group: wire payload}, tempered)``
        or ``("inconsistent", key, error)`` with the error's serial
        emission key, so the coordinator can abort everywhere and raise
        the error the serial loop would have raised first.
        """
        if self._staged is not None:
            raise ShardProtocolError("a staged update is already pending")
        try:
            staged, tempered = stage()
        except InconsistentEvidenceError as error:
            return ("inconsistent", error.stage_key, error)
        self._staged = staged
        return (
            "staged",
            {
                self._to_global(local): state_wire_payload(state)
                for local, state in staged.items()
            },
            tempered,
        )

    def _cmd_stage_partial(
        self,
        family: PartialAnswerFamily,
        temper: bool,
        round_index: int,
        accuracy_overrides: dict | None,
    ) -> tuple:
        """Stage Lemma-3 updates for the shard's facts."""
        return self._stage(
            lambda: stage_partial_updates(
                self._belief,
                family,
                temper=temper,
                round_index=round_index,
                accuracy_overrides=accuracy_overrides,
                fact_filter=self._fact_ids,
            )
        )

    def _cmd_stage_family(self, family: AnswerFamily) -> tuple:
        """Stage full-round Eq. 23 updates for the shard's facts."""
        return self._stage(
            lambda: (
                stage_family_updates(
                    self._belief, family, fact_filter=self._fact_ids
                ),
                [],
            )
        )

    def _cmd_commit(self) -> dict:
        """Commit the staged update; the reply piggybacks the worker's
        metric delta (a rebuilt worker's subsumed commit replies
        ``None`` instead — the coordinator skips non-dict deltas)."""
        if self._staged is None:
            raise ShardProtocolError("no staged update to commit")
        for local, state in self._staged.items():
            self._belief.replace_group(local, state)
        self._selector.invalidate_groups(self._staged.keys())
        self._staged = None
        return self.take_metrics_delta()

    def _cmd_abort(self) -> None:
        if self._staged is None:
            raise ShardProtocolError("no staged update to abort")
        self._staged = None

    # -- resume ---------------------------------------------------------

    def _cmd_sync_groups(self, groups: dict) -> None:
        """Overwrite owned groups from ``{global_index: wire payload}``
        (journal resume re-syncs shard beliefs to the checkpoint)."""
        local_of = {
            global_index: local
            for local, global_index in enumerate(self._global_indices)
        }
        touched = []
        for global_index, payload in groups.items():
            local = local_of[int(global_index)]
            self._belief.replace_group(
                local,
                state_from_wire(self._belief[local].facts, payload),
            )
            touched.append(local)
        self._selector.invalidate_groups(touched)

    def _cmd_ping(self) -> str:
        return "pong"


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------


class InlineShard:
    """Runs the shard state machine in the calling process.

    Execution is *deferred*: ``submit`` only records the command and
    ``take_reply`` runs it, returning the same ``("ok", result)`` /
    ``("error", exception)`` wire tuples a process shard sends — so the
    supervisor drives both transports through one code path, and chaos
    tests can exercise the full recovery machinery without spawning
    processes.  ``chaos_kill`` flips a dead-flag that makes the shard
    indistinguishable from a killed worker (``poll`` finds nothing,
    ``is_alive`` is false, pending work is lost).
    """

    def __init__(self, *args, **kwargs):
        self._state = ShardState(*args, **kwargs)
        self._pending: tuple[str, tuple] | None = None
        self._dead = False

    # -- supervisable surface ------------------------------------------

    def wait_ready(self) -> None:
        pass

    def ensure_ready(self, timeout: float | None = None) -> None:
        pass

    def submit(self, command: str, *payload) -> None:
        if self._dead:
            raise BrokenPipeError("inline shard is dead")
        if self._pending is not None:
            raise ShardProtocolError("previous command still in flight")
        self._pending = (command, payload)

    def poll(self, timeout: float = 0.0) -> bool:
        return self._pending is not None and not self._dead

    def wait_reply(
        self, timeout: float, tick: float | None = None
    ) -> bool:
        """Inline replies are ready the moment they are submitted, so
        waiting never blocks (death is reported immediately too)."""
        return self.poll()

    def take_reply(self):
        if self._dead:
            raise EOFError("inline shard is dead")
        if self._pending is None:
            raise ShardProtocolError("no command in flight")
        command, payload = self._pending
        self._pending = None
        try:
            return ("ok", self._state.handle(command, payload))
        except Exception as error:  # surfaced to the coordinator
            return ("error", error)

    def is_alive(self) -> bool:
        return not self._dead

    def chaos_kill(self) -> None:
        self._dead = True
        self._pending = None

    # -- legacy blocking surface ---------------------------------------

    def result(self):
        status, value = self.take_reply()
        if status == "error":
            raise value
        return value

    def call(self, command: str, *payload):
        self.submit(command, *payload)
        return self.result()

    def close(self) -> None:
        pass

    def destroy(self) -> None:
        self._dead = True
        self._pending = None


class SharedCampaignPayload:
    """The pool-wide slice of the shard init payload, serialized once.

    Historically every :class:`ProcessShard` re-pickled the full expert
    panel at spawn, so startup pipe bytes scaled with ``jobs x panel
    size``.  The pool now pickles the shared part exactly once
    (``HIGHEST_PROTOCOL``) and publishes the bytes through a
    :mod:`multiprocessing.shared_memory` segment that every worker maps
    read-only; each init frame then carries only the tiny segment
    reference plus the shard's own group slice.  Where shared
    memory is unavailable the bytes ride inline in each init frame —
    still serialized once, merely transported per worker.

    The segment lives until :meth:`close` (the pool closes it after the
    shards), so late respawns can still map it; the resource tracker
    reclaims it even if the coordinator is SIGKILLed.
    """

    def __init__(self, experts: Crowd):
        #: Kept as a reference so transports can detect when a caller's
        #: current panel has drifted from the shared snapshot (a
        #: respawn after a panel swap must override, not reuse).
        self.experts = experts
        blob = _dumps(experts)
        self.size = len(blob)
        self._segment = None
        self._blob: bytes | None = None
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(
                create=True, size=max(1, len(blob))
            )
            segment.buf[: len(blob)] = blob
            self._segment = segment
        except Exception:
            self._blob = blob

    @property
    def uses_shared_memory(self) -> bool:
        return self._segment is not None

    def ref(self) -> tuple:
        """The per-worker handle: a segment name or the inline bytes."""
        if self._segment is not None:
            return ("shm", self._segment.name, self.size)
        return ("inline", self._blob)

    def close(self) -> None:
        if self._segment is not None:
            try:
                self._segment.close()
                self._segment.unlink()
            except (FileNotFoundError, OSError):
                pass
            self._segment = None
        self._blob = None


def _load_shared_payload(ref: tuple):
    """Child-side decode of :meth:`SharedCampaignPayload.ref`."""
    if ref[0] == "inline":
        return pickle.loads(ref[1])
    from multiprocessing import shared_memory

    _kind, name, size = ref
    segment = shared_memory.SharedMemory(name=name)
    try:
        return pickle.loads(bytes(segment.buf[:size]))
    finally:
        segment.close()


#: The frame that ends a campaign on a worker kept for the next one:
#: the worker drops its :class:`ShardState` and waits for an init frame.
_RELEASE = "release"


def _shard_main(connection) -> None:
    """Child-process entry point: serve campaigns until shut down.

    Module-level so the spawn start method can pickle it.  Each campaign
    starts with an init frame carrying the shared-payload reference plus
    the shard's own slice; every later frame is ``(command, payload)``
    answered with ``("ok", result)`` or ``("error", exception)``.  A
    release frame ends the campaign and the worker waits for the next
    init frame; the shutdown frame (``None``), or the coordinator's end
    of the pipe closing, ends the process.  All frames cross the pipe as
    ``HIGHEST_PROTOCOL`` pickles via :func:`_send` / :func:`_recv`.
    """
    try:
        while (message := _recv(connection)) is not None:
            if not _serve_campaign(connection, message):
                break
            # The released state's arrays go back to the allocator
            # while the worker is idle, not during the next campaign.
            gc.collect()
    except EOFError:
        pass  # the coordinator is gone
    finally:
        connection.close()


def _serve_campaign(connection, init) -> bool:
    """Build one campaign's state from its init frame and serve its
    commands; returns whether the campaign ended in a release."""
    kind, shared_ref, shard_payload = init
    if kind != "init":
        raise ShardProtocolError(f"expected init, got {kind!r}")
    experts = _load_shared_payload(shared_ref)
    if shard_payload.get("experts") is not None:
        experts = shard_payload["experts"]
    state = ShardState(
        shard_payload["indices"],
        shard_payload["states"],
        experts,
        shard_payload["gain_tolerance"],
    )
    _send(connection, ("ok", None))
    while True:
        message = _recv(connection)
        if message is None or message == _RELEASE:
            return message is not None
        command, payload = message
        try:
            _send(connection, ("ok", state.handle(command, payload)))
        except Exception as error:  # surfaced to the coordinator
            _send(connection, ("error", error))


def _stop_worker(process, connection, *, graceful: bool) -> None:
    """Stop one worker process and release its pipe and handle.

    ``graceful`` sends the shutdown frame (which may fail: dead child,
    full pipe) and escalates join → terminate → kill, so a wedged child
    cannot zombie past the 30s worst case.  Otherwise the worker is
    SIGKILLed before its pipe closes, which keeps a live-but-hung child
    from tracebacking into the coordinator's stderr mid-recovery.
    """
    if graceful:
        try:
            _send(connection, None)
        except OSError:
            pass
        try:
            connection.close()
        except OSError:
            pass
        process.join(timeout=10)
        if process.is_alive():
            process.terminate()
            process.join(timeout=10)
    if process.is_alive():
        process.kill()
    process.join(timeout=10)
    try:
        connection.close()
    except OSError:
        pass
    try:
        process.close()
    except ValueError:
        pass


class IdleWorkers:
    """Shard worker processes parked between the pools of one owner.

    A :class:`ProcessShard` built with an idle set adopts a parked
    worker of its start method before it spawns one, and parks its
    worker here when it closes cleanly (see :meth:`ProcessShard.close`);
    a worker that died, hung, garbled a reply or had a fault injected is
    destroyed instead.  The set counts the workers its shards hold and
    never parks more than the peak of that count, so it needs no size
    setting.  A :class:`~repro.service.service.CampaignService` owns one
    for its lifetime and reaps it in :meth:`close`.
    """

    def __init__(self) -> None:
        self._parked: dict[str, list[tuple]] = {}
        self._live = 0
        self._peak = 0

    def __len__(self) -> int:
        return sum(len(workers) for workers in self._parked.values())

    def pids(self) -> set[int]:
        """Process ids of the parked workers."""
        return {
            process.pid
            for workers in self._parked.values()
            for process, _connection in workers
        }

    def take(self, start_method: str):
        """Count one more live worker and hand out a parked
        ``(process, connection)`` of ``start_method``, or ``None`` when
        the caller must spawn one."""
        self._live += 1
        self._peak = max(self._peak, self._live)
        workers = self._parked.get(start_method)
        return workers.pop() if workers else None

    def park(self, start_method: str, process, connection) -> bool:
        """Take back a released live worker; ``False`` when the set is
        already at its peak and the caller must shut the worker down."""
        self._live -= 1
        if len(self) >= self._peak:
            return False
        self._parked.setdefault(start_method, []).append(
            (process, connection)
        )
        return True

    def drop(self) -> None:
        """A live worker was shut down or destroyed instead."""
        self._live -= 1

    def close(self) -> None:
        """Shut every parked worker down (idempotent)."""
        parked, self._parked = self._parked, {}
        for workers in parked.values():
            for process, connection in workers:
                _stop_worker(process, connection, graceful=True)


class ProcessShard:
    """Runs the shard state machine in a spawn-safe child process.

    ``shared`` is the pool's :class:`SharedCampaignPayload`; when it is
    omitted (tests building a lone shard) a private one is created and
    owned.  The positional ``experts`` is the *current* panel: whenever
    it differs from the shared snapshot (a panel swap before a respawn)
    it rides in the per-shard init frame as an override.
    ``idle_workers`` is an :class:`IdleWorkers` set to adopt the worker
    from and release it to.
    """

    def __init__(
        self,
        group_indices,
        states,
        experts,
        gain_tolerance=1e-12,
        start_method: str = "spawn",
        *,
        shared: SharedCampaignPayload | None = None,
        idle_workers: IdleWorkers | None = None,
    ):
        self._owned_shared: SharedCampaignPayload | None = None
        if shared is None:
            shared = SharedCampaignPayload(experts)
            self._owned_shared = shared
        shard_payload = {
            "indices": tuple(group_indices),
            "states": tuple(states),
            "gain_tolerance": gain_tolerance,
            "experts": None if experts is shared.experts else experts,
        }
        self._start_method = start_method
        self._idle = idle_workers
        # Kept until the handshake completes, so a replacement for an
        # adopted worker that fails it gets the same frame.
        self._init_frame = _dumps(("init", shared.ref(), shard_payload))
        #: Startup / steady-state pipe byte counters (transport tests
        #: assert init bytes no longer scale with the worker count).
        self.init_bytes = len(self._init_frame)
        self.shared_payload_bytes = shared.size
        self.bytes_sent = 0
        self.bytes_received = 0
        worker = (
            idle_workers.take(start_method)
            if idle_workers is not None
            else None
        )
        self._adopted = worker is not None
        if worker is None:
            self._spawn()
        else:
            self._process, self._parent = worker
            try:
                self._parent.send_bytes(self._init_frame)
            except OSError:
                self._replace_adopted()
        # The init handshake is awaited in ensure_ready() so a pool can
        # start every child first and let their interpreter/numpy
        # imports overlap across cores.
        self._ready = False
        self._in_flight = False
        self._destroyed = False

    def _spawn(self) -> None:
        context = multiprocessing.get_context(self._start_method)
        self._parent, child = context.Pipe()
        self._process = context.Process(
            target=_shard_main, args=(child,), daemon=True
        )
        self._process.start()
        child.close()
        self._parent.send_bytes(self._init_frame)

    def _replace_adopted(self) -> None:
        """Reap an adopted worker that failed its handshake (it died, or
        stopped answering, while parked) and spawn a replacement.  That
        is start-up cost, not a shard failure."""
        _stop_worker(self._process, self._parent, graceful=False)
        self._adopted = False
        self._spawn()

    def wait_ready(self) -> None:
        self.ensure_ready(None)

    def ensure_ready(self, timeout: float | None = None) -> None:
        """Await the init handshake, optionally under a deadline (a
        respawned worker that cannot come up must not hang recovery)."""
        if self._ready:
            return
        try:
            answered = timeout is None or self._parent.poll(timeout)
            reply = self._recv_frame() if answered else None
        except (EOFError, OSError):
            if not self._adopted:
                raise
            reply = None
        if reply is None:
            if self._adopted:
                self._replace_adopted()
                return self.ensure_ready(timeout)
            from .supervisor import ShardRespawnError

            raise ShardRespawnError(
                f"shard worker not ready within {timeout}s"
            )
        self._check(reply)
        self._ready = True
        self._init_frame = None

    @staticmethod
    def _check(reply):
        status, value = reply
        if status == "error":
            raise value
        return value

    def _recv_frame(self):
        frame = self._parent.recv_bytes()
        self.bytes_received += len(frame)
        return pickle.loads(frame)

    def submit(self, command: str, *payload) -> None:
        self.ensure_ready()
        if self._in_flight:
            raise ShardProtocolError("previous command still in flight")
        self.bytes_sent += _send(self._parent, (command, payload))
        self._in_flight = True

    # -- supervisable surface ------------------------------------------

    def poll(self, timeout: float = 0.0) -> bool:
        return self._parent.poll(timeout)

    def wait_reply(
        self, timeout: float, tick: float | None = None
    ) -> bool:
        """Block until a reply is readable or the worker dies, up to
        ``timeout`` seconds; returns whether a reply is readable.

        Uses :func:`multiprocessing.connection.wait` over the reply
        pipe *and* the process sentinel, so an idle coordinator wakes
        the instant either fires instead of sleeping fixed poll ticks —
        and a worker death interrupts the wait immediately rather than
        being noticed at the next deadline check.  (``tick`` is only
        meaningful for transports that must sleep-poll; a real pipe
        wait needs no granularity.)
        """
        if self._parent.poll(0.0):
            return True
        if timeout <= 0:
            return False
        handles: list = [self._parent]
        try:
            handles.append(self._process.sentinel)
        except ValueError:
            pass  # process already closed; the pipe wait still works
        mp_connection.wait(handles, timeout)
        return self._parent.poll(0.0)

    def take_reply(self):
        self._in_flight = False
        return self._recv_frame()

    def is_alive(self) -> bool:
        return self._process.is_alive()

    def chaos_kill(self) -> None:
        self._process.kill()

    # -- legacy blocking surface ---------------------------------------

    def result(self):
        if not self._in_flight:
            raise ShardProtocolError("no command in flight")
        self._in_flight = False
        return self._check(self._recv_frame())

    def call(self, command: str, *payload):
        self.submit(command, *payload)
        return self.result()

    def _release(self) -> bool:
        """Send the release frame if the worker is clean: handshake
        done, nothing in flight, reply pipe drained, process alive."""
        if not self._ready or self._in_flight or not self.is_alive():
            return False
        try:
            if self._parent.poll(0.0):
                return False
            _send(self._parent, _RELEASE)
        except OSError:
            return False
        return True

    def close(self) -> None:
        """Graceful shutdown that can never hang or leak.

        With an idle set, a clean worker is released and parked there
        instead (:meth:`_release`); any other worker is shut down (see
        :func:`_stop_worker`).
        """
        if self._destroyed:
            return
        self._destroyed = True
        idle, self._idle = self._idle, None
        if idle is not None:
            if not self._release():
                idle.drop()
            elif idle.park(self._start_method, self._process, self._parent):
                self._close_owned_shared()
                return
        _stop_worker(self._process, self._parent, graceful=True)
        self._close_owned_shared()

    def destroy(self) -> None:
        """Immediate teardown of a failed worker (no sentinel, no
        grace, never parked).  Idempotent."""
        if self._destroyed:
            return
        self._destroyed = True
        idle, self._idle = self._idle, None
        if idle is not None:
            idle.drop()
        _stop_worker(self._process, self._parent, graceful=False)
        self._close_owned_shared()

    def _close_owned_shared(self) -> None:
        if self._owned_shared is not None:
            self._owned_shared.close()
            self._owned_shared = None


class ShardPool:
    """One transport per shard plus the coordinator-side helpers.

    The pool is the authoritative side of every shard's state: it keeps
    a reference to the campaign belief (kept current by the update
    engine's mirror calls and :meth:`sync_groups`) — enough to rebuild
    any worker's :class:`ShardState` from scratch.
    All commands are dispatched through a
    :class:`~repro.engine.supervisor.ShardSupervisor` (deadline, respawn
    and failover; see that module for why recovery preserves
    bit-identity).

    Parameters
    ----------
    belief:
        The campaign's factored belief; its groups are partitioned with
        :func:`~repro.engine.partition.partition_groups` (``jobs`` is
        clamped to the number of groups, so every shard is non-empty).
        The pool keeps the reference as its authoritative mirror for
        worker rebuilds.
    experts:
        The initial checking panel.
    jobs:
        Requested shard count.
    inline:
        ``True`` runs every shard in-process (no multiprocessing);
        bit-identical to process shards by construction, and what
        ``--jobs 1`` and the fast tests use.
    gain_tolerance, start_method:
        Forwarded to the shard selector / transport.
    policy:
        :class:`~repro.engine.supervisor.SupervisionPolicy`; defaults to
        :meth:`~repro.engine.supervisor.SupervisionPolicy.from_env`.
    chaos:
        Optional :class:`~repro.engine.chaos.ChaosPlan` injecting
        transport faults (tests / the CI chaos matrix); defaults to
        :meth:`~repro.engine.chaos.ChaosPlan.from_env`.
    partition:
        Optional explicit group layout (list of group-index tuples
        covering every group exactly once), used by resume to restore a
        journaled failover layout; overrides ``jobs``.
    degraded:
        Per-``partition``-slice flags marking slices that already
        failed over to inline execution (resume restore).
    idle_workers:
        Optional :class:`IdleWorkers` set: process shards (initial and
        respawned) adopt its parked workers before spawning, and
        :meth:`close` releases clean workers back to it.
    """

    def __init__(
        self,
        belief: FactoredBelief,
        experts: Crowd,
        jobs: int,
        *,
        inline: bool = False,
        gain_tolerance: float = 1e-12,
        start_method: str = "spawn",
        policy=None,
        chaos=None,
        partition: Sequence[Sequence[int]] | None = None,
        degraded: Sequence[bool] = (),
        idle_workers: IdleWorkers | None = None,
    ):
        from .chaos import ChaosPlan
        from .partition import partition_groups
        from .supervisor import (
            ShardRespawnError,
            ShardSupervisor,
            SupervisionPolicy,
        )

        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        num_groups = len(belief)
        if partition is not None:
            layout = [
                tuple(int(index) for index in shard)
                for shard in partition
                if shard
            ]
            covered = sorted(
                index for shard in layout for index in shard
            )
            if covered != list(range(num_groups)):
                raise ValueError(
                    "partition must cover every group exactly once"
                )
            self.partition = layout
        else:
            requested = max(1, min(jobs, num_groups))
            self.partition = [
                tuple(shard)
                for shard in partition_groups(num_groups, requested)
                if shard
            ]
        self.jobs = len(self.partition)
        self.inline = bool(inline)
        self._belief = belief
        self._experts = experts
        self._gain_tolerance = gain_tolerance
        self._start_method = start_method
        self._idle_workers = idle_workers
        self._policy = (
            policy if policy is not None else SupervisionPolicy.from_env()
        )
        plan = chaos if chaos is not None else ChaosPlan.from_env()
        self._chaos = plan if plan is not None and plan.enabled else None
        self.shard_ids = list(range(len(self.partition)))
        self._degraded: set[int] = set()
        for position, flag in enumerate(degraded):
            if flag:
                self._degraded.add(self.shard_ids[position])
        self._chaos_counts: dict[int, int] = {}
        self._shared_payload: SharedCampaignPayload | None = None
        self.shards = []
        try:
            for position in range(len(self.partition)):
                self.shards.append(self._build_transport(position))
            for shard in self.shards:
                shard.ensure_ready(self._policy.startup_deadline)
        except BaseException as error:
            # A pool that never came up owns every worker and segment
            # it made so far: none may outlive the failed constructor.
            for shard in self.shards:
                shard.destroy()
            if self._shared_payload is not None:
                self._shared_payload.close()
            if isinstance(error, (OSError, EOFError)):
                raise ShardRespawnError(
                    f"shard worker start-up failed: {error!r}"
                ) from error
            raise
        self.supervisor = ShardSupervisor(self, self._policy)
        self._closed = False

    # ------------------------------------------------------------------
    # transport construction / repair
    # ------------------------------------------------------------------

    def _build_transport(self, position: int):
        """A transport for ``self.partition[position]`` with states
        rebuilt from the authoritative belief mirror.  Degraded slices
        run inline and are never chaos-wrapped, so an injection plan
        cannot prevent the campaign from terminating."""
        indices = self.partition[position]
        shard_id = self.shard_ids[position]
        degraded = shard_id in self._degraded
        states = [self._belief[index] for index in indices]
        if self.inline or degraded:
            shard = InlineShard(
                indices, states, self._experts, self._gain_tolerance
            )
        else:
            if self._shared_payload is None:
                # Pickled once for the whole pool; every worker (initial
                # spawn and later respawns) maps the same bytes instead
                # of re-serializing the panel per process.
                self._shared_payload = SharedCampaignPayload(self._experts)
            shard = ProcessShard(
                indices, states, self._experts, self._gain_tolerance,
                start_method=self._start_method,
                shared=self._shared_payload,
                idle_workers=self._idle_workers,
            )
        if self._chaos is not None and not degraded:
            from .chaos import ChaosTransport

            shard = ChaosTransport(
                shard,
                self._chaos,
                shard_id,
                self._chaos_counts.get(shard_id, 0),
            )
        return shard

    def _remember_chaos_count(self, shard) -> None:
        commands_seen = getattr(shard, "commands_seen", None)
        if commands_seen is not None:
            self._chaos_counts[shard.shard_id] = commands_seen

    def destroy_shard(self, position: int) -> None:
        """Immediately tear down one worker (failure path)."""
        shard = self.shards[position]
        self._remember_chaos_count(shard)
        shard.destroy()

    def respawn_shard(
        self,
        position: int,
        *,
        degraded: bool = False,
        startup_deadline: float | None = None,
    ) -> None:
        """Replace a destroyed worker with a fresh one rebuilt from the
        coordinator's authoritative belief mirror.  ``degraded=True``
        permanently fails the slice over to an unsupervised
        :class:`InlineShard`."""
        shard_id = self.shard_ids[position]
        if degraded:
            self._degraded.add(shard_id)
        shard = self._build_transport(position)
        shard.ensure_ready(startup_deadline)
        self.shards[position] = shard

    def merge_shards(
        self,
        target: int,
        source: int,
        *,
        startup_deadline: float | None = None,
    ) -> int:
        """Fold shard ``source``'s groups into shard ``target``
        (rebalance of a degraded slice onto a survivor).  Both workers
        are destroyed and the target respawned over the merged groups;
        only safe when nothing is staged or in flight.  Returns the
        target's position after the removal."""
        if target == source:
            raise ValueError("cannot merge a shard into itself")
        merged_groups = tuple(
            sorted(self.partition[target] + self.partition[source])
        )
        self.destroy_shard(target)
        self.destroy_shard(source)
        removed_id = self.shard_ids[source]
        del self.partition[source]
        del self.shards[source]
        del self.shard_ids[source]
        self._degraded.discard(removed_id)
        self._chaos_counts.pop(removed_id, None)
        if source < target:
            target -= 1
        self.partition[target] = merged_groups
        self.jobs = len(self.partition)
        self.respawn_shard(target, startup_deadline=startup_deadline)
        return target

    # ------------------------------------------------------------------
    # authoritative coordinator-side state
    # ------------------------------------------------------------------

    def mirror_group(self, global_index: int, state: BeliefState) -> None:
        """Record a committed group state in the belief mirror (called
        by the update engine *before* ``commit`` is broadcast, so a
        worker rebuilt during the commit already reflects it)."""
        self._belief.replace_group(global_index, state)

    def layout(self) -> dict:
        """The current shard layout, as journaled on failover (resume
        rebuilds the same pool shape from it)."""
        return {
            "partition": tuple(
                tuple(shard) for shard in self.partition
            ),
            "degraded": tuple(
                self.shard_ids[position] in self._degraded
                for position in range(len(self.partition))
            ),
        }

    def is_degraded(self, position: int) -> bool:
        return self.shard_ids[position] in self._degraded

    # ------------------------------------------------------------------
    # supervised dispatch
    # ------------------------------------------------------------------

    @property
    def experts(self) -> Crowd:
        return self._experts

    @property
    def policy(self):
        return self._policy

    def broadcast(self, command: str, *payload) -> list:
        """Send one command to every shard; gather replies in shard
        order.  Process shards overlap their work (all commands are
        submitted before any reply is awaited); the supervisor enforces
        the deadline and repairs failures along the way."""
        return self.supervisor.broadcast(command, *payload)

    def multicast(self, positions, command: str, *payload) -> list:
        """Supervised dispatch to a subset of shard positions."""
        return self.supervisor.multicast(positions, command, *payload)

    def ensure_experts(self, experts: Crowd) -> None:
        """Propagate a panel change to every shard (idempotent)."""
        if experts is self._experts or experts == self._experts:
            self._experts = experts
            return
        self._experts = experts
        self.broadcast("replace_experts", experts)

    def sync_groups(self, belief: FactoredBelief) -> None:
        """Overwrite every shard's groups from ``belief`` (resume).

        The belief mirror is brought current first, so a worker that
        fails during the sync is rebuilt at the synced state.
        """
        if belief is not self._belief:
            for index in range(len(belief)):
                self._belief.replace_group(index, belief[index])
        payloads = [
            {index: state_wire_payload(belief[index]) for index in indices}
            for indices in self.partition
        ]
        self.supervisor.scatter("sync_groups", payloads)

    def stats(self) -> list[dict]:
        return self.broadcast("stats")

    def transport_stats(self) -> dict:
        """Pipe/shared-memory byte counters across the pool's shards.

        ``shared_payload_bytes`` is counted once however many workers
        exist — the regression test for startup cost asserts the
        per-worker ``init_bytes`` stay free of the panel payload.
        """
        unwrapped = [
            getattr(shard, "inner", shard) for shard in self.shards
        ]
        init_bytes = [
            int(getattr(shard, "init_bytes", 0)) for shard in unwrapped
        ]
        return {
            "shared_payload_bytes": (
                self._shared_payload.size
                if self._shared_payload is not None
                else 0
            ),
            "shared_payload_in_memory": (
                self._shared_payload is not None
                and self._shared_payload.uses_shared_memory
            ),
            "init_bytes": init_bytes,
            "init_bytes_total": sum(init_bytes),
            "bytes_sent": sum(
                int(getattr(shard, "bytes_sent", 0)) for shard in unwrapped
            ),
            "bytes_received": sum(
                int(getattr(shard, "bytes_received", 0))
                for shard in unwrapped
            ),
        }

    # ------------------------------------------------------------------
    # supervision surface
    # ------------------------------------------------------------------

    def attach_journal(self, path) -> None:
        """Journal every supervision incident as a ``shard_incident``
        record (resume replays the journaled failover layout)."""
        self.supervisor.attach_journal(path)

    def supervisor_stats(self) -> dict:
        return self.supervisor.stats.as_dict()

    @property
    def supervisor_incidents(self) -> list:
        return self.supervisor.incidents

    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if OBS.enabled:
            # Migrate the ad-hoc transport/supervision counters into
            # the registry once per pool lifetime — gauges for the
            # byte totals, counter deltas for the interventions.
            OBS.publish_gauges(
                "repro_shard_transport", self.transport_stats()
            )
            OBS.publish_deltas(
                "repro_supervisor", self.supervisor.stats
            )
        # Clean workers go back to the idle set, if there is one.
        for shard in self.shards:
            shard.close()
        # After the workers: a respawn can still map the segment while
        # any shard lives, so the pool owns its lifetime.
        if self._shared_payload is not None:
            self._shared_payload.close()
            self._shared_payload = None

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
