"""The sharded campaign entry points, API-compatible with
:func:`~repro.simulation.session.run_hc_session`.

:class:`ParallelCampaignRunner` shares the serial pipeline's set-up —
:func:`~repro.simulation.session.campaign_inputs` (crowd split,
initialization, the answer source with its faults) and
:func:`~repro.simulation.session.resilient_session` (the resilient
runtime and its triggers) — and swaps in the sharded execution seams:
a :class:`~repro.engine.shards.ShardPool` over the belief's groups, a
:class:`~repro.engine.sharded.ShardedSelector`, a
:class:`~repro.engine.sharded.ShardedUpdateEngine`, and a
:class:`~repro.engine.ledger.LedgerBudget` settling every charge
against a global :class:`~repro.engine.ledger.BudgetLedger`.  Because
each seam is individually bit-identical to its serial counterpart, the
returned result (history, beliefs, labels — and on the resilient path,
the journal) is byte-for-byte the serial run's, for any worker count.

Journals gain one ``{"kind": "engine"}`` record (after the header and
initial checkpoint) remembering the shard layout; a parallel journal is
otherwise identical to a serial one, and
:func:`resume_parallel_session` uses the record to rebuild the same
layout — resuming a killed parallel campaign byte-identically.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ..core.budget import CostModel
from ..core.hc import RunResult
from ..core.serialization import (
    SerializationError,
    crowd_from_dict,
    factored_belief_from_dict,
    fold_checkpoints,
    header_field,
)
from ..core.workers import Crowd
from ..datasets.schema import CrowdLabelingDataset
from ..simulation.online import OnlineCheckingSession
from ..simulation.resilient import ResilientCheckingSession
from ..simulation.session import (
    SessionConfig,
    campaign_inputs,
    resilient_session,
)
from .ledger import BudgetLedger, LedgerBudget
from .sharded import ShardedSelector, ShardedUpdateEngine
from .shards import IdleWorkers, ShardPool
from .sources import ConcurrentAnswerSource, KeyedExpertPanel
from .supervisor import SupervisionPolicy


class ParallelCampaignRunner:
    """Run one HC campaign with sharded selection/updates.

    Parameters
    ----------
    dataset, config, aggregator, answer_source:
        Exactly as in :func:`~repro.simulation.session.run_hc_session`.
    jobs:
        Number of shard workers (clamped to the number of task groups).
        On the plain (non-resilient) path a
        :class:`~repro.engine.sources.KeyedExpertPanel` source is also
        collected on that many threads
        (:class:`~repro.engine.sources.ConcurrentAnswerSource`).
    inline:
        ``True`` runs shards in-process (no multiprocessing; what tests
        use), ``False`` in spawn-safe child processes; ``None`` (default)
        picks inline when ``jobs == 1``.
    ledger:
        Optional shared :class:`~repro.engine.ledger.BudgetLedger`;
        concurrent campaigns passing the same ledger draw on one budget
        pool without double-spending.  Defaults to a private ledger.
    start_method:
        Multiprocessing start method for process shards (spawn-safe
        default).
    policy:
        :class:`~repro.engine.supervisor.SupervisionPolicy` for the
        shard pool (deadline, restart budget, failover); defaults to
        environment-derived settings.
    chaos:
        Optional :class:`~repro.engine.chaos.ChaosPlan` injecting
        transport faults (tests / CI).
    extra_journal_records:
        Extra metadata records journaled *before* the engine record
        (each needs a ``"kind"`` field).  The campaign service stores
        its ``{"kind": "tenant"}`` identity record here.
    idle_workers:
        Optional :class:`~repro.engine.shards.IdleWorkers` set the
        pool adopts process workers from and releases them back to
        (the campaign service passes its own).
    """

    def __init__(
        self,
        dataset: CrowdLabelingDataset,
        config: SessionConfig | None = None,
        *,
        jobs: int = 1,
        aggregator=None,
        answer_source=None,
        inline: bool | None = None,
        ledger: BudgetLedger | None = None,
        start_method: str = "spawn",
        policy: SupervisionPolicy | None = None,
        chaos=None,
        extra_journal_records: Sequence[dict] = (),
        idle_workers: IdleWorkers | None = None,
    ):
        self._dataset = dataset
        self._config = config or SessionConfig()
        self._jobs = int(jobs)
        self._aggregator = aggregator
        self._answer_source = answer_source
        self._inline = inline
        self._ledger = ledger
        self._start_method = start_method
        self._policy = policy
        self._chaos = chaos
        self._extra_journal_records = list(extra_journal_records)
        self._idle_workers = idle_workers
        #: Set by :meth:`prepare`: the campaign's budget ledger (inspect
        #: for reservation/commit accounting) and the shard count used.
        self.ledger: BudgetLedger | None = None
        self.jobs_used: int | None = None
        self.policy_used: SupervisionPolicy | None = None
        #: Set by :meth:`run`: the pool's supervision counters and
        #: incident log (captured before the pool is closed).
        self.supervisor_stats: dict | None = None
        self.supervisor_incidents: list = []
        self._prepared: dict | None = None

    # ------------------------------------------------------------------

    def prepare(self) -> "ParallelCampaignRunner":
        """Build the belief, shard pool and session without running.

        :meth:`run` calls this implicitly; benchmarks call it directly
        so one-time worker startup (process spawn + imports) can be
        measured separately from campaign wall-clock.  Idempotent until
        the prepared campaign is consumed by :meth:`run`.
        """
        if self._prepared is not None:
            return self
        dataset, config = self._dataset, self._config
        experts, belief, answer_source = campaign_inputs(
            dataset, config, self._aggregator, self._answer_source
        )
        inline = self._inline if self._inline is not None else self._jobs == 1
        tracker = LedgerBudget(config.budget, ledger=self._ledger)
        self.ledger = tracker.ledger
        policy = (
            self._policy
            if self._policy is not None
            else SupervisionPolicy.from_env()
        )
        self.policy_used = policy
        pool = ShardPool(
            belief,
            experts,
            self._jobs,
            inline=inline,
            start_method=self._start_method,
            policy=policy,
            chaos=self._chaos,
            idle_workers=self._idle_workers,
        )
        self.jobs_used = pool.jobs
        source = answer_source
        if (
            pool.jobs > 1
            and not config.resilient
            and isinstance(answer_source, KeyedExpertPanel)
        ):
            # A resilient session checkpoints its source's state, which
            # the wrapper does not carry.
            source = ConcurrentAnswerSource(answer_source, pool.jobs)
        try:
            selector = ShardedSelector(pool)
            engine = ShardedUpdateEngine(pool)
            if config.resilient:
                session = resilient_session(
                    dataset, config, belief, experts, tracker, selector,
                    update_engine=engine,
                    journal_metadata=(
                        [*self._extra_journal_records, self._engine_record()]
                        if config.journal_path is not None
                        else None
                    ),
                )
            else:
                session = OnlineCheckingSession(
                    belief,
                    experts,
                    tracker,
                    selector=selector,
                    k=config.k,
                    ground_truth=dataset.ground_truth,
                    update_engine=engine,
                )
        except BaseException:
            pool.close()
            raise
        if config.journal_path is not None:
            pool.attach_journal(config.journal_path)
        self._prepared = {
            "pool": pool,
            "session": session,
            "source": source,
            "tracker": tracker,
        }
        return self

    def launch(self) -> dict:
        """Hand the prepared campaign parts to an external driver.

        The campaign service steps sessions round-by-round itself, so it
        needs the pool/session/source/tracker rather than a blocking
        :meth:`run`.  The caller takes ownership: it must close the pool
        and the tracker (releasing any orphaned ledger reservation) when
        the campaign ends, however it ends.
        """
        self.prepare()
        prepared, self._prepared = self._prepared, None
        return prepared

    def run(self) -> RunResult:
        """Execute the campaign; returns the serial-identical result."""
        prepared = self.launch()
        pool = prepared["pool"]
        with pool:
            try:
                return prepared["session"].run(prepared["source"])
            finally:
                # An abort between reserve_pending and the charge must
                # not leave its worst-case round cost held on a shared
                # ledger forever.
                prepared["tracker"].close()
                self.supervisor_stats = pool.supervisor_stats()
                self.supervisor_incidents = list(pool.supervisor_incidents)

    def _engine_record(self) -> dict:
        record = {
            "kind": "engine",
            "jobs": int(self.jobs_used or self._jobs),
            "start_method": self._start_method,
        }
        policy = self.policy_used
        if policy is not None:
            record["supervision"] = {
                "deadline": policy.deadline,
                "max_restarts": policy.max_restarts,
                "failover": policy.failover,
            }
        return record


def run_parallel_hc_session(
    dataset: CrowdLabelingDataset,
    config: SessionConfig | None = None,
    selector=None,
    aggregator=None,
    answer_source=None,
    *,
    jobs: int = 1,
    inline: bool | None = None,
    ledger: BudgetLedger | None = None,
    policy: SupervisionPolicy | None = None,
    chaos=None,
) -> RunResult:
    """Drop-in :func:`~repro.simulation.session.run_hc_session` with
    sharded execution.

    The positional parameters match ``run_hc_session`` so call sites
    switch by adding ``jobs=N``.  A caller-supplied ``selector`` is
    rejected: selection *is* the sharded engine's job (the per-shard
    CELF greedy), and silently running a different selector serially
    would defeat it.
    """
    if selector is not None:
        raise ValueError(
            "run_parallel_hc_session owns selection (sharded lazy "
            "greedy); drop the selector argument or use run_hc_session"
        )
    runner = ParallelCampaignRunner(
        dataset,
        config,
        jobs=jobs,
        aggregator=aggregator,
        answer_source=answer_source,
        inline=inline,
        ledger=ledger,
        policy=policy,
        chaos=chaos,
    )
    return runner.run()


def _journaled_layout(
    record: dict, num_groups: int
) -> tuple[list[tuple[int, ...]], tuple[bool, ...]]:
    """A ``shard_incident`` record's failover layout: its partition,
    which must cover every one of the belief's ``num_groups`` groups
    exactly once, and its degraded flags.  A malformed one raises
    :class:`SerializationError` naming the field."""
    try:
        partition = [
            tuple(int(index) for index in shard)
            for shard in record["partition"]
        ]
    except (TypeError, ValueError):
        partition = None
    if partition is None or sorted(
        index for shard in partition for index in shard
    ) != list(range(num_groups)):
        raise SerializationError(
            "malformed journal shard_incident field 'partition': "
            f"{record['partition']!r} is not a cover of the "
            f"{num_groups} groups by lists of group indices"
        )
    try:
        degraded = tuple(bool(flag) for flag in record.get("degraded", ()))
    except TypeError:
        raise SerializationError(
            "malformed journal shard_incident field 'degraded': "
            f"{record['degraded']!r}"
        ) from None
    return partition, degraded


def resume_parallel_session(
    journal_path: str | Path,
    *,
    jobs: int | None = None,
    inline: bool | None = None,
    ledger: BudgetLedger | None = None,
    retry_policy=None,
    reserve_experts: Crowd | None = None,
    cost_model: CostModel | None = None,
    sleep=None,
    policy: SupervisionPolicy | None = None,
    supervision_overrides: dict | None = None,
    chaos=None,
    idle_workers: IdleWorkers | None = None,
) -> tuple[ResilientCheckingSession, ShardPool]:
    """Restore a killed parallel campaign from its journal.

    Rebuilds the shard layout from the journal's ``engine`` record
    (overridable with ``jobs`` — the continuation is bit-identical for
    any worker count), seeds every shard with the last checkpoint's
    group states, and resumes the resilient session with the sharded
    seams and a fresh ledger caught up to the checkpoint's spending.
    No new ``engine`` record is appended — resume only ever adds the
    same records a serial resume would.

    Supervision settings are restored from the engine record's
    ``supervision`` entry (overridable per-field with
    ``supervision_overrides`` or wholesale with ``policy``), and the
    failover layout from the last layout-bearing ``shard_incident``
    record — a campaign that degraded some shards resumes with the same
    degraded layout rather than resurrecting workers on hardware that
    just failed.  Passing an explicit ``jobs`` discards the journaled
    layout and starts from a fresh balanced partition (equally correct:
    results are partition-independent).

    ``idle_workers`` is an optional
    :class:`~repro.engine.shards.IdleWorkers` set the pool adopts
    process workers from and releases them back to.

    Returns ``(session, pool)``; call ``session.run(answer_source)`` to
    continue and close the pool afterwards (it is a context manager).
    """
    from ..storage.integrity import recover_for_resume

    records = recover_for_resume(journal_path, ("checkpoint",))
    engine_records = [
        record for record in records if record.get("kind") == "engine"
    ]
    checkpoints = [
        record for record in records if record.get("kind") == "checkpoint"
    ]
    if not checkpoints:
        raise SerializationError(
            f"journal {journal_path} has no intact checkpoint"
        )
    budget_total = header_field(records[0], "budget_total")
    last = checkpoints[-1]
    engine = engine_records[-1] if engine_records else {}
    if policy is None:
        policy = SupervisionPolicy.from_env()
        if "supervision" in engine:
            try:
                policy = policy.with_overrides(engine["supervision"])
            except (TypeError, ValueError) as error:
                raise SerializationError(
                    "malformed journal engine field 'supervision': "
                    f"{engine['supervision']!r} ({error})"
                ) from None
    policy = policy.with_overrides(supervision_overrides)
    checkpoint = fold_checkpoints(records)
    belief = factored_belief_from_dict(checkpoint["belief"])
    partition = None
    degraded: tuple[bool, ...] = ()
    if jobs is None:
        layout_records = [
            record
            for record in records
            if record.get("kind") == "shard_incident"
            and record.get("partition") is not None
        ]
        if layout_records:
            partition, degraded = _journaled_layout(
                layout_records[-1], len(belief)
            )
        jobs = header_field(engine, "jobs", int) if engine else 1
        if jobs < 1:
            raise SerializationError(
                f"malformed journal engine field 'jobs': {jobs!r}"
            )
    if inline is None:
        inline = jobs == 1 and partition is None
    panel = crowd_from_dict(last["panel"])
    pool = ShardPool(
        belief,
        panel,
        jobs,
        inline=inline,
        policy=policy,
        chaos=chaos,
        partition=partition,
        degraded=degraded,
        idle_workers=idle_workers,
    )
    tracker = LedgerBudget(budget_total, ledger=ledger, cost_model=cost_model)
    try:
        session = ResilientCheckingSession.resume(
            journal_path,
            selector=ShardedSelector(pool),
            cost_model=cost_model,
            retry_policy=retry_policy,
            reserve_experts=reserve_experts,
            sleep=sleep,
            update_engine=ShardedUpdateEngine(pool),
            budget_tracker=tracker,
            records=records,
            checkpoint=checkpoint,
            belief=belief,
        )
    except BaseException:
        pool.close()
        raise
    pool.attach_journal(journal_path)
    return session, pool
