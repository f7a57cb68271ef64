"""The ledger-backed campaign entry points, API-compatible with
:func:`~repro.simulation.session.run_hc_session`.

:class:`ParallelCampaignRunner` shares the serial pipeline's set-up —
:func:`~repro.simulation.session.campaign_inputs` (crowd split,
initialization, the answer source with its faults) and
:func:`~repro.simulation.session.resilient_session` (the resilient
runtime and its triggers) — and runs the campaign on the serial
checking loop with a :class:`~repro.engine.ledger.LedgerBudget`
settling every charge against a global
:class:`~repro.engine.ledger.BudgetLedger`.  On the plain path a
:class:`~repro.engine.sources.KeyedExpertPanel` source is collected on
``jobs`` threads
(:class:`~repro.engine.sources.ConcurrentAnswerSource`), which answers
each round bit-identically to one serial call, so the returned result
(history, beliefs, labels — and on the resilient path, the journal) is
byte-for-byte the serial run's, for any ``jobs``.

Journals written before the process-shard engine was removed carry an
``{"kind": "engine"}`` record and ``{"kind": "shard_incident"}``
records; :func:`resume_parallel_session` reads past them and continues
on the serial loop.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ..core.budget import CostModel
from ..core.hc import RunResult
from ..core.selection import LazyGreedySelector
from ..core.serialization import header_field
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
from .sources import ConcurrentAnswerSource, KeyedExpertPanel


class ParallelCampaignRunner:
    """Run one HC campaign against a budget ledger, collecting answers
    on several threads where the source allows it.

    Parameters
    ----------
    dataset, config, aggregator, answer_source:
        Exactly as in :func:`~repro.simulation.session.run_hc_session`.
    jobs:
        Collection threads.  On the plain (non-resilient) path a
        :class:`~repro.engine.sources.KeyedExpertPanel` source is
        collected on that many threads
        (:class:`~repro.engine.sources.ConcurrentAnswerSource`); any
        other campaign runs as with ``jobs=1``.
    ledger:
        Optional shared :class:`~repro.engine.ledger.BudgetLedger`;
        concurrent campaigns passing the same ledger draw on one budget
        pool without double-spending.  Defaults to a private ledger.
    extra_journal_records:
        Extra metadata records journaled between the header and the
        first checkpoint (each needs a ``"kind"`` field).  The campaign
        service stores its ``{"kind": "tenant"}`` identity record here.
    """

    def __init__(
        self,
        dataset: CrowdLabelingDataset,
        config: SessionConfig | None = None,
        *,
        jobs: int = 1,
        aggregator=None,
        answer_source=None,
        ledger: BudgetLedger | None = None,
        extra_journal_records: Sequence[dict] = (),
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs!r}")
        self._dataset = dataset
        self._config = config or SessionConfig()
        self._jobs = int(jobs)
        self._aggregator = aggregator
        self._answer_source = answer_source
        self._ledger = ledger
        self._extra_journal_records = list(extra_journal_records)
        #: Set by :meth:`prepare`: the campaign's budget ledger (inspect
        #: for reservation/commit accounting).
        self.ledger: BudgetLedger | None = None
        self._prepared: dict | None = None

    # ------------------------------------------------------------------

    def prepare(self) -> "ParallelCampaignRunner":
        """Build the belief, answer source and session without running.

        :meth:`run` calls this implicitly; benchmarks call it directly
        so set-up (initialization) can be measured separately from
        campaign wall-clock.  Idempotent until the prepared campaign is
        consumed by :meth:`run`.
        """
        if self._prepared is not None:
            return self
        dataset, config = self._dataset, self._config
        experts, belief, source = campaign_inputs(
            dataset, config, self._aggregator, self._answer_source
        )
        tracker = LedgerBudget(config.budget, ledger=self._ledger)
        self.ledger = tracker.ledger
        selector = LazyGreedySelector()
        if config.resilient:
            # A resilient session checkpoints its source's state, which
            # the concurrent wrapper does not carry.
            session = resilient_session(
                dataset, config, belief, experts, tracker, selector,
                journal_metadata=self._extra_journal_records or None,
            )
        else:
            if self._jobs > 1 and isinstance(source, KeyedExpertPanel):
                source = ConcurrentAnswerSource(source, self._jobs)
            session = OnlineCheckingSession(
                belief,
                experts,
                tracker,
                selector=selector,
                k=config.k,
                ground_truth=dataset.ground_truth,
            )
        self._prepared = {
            "session": session,
            "source": source,
            "tracker": tracker,
        }
        return self

    def launch(self) -> dict:
        """Hand the prepared campaign parts to an external driver.

        The campaign service steps sessions round-by-round itself, so it
        needs the session/source/tracker rather than a blocking
        :meth:`run`.  The caller takes ownership: it must close the
        tracker (releasing any orphaned ledger reservation) when the
        campaign ends, however it ends.
        """
        self.prepare()
        prepared, self._prepared = self._prepared, None
        return prepared

    def run(self) -> RunResult:
        """Execute the campaign; returns the serial-identical result."""
        prepared = self.launch()
        try:
            return prepared["session"].run(prepared["source"])
        finally:
            # An abort between reserve_pending and the charge must not
            # leave its worst-case round cost held on a shared ledger
            # forever.
            prepared["tracker"].close()


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
) -> RunResult:
    """Drop-in :func:`~repro.simulation.session.run_hc_session` on a
    budget ledger, with ``jobs`` collection threads.

    The positional parameters match ``run_hc_session`` so call sites
    switch by adding ``jobs=N``.  A caller-supplied ``selector`` is
    rejected: the runner always selects with the lazy greedy.
    ``inline`` selects nothing; it is accepted for callers written
    against the removed process-shard engine (the benchmark's
    ``durable`` workload passes ``inline=True``).
    """
    if selector is not None:
        raise ValueError(
            "run_parallel_hc_session owns selection (lazy greedy); "
            "drop the selector argument or use run_hc_session"
        )
    runner = ParallelCampaignRunner(
        dataset,
        config,
        jobs=jobs,
        aggregator=aggregator,
        answer_source=answer_source,
        ledger=ledger,
    )
    return runner.run()


def resume_parallel_session(
    journal_path: str | Path,
    *,
    ledger: BudgetLedger | None = None,
    retry_policy=None,
    reserve_experts: Crowd | None = None,
    cost_model: CostModel | None = None,
    sleep=None,
) -> ResilientCheckingSession:
    """Restore a killed ledger-backed campaign from its journal.

    Resumes the resilient session with a fresh
    :class:`~repro.engine.ledger.LedgerBudget` caught up to the last
    checkpoint's spending; call ``session.run(answer_source)`` to
    continue and close ``session.budget_tracker`` afterwards.  A
    journal's ``engine`` and ``shard_incident`` records, written by the
    removed process-shard engine, are ignored.
    """
    from ..storage.integrity import recover_for_resume

    records = recover_for_resume(journal_path, ("checkpoint",))
    tracker = LedgerBudget(
        header_field(records[0], "budget_total"),
        ledger=ledger,
        cost_model=cost_model,
    )
    return ResilientCheckingSession.resume(
        journal_path,
        cost_model=cost_model,
        retry_policy=retry_policy,
        reserve_experts=reserve_experts,
        sleep=sleep,
        budget_tracker=tracker,
        records=records,
    )
