"""Sharded parallel campaign execution.

The belief state of a campaign factorizes exactly across independent
task groups (paper §II-A), so belief updates and greedy checking-task
selection can run group-parallel without approximation.  This package
partitions a campaign's groups across shard workers (spawn-safe
multiprocessing, or in-process for tests), coordinates each round
through a single coordinator, and charges a global budget ledger with
reservation/refund semantics:

* :mod:`~repro.engine.ledger` — :class:`BudgetLedger` (reserve →
  commit/release accounting that makes double-spending structurally
  impossible) and :class:`LedgerBudget` (a drop-in
  :class:`~repro.core.budget.CheckingBudget` that settles every charge
  against the ledger);
* :mod:`~repro.engine.partition` — deterministic group partitioning;
* :mod:`~repro.engine.shards` — the shard worker state machine,
  process/inline shard transports, :class:`ShardPool` and
  :class:`IdleWorkers` (worker processes kept between campaigns);
* :mod:`~repro.engine.sharded` — :class:`ShardedSelector` (k-way gain
  merge of per-shard CELF selections) and :class:`ShardedUpdateEngine`
  (two-phase stage/commit belief updates);
* :mod:`~repro.engine.sources` — :class:`KeyedExpertPanel`, an answer
  source whose streams are keyed per ``(fact, ask, worker)``, and
  :class:`ConcurrentAnswerSource`, which collects a round's queries on
  several threads bit-identically to one serial call;
* :mod:`~repro.engine.runner` — :class:`ParallelCampaignRunner` /
  :func:`run_parallel_hc_session`, the
  :func:`~repro.simulation.session.run_hc_session`-compatible entry
  points, plus :func:`resume_parallel_session`;
* :mod:`~repro.engine.supervisor` — :class:`ShardSupervisor`
  (per-command deadlines, worker respawn from coordinator state, group
  failover) with :class:`SupervisionPolicy` / :class:`SupervisorStats`
  / :class:`ShardIncident`;
* :mod:`~repro.engine.chaos` — :class:`ChaosPlan` /
  :class:`ChaosTransport`, process-level fault injection (kill, hang,
  delay, corrupt) for testing the supervision layer.

Everything the coordinator journals goes through the serial code paths,
so a parallel campaign's results, histories and journals are
bit-identical to the serial runtime's — with any worker count, and
(because recovery rebuilds workers from the coordinator's authoritative
state) under worker kills, hangs and protocol corruption too.
"""

import importlib

# Re-exports resolve lazily (PEP 562): spawned shard workers import
# repro.engine.shards, and an eager package root would make each of
# them pay for runner -> simulation.session -> aggregation -> scipy.
_EXPORTS = {
    "ChaosPlan": "chaos",
    "ChaosTransport": "chaos",
    "BudgetLedger": "ledger",
    "LedgerBudget": "ledger",
    "LedgerDriftError": "ledger",
    "LedgerError": "ledger",
    "partition_groups": "partition",
    "ParallelCampaignRunner": "runner",
    "resume_parallel_session": "runner",
    "run_parallel_hc_session": "runner",
    "ShardedSelector": "sharded",
    "ShardedUpdateEngine": "sharded",
    "merge_shard_selections": "sharded",
    "IdleWorkers": "shards",
    "InlineShard": "shards",
    "ProcessShard": "shards",
    "ShardPool": "shards",
    "ConcurrentAnswerSource": "sources",
    "KeyedExpertPanel": "sources",
    "stable_worker_digest": "sources",
    "ShardFailureError": "supervisor",
    "ShardIncident": "supervisor",
    "ShardRespawnError": "supervisor",
    "ShardSupervisor": "supervisor",
    "SupervisionPolicy": "supervisor",
    "SupervisorStats": "supervisor",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    value = getattr(
        importlib.import_module(f".{module_name}", __name__), name
    )
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "BudgetLedger",
    "ChaosPlan",
    "ChaosTransport",
    "ConcurrentAnswerSource",
    "IdleWorkers",
    "InlineShard",
    "KeyedExpertPanel",
    "LedgerBudget",
    "LedgerDriftError",
    "LedgerError",
    "ParallelCampaignRunner",
    "ProcessShard",
    "ShardFailureError",
    "ShardIncident",
    "ShardPool",
    "ShardRespawnError",
    "ShardSupervisor",
    "ShardedSelector",
    "ShardedUpdateEngine",
    "SupervisionPolicy",
    "SupervisorStats",
    "merge_shard_selections",
    "partition_groups",
    "resume_parallel_session",
    "run_parallel_hc_session",
    "stable_worker_digest",
]
