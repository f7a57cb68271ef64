"""Shared budget pools and threaded answer collection.

Every campaign runs the serial checking loop in the calling process and
charges its own :class:`~repro.core.budget.CheckingBudget`; this
package adds what running many of them against one pool, and
collecting a round's answers on several threads, needs:

* :mod:`~repro.engine.ledger` — :class:`BudgetLedger`, the reserve →
  commit/release book that makes double-spending a shared pool
  structurally impossible (the campaign service's deposits);
* :mod:`~repro.engine.sources` — :class:`KeyedExpertPanel`, an answer
  source whose streams are keyed per ``(fact, ask, worker)``, and
  :class:`ConcurrentAnswerSource`, which collects a round's queries on
  several threads bit-identically to one serial call;
* :mod:`~repro.engine.runner` — :func:`run_parallel_hc_session`, the
  :func:`~repro.simulation.session.run_hc_session` entry point with
  ``jobs`` collection threads.

A campaign's results, histories and journals are bit-identical to the
serial runtime's for any number of collection threads.
"""

import importlib

# Re-exports resolve lazily (PEP 562): an eager package root would make
# every ledger or source import pay for runner -> simulation.session ->
# aggregation -> scipy.
_EXPORTS = {
    "BudgetLedger": "ledger",
    "LedgerDriftError": "ledger",
    "LedgerError": "ledger",
    "run_parallel_hc_session": "runner",
    "ConcurrentAnswerSource": "sources",
    "KeyedExpertPanel": "sources",
    "stable_worker_digest": "sources",
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
    "ConcurrentAnswerSource",
    "KeyedExpertPanel",
    "LedgerDriftError",
    "LedgerError",
    "run_parallel_hc_session",
    "stable_worker_digest",
]
