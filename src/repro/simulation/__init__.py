"""Simulated online crowdsourcing (paper section IV-A)."""

import importlib

# Lazy re-exports (PEP 562): `session` pulls the aggregation registry
# (scipy), which an import of `.online` through the package root must
# not pay for.
_EXPORTS = {
    "StoppingRule": "adaptive",
    "collect_adaptive_annotations": "adaptive",
    "AnswerCollectionTimeout": "faults",
    "FaultModel": "faults",
    "FaultyExpertPanel": "faults",
    "OnlineCheckingSession": "online",
    "SessionStateError": "online",
    "CachedExpertPanel": "oracle",
    "DegradingExpertPanel": "oracle",
    "MismatchedExpertPanel": "oracle",
    "ScriptedAnswerSource": "oracle",
    "SimulatedExpertPanel": "oracle",
    "ResilientCheckingSession": "resilient",
    "ResilientRunResult": "resilient",
    "RetryPolicy": "resilient",
    "SessionConfig": "session",
    "default_belief_epsilon": "session",
    "run_hc_session": "session",
}

__all__ = sorted(_EXPORTS)


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
