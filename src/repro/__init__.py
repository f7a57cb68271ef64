"""repro — reproduction of "Hierarchical Crowdsourcing for Data Labeling
with Heterogeneous Crowd" (Zhang et al., ICDE 2023).

Public API tour
---------------
* :mod:`repro.core` — the paper's data/crowdsourcing model: facts,
  observations, belief states, answer families, the conditional-entropy
  objective, the greedy/exact/random selectors, and the Algorithm 3
  orchestration loop.
* :mod:`repro.aggregation` — the eight truth-inference baselines
  (MV, DS, ZC, GLAD, CRH, BWA, BCC, EBCC).
* :mod:`repro.datasets` — synthetic sentiment corpus, task grouping,
  belief initialization, benchmark-format I/O.
* :mod:`repro.simulation` — simulated expert panels and the one-call
  :func:`~repro.simulation.run_hc_session` pipeline.
* :mod:`repro.experiments` — runners reproducing every figure and
  table of the paper's evaluation.
"""

import importlib

__version__ = "1.0.0"

# Subpackages resolve lazily (PEP 562): the aggregation baselines pull
# scipy, which costs ~0.8 s per interpreter — paid by every command
# that never aggregates if the package root imports it eagerly.
_SUBPACKAGES = (
    "aggregation",
    "analysis",
    "core",
    "datasets",
    "downstream",
    "experiments",
    "simulation",
)

__all__ = [*_SUBPACKAGES, "__version__"]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBPACKAGES))
