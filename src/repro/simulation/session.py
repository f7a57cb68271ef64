"""End-to-end checking sessions: the one-call HC pipeline.

:func:`run_hc_session` wires together the full Algorithm 3 flow on a
dataset — split the crowd, aggregate the preliminary answers, build the
belief, run the checking loop against a simulated expert panel — and
returns the :class:`~repro.core.hc.RunResult`.  The experiment harness
and the examples are thin wrappers over this function.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..aggregation.base import Aggregator
from ..aggregation.registry import make_aggregator
from ..core.hc import HierarchicalCrowdsourcing, RunResult
from ..core.kernel import default_belief_epsilon
from ..core.observations import FactoredBelief
from ..core.selection import LazyGreedySelector, Selector
from ..core.trust import TrustPolicy, select_gold_probes
from ..core.workers import Crowd
from ..datasets.grouping import initialize_belief
from ..datasets.schema import CrowdLabelingDataset
from .faults import FaultModel, FaultyExpertPanel
from .oracle import SimulatedExpertPanel
from .resilient import ResilientCheckingSession, RetryPolicy


@dataclass
class SessionConfig:
    """Configuration of one HC session (the paper's knobs).

    Attributes
    ----------
    theta:
        Accuracy threshold splitting the crowd (paper: 0.9).
    k:
        Checking queries selected per round (paper: 1-3 in figures,
        up to 10 in Table III).
    budget:
        Expert-answer budget ``B`` (paper: up to 1000).
    initializer:
        Aggregator name for belief initialization (paper: EBCC).
    seed:
        Seed for the simulated expert panel.
    smoothing:
        Marginal smoothing used at initialization.
    faults:
        Optional :class:`~repro.simulation.faults.FaultModel`.  When
        set, the answer source is wrapped in a
        :class:`~repro.simulation.faults.FaultyExpertPanel` and the
        loop runs through the fault-tolerant
        :class:`~repro.simulation.resilient.ResilientCheckingSession`
        (retry, backoff, partial acceptance, tempered updates).
    retry_policy:
        Retry/backoff knobs for the resilient runtime; only used when
        ``faults`` or ``journal_path`` is set.
    journal_path:
        When set, the session appends a crash-safe JSONL journal there
        (implies the resilient runtime even without faults).
    trust_policy:
        When set, the resilient runtime runs with online trust
        supervision (per-worker accuracy posteriors, gold probes,
        circuit breakers); implies the resilient runtime.  The probe
        pool is carved out of the dataset's ground truth with
        :func:`~repro.core.trust.select_gold_probes` at
        ``gold_fraction`` unless the policy's probing is disabled.
    gold_fraction:
        Fraction of ground-truth facts reserved as the trust layer's
        gold-probe pool (seeded from the policy's ``seed``).
    reserve_accuracies:
        Accuracies of reserve experts available for reassignment and
        quarantine substitution (workers named ``r0, r1, ...``).
    belief_epsilon:
        Truncation budget of the sparse belief kernel.  ``0`` (the
        default) keeps the exact dense kernel; a positive value builds
        :class:`~repro.core.kernel.SparseBeliefState` groups whose
        updates drop negligible-mass observations within a
        total-variation bound of ``belief_epsilon`` per update.  The
        default can be overridden fleet-wide with the
        ``REPRO_BELIEF_EPSILON`` environment variable (the CI
        ``sparse-kernel`` job uses it to run whole suites on the
        truncated kernel).
    """

    theta: float = 0.9
    k: int = 1
    budget: float = 1000.0
    initializer: str = "EBCC"
    seed: int = 0
    smoothing: float = 0.01
    faults: FaultModel | None = None
    retry_policy: RetryPolicy | None = None
    journal_path: str | Path | None = None
    trust_policy: TrustPolicy | None = None
    gold_fraction: float = 0.1
    reserve_accuracies: tuple[float, ...] = ()
    belief_epsilon: float = field(default_factory=default_belief_epsilon)

    def __post_init__(self) -> None:
        # Checked where the config is built: a bad value would otherwise
        # surface only inside a run (a NaN budget as a float-to-int
        # error, k = 0 as a launch failure on every service attempt).
        if not _is_real(self.theta) or not 0.0 <= self.theta <= 1.0:
            raise ValueError(
                f"theta must be a number in [0, 1], got {self.theta!r}"
            )
        check_k(self.k)
        check_budget(self.budget)

    @property
    def resilient(self) -> bool:
        """Whether the session runs the fault-tolerant runtime (faults,
        a journal or trust supervision asked for)."""
        return (
            self.faults is not None
            or self.journal_path is not None
            or self.trust_policy is not None
        )


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_k(k) -> None:
    """Refuse a query-set size that is not an int >= 1 (or is a bool)."""
    if not isinstance(k, numbers.Integral) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be an int >= 1, got {k!r}")


def check_budget(budget) -> None:
    """Refuse a budget that is not a finite real number >= 0."""
    if not _is_real(budget) or not math.isfinite(budget) or budget < 0:
        raise ValueError(f"budget must be finite and >= 0, got {budget!r}")


def campaign_answer_source(
    dataset: CrowdLabelingDataset,
    config: SessionConfig,
    answer_source=None,
):
    """A campaign's answer source: ``answer_source``, or a
    :class:`SimulatedExpertPanel` seeded from ``config.seed`` when none
    is given, wrapped in a :class:`FaultyExpertPanel` when the config
    carries faults.  Fresh runs and resumes alike build it here."""
    if answer_source is None:
        answer_source = SimulatedExpertPanel(
            dataset.ground_truth, rng=np.random.default_rng(config.seed)
        )
    if config.faults is not None:
        answer_source = FaultyExpertPanel(answer_source, config.faults)
    return answer_source


def campaign_inputs(
    dataset: CrowdLabelingDataset,
    config: SessionConfig,
    aggregator: Aggregator | None = None,
    answer_source=None,
) -> tuple[Crowd, FactoredBelief, object]:
    """``(experts, belief, answer_source)``: the crowd split, the
    initialized belief and the :func:`campaign_answer_source` every
    campaign entry point starts from."""
    experts, _preliminary = dataset.split_crowd(config.theta)
    if len(experts) == 0:
        raise ValueError(
            f"no worker reaches theta={config.theta}; cannot form CE"
        )
    if aggregator is None:
        aggregator = make_aggregator(config.initializer)
    belief, _init_result = initialize_belief(
        dataset, aggregator, config.theta, smoothing=config.smoothing,
        belief_epsilon=config.belief_epsilon,
    )
    return (
        experts, belief, campaign_answer_source(dataset, config, answer_source)
    )


def resilient_session(
    dataset: CrowdLabelingDataset,
    config: SessionConfig,
    belief: FactoredBelief,
    experts: Crowd,
    budget,
    selector: Selector,
    **seams,
) -> ResilientCheckingSession:
    """The fault-tolerant session a :attr:`SessionConfig.resilient`
    config runs (against :func:`campaign_answer_source`): gold probes
    carved from the ground truth, reserve experts, retry policy and
    journal as configured.  ``seams`` pass through to
    :class:`ResilientCheckingSession` (the campaign service's journal
    metadata)."""
    gold_facts = None
    if config.trust_policy is not None:
        gold_facts = select_gold_probes(
            dataset.ground_truth,
            fraction=config.gold_fraction,
            seed=config.trust_policy.seed,
        )
    reserve = (
        Crowd.from_accuracies(config.reserve_accuracies, prefix="r")
        if config.reserve_accuracies
        else None
    )
    return ResilientCheckingSession(
        belief,
        experts,
        budget,
        selector=selector,
        k=config.k,
        ground_truth=dataset.ground_truth,
        retry_policy=config.retry_policy,
        reserve_experts=reserve,
        journal_path=config.journal_path,
        trust_policy=config.trust_policy,
        gold_facts=gold_facts,
        seed=config.seed,
        **seams,
    )


def run_hc_session(
    dataset: CrowdLabelingDataset,
    config: SessionConfig | None = None,
    selector: Selector | None = None,
    aggregator: Aggregator | None = None,
    answer_source=None,
) -> RunResult:
    """Run the full hierarchical crowdsourcing pipeline on a dataset.

    Parameters
    ----------
    dataset:
        The crowd-labeling dataset (recorded preliminary answers plus
        ground truth for the simulated experts and metrics).
    config:
        Session knobs; defaults to the paper's main setting.
    selector:
        Checking-task selector; defaults to the greedy Approx.
    aggregator:
        Initialization aggregator instance; overrides
        ``config.initializer`` when given.
    answer_source:
        Expert answer source; defaults to a fresh-sampling
        :class:`SimulatedExpertPanel` seeded from ``config.seed``.
    """
    config = config or SessionConfig()
    experts, belief, answer_source = campaign_inputs(
        dataset, config, aggregator, answer_source
    )
    selector = selector or LazyGreedySelector()
    if config.resilient:
        session = resilient_session(
            dataset, config, belief, experts, config.budget, selector
        )
        return session.run(answer_source)
    runner = HierarchicalCrowdsourcing(
        experts=experts, selector=selector, k=config.k
    )
    return runner.run(
        belief,
        answer_source,
        config.budget,
        ground_truth=dataset.ground_truth,
    )
