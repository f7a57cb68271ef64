"""Runners for every figure of the paper's evaluation (section IV).

Each ``run_figureN`` function regenerates the corresponding figure's
data as an :class:`~repro.experiments.runner.ExperimentResult` — the
same curves the paper plots, as numeric series.  All runners accept an
:class:`~repro.experiments.config.ExperimentScale` so the test suite
and benchmarks can use the fast preset while a full reproduction uses
``PAPER_SCALE``.
"""

from __future__ import annotations

import numpy as np

from ..aggregation.registry import BASELINE_NAMES, make_aggregator
from ..core.hc import HierarchicalCrowdsourcing, run_flat_checking
from ..core.selection import (
    ExactSelector,
    GreedySelector,
    MaxMarginalEntropySelector,
    RandomSelector,
)
from ..simulation.oracle import SimulatedExpertPanel
from ..simulation.session import (
    SessionConfig,
    campaign_answer_source,
    campaign_inputs,
    run_hc_session,
)
from .config import ExperimentScale, PAPER_SCALE
from .runner import (
    ExperimentResult,
    Series,
    baseline_series,
    build_dataset,
    hc_series,
)

_DEFAULT_THETA = 0.9


def run_figure2(
    scale: ExperimentScale = PAPER_SCALE,
    baselines: tuple[str, ...] = BASELINE_NAMES,
) -> ExperimentResult:
    """Figure 2: HC vs the 8 aggregation baselines, accuracy vs budget.

    HC uses theta=0.9, k=1, EBCC initialization (section IV-A).  The
    budget protocol is documented in :mod:`repro.experiments.runner`.
    """
    dataset = build_dataset(scale.dataset)
    config = SessionConfig(
        theta=_DEFAULT_THETA,
        k=1,
        budget=scale.max_budget,
        initializer="EBCC",
        seed=scale.seed,
    )
    hc_run = run_hc_session(dataset, config)
    series = [hc_series("HC", hc_run, scale.budgets)]
    for name in baselines:
        series.append(
            baseline_series(
                dataset, name, scale.budgets, _DEFAULT_THETA, seed=scale.seed
            )
        )
    return ExperimentResult(
        name="figure2",
        series=series,
        metadata={"theta": _DEFAULT_THETA, "k": 1, "initializer": "EBCC"},
    )


def run_figure3(
    scale: ExperimentScale = PAPER_SCALE,
    k_values: tuple[int, ...] = (1, 2, 3),
) -> ExperimentResult:
    """Figure 3: varying the per-round query count k (accuracy and
    quality vs budget)."""
    dataset = build_dataset(scale.dataset)
    series = []
    for k in k_values:
        config = SessionConfig(
            theta=_DEFAULT_THETA,
            k=k,
            budget=scale.max_budget,
            initializer="EBCC",
            seed=scale.seed,
        )
        run = run_hc_session(dataset, config)
        series.append(hc_series(f"k={k}", run, scale.budgets))
    return ExperimentResult(
        name="figure3",
        series=series,
        metadata={"theta": _DEFAULT_THETA, "k_values": list(k_values)},
    )


def run_figure4(
    scale: ExperimentScale = PAPER_SCALE,
    thetas: tuple[float, ...] = (0.8, 0.85, 0.9),
) -> ExperimentResult:
    """Figure 4: varying the expert threshold theta."""
    dataset = build_dataset(scale.dataset)
    series = []
    for theta in thetas:
        config = SessionConfig(
            theta=theta,
            k=1,
            budget=scale.max_budget,
            initializer="EBCC",
            seed=scale.seed,
        )
        run = run_hc_session(dataset, config)
        sampled = hc_series(f"theta={theta}", run, scale.budgets)
        series.append(sampled)
    return ExperimentResult(
        name="figure4",
        series=series,
        metadata={"k": 1, "thetas": list(thetas)},
    )


def run_figure5(
    scale: ExperimentScale = PAPER_SCALE,
    k_values: tuple[int, ...] = (2, 3),
    opt_num_groups: int = 30,
) -> ExperimentResult:
    """Figure 5: OPT vs Approx vs Random checking-task selection.

    OPT enumerates ``C(N, k)`` subsets, so — like the paper, which
    discusses OPT only on small instances — the dataset is capped at
    ``opt_num_groups`` task groups for this experiment.  Budgets are
    rescaled proportionally.
    """
    from dataclasses import replace

    ratio = min(1.0, opt_num_groups / scale.dataset.num_groups)
    dataset_spec = replace(
        scale.dataset,
        num_groups=min(scale.dataset.num_groups, opt_num_groups),
    )
    budgets = tuple(
        max(1, int(budget * ratio)) for budget in scale.budgets
    )
    dataset = build_dataset(dataset_spec)
    max_budget = max(budgets)

    series = []
    for k in k_values:
        for selector_factory, label in (
            (lambda: ExactSelector(), "OPT"),
            (lambda: GreedySelector(), "Approx"),
            (lambda: RandomSelector(rng=scale.seed), "Random"),
        ):
            config = SessionConfig(
                theta=_DEFAULT_THETA,
                k=k,
                budget=max_budget,
                initializer="EBCC",
                seed=scale.seed,
            )
            run = run_hc_session(dataset, config, selector=selector_factory())
            series.append(hc_series(f"{label} (k={k})", run, budgets))
    return ExperimentResult(
        name="figure5",
        series=series,
        metadata={
            "theta": _DEFAULT_THETA,
            "k_values": list(k_values),
            "num_groups": dataset_spec.num_groups,
        },
    )


def run_figure6(
    scale: ExperimentScale = PAPER_SCALE,
    initializers: tuple[str, ...] = BASELINE_NAMES,
) -> ExperimentResult:
    """Figure 6: varying the belief-initialization aggregator."""
    dataset = build_dataset(scale.dataset)
    series = []
    for name in initializers:
        config = SessionConfig(
            theta=_DEFAULT_THETA,
            k=1,
            budget=scale.max_budget,
            initializer=name,
            seed=scale.seed,
        )
        run = run_hc_session(dataset, config)
        series.append(hc_series(name, run, scale.budgets))
    return ExperimentResult(
        name="figure6",
        series=series,
        metadata={"theta": _DEFAULT_THETA, "k": 1},
    )


def run_figure7(
    scale: ExperimentScale = PAPER_SCALE,
) -> ExperimentResult:
    """Figure 7: HC vs NO-HC (flat checking from a uniform prior).

    NO-HC uses the whole crowd as checking workers and starts from the
    uniform belief.  With dozens of checkers per query, exact
    conditional-entropy selection is intractable (the family space is
    ``2^(k |C|)``), so NO-HC selects by maximal marginal entropy — the
    natural brute-force rule; HC's advantage in the figure is the
    hierarchy, not the selector.
    """
    dataset = build_dataset(scale.dataset)
    config = SessionConfig(
        theta=_DEFAULT_THETA,
        k=1,
        budget=scale.max_budget,
        initializer="EBCC",
        seed=scale.seed,
    )
    hc_run = run_hc_session(dataset, config)

    flat_source = SimulatedExpertPanel(
        dataset.ground_truth, rng=np.random.default_rng(scale.seed + 1)
    )
    flat_run = run_flat_checking(
        dataset.groups,
        dataset.crowd,
        flat_source,
        budget=scale.max_budget,
        k=1,
        selector=MaxMarginalEntropySelector(),
        ground_truth=dataset.ground_truth,
    )
    return ExperimentResult(
        name="figure7",
        series=[
            hc_series("HC", hc_run, scale.budgets),
            hc_series("NO HC", flat_run, scale.budgets),
        ],
        metadata={"theta": _DEFAULT_THETA, "k": 1},
    )


def run_ablation_cost_model(
    scale: ExperimentScale = PAPER_SCALE,
) -> ExperimentResult:
    """Ablation (section III-D discussion): accuracy-proportional answer
    costs vs unit costs.

    With costs of ``1.5 * Pr_cr`` per answer (above 1 for every expert)
    the same nominal budget buys fewer expert answers, so the cost-aware
    curve should trail the unit-cost curve at equal nominal budget —
    quantifying the paper's "extension to worker costs" remark.
    """
    from ..core.budget import CostModel

    dataset = build_dataset(scale.dataset)
    config = SessionConfig(theta=_DEFAULT_THETA, seed=scale.seed)
    experts, belief, _source = campaign_inputs(dataset, config)

    series = []
    for label, cost_model in (
        ("unit cost", None),
        ("cost = 1.5*Pr_cr", CostModel.accuracy_proportional(experts, rate=1.5)),
    ):
        runner = HierarchicalCrowdsourcing(
            experts=experts,
            selector=GreedySelector(),
            k=1,
            cost_model=cost_model,
        )
        run = runner.run(
            belief.copy(),
            campaign_answer_source(dataset, config),
            scale.max_budget,
            ground_truth=dataset.ground_truth,
        )
        series.append(hc_series(label, run, scale.budgets))
    return ExperimentResult(
        name="ablation_cost_model",
        series=series,
        metadata={"theta": _DEFAULT_THETA, "k": 1},
    )


def run_ablation_panel_size(
    scale: ExperimentScale = PAPER_SCALE,
    panel_sizes: tuple[int, ...] = (1, 2, 3),
) -> ExperimentResult:
    """Ablation: per-round expert panel size.

    Algorithm 3 sends every query to all of CE.  With a panel of ``p``
    experts per query, a fixed budget funds ``|CE|/p`` times as many
    queries at lower per-query confidence — this ablation maps that
    trade-off (the paper's design corresponds to the largest panel).
    """
    dataset = build_dataset(scale.dataset)
    config = SessionConfig(theta=_DEFAULT_THETA, seed=scale.seed)
    experts, belief, _source = campaign_inputs(dataset, config)

    series = []
    for panel_size in panel_sizes:
        if panel_size > len(experts):
            continue
        runner = HierarchicalCrowdsourcing(
            experts=experts,
            selector=GreedySelector(),
            k=1,
            panel_size=panel_size,
        )
        run = runner.run(
            belief.copy(),
            campaign_answer_source(dataset, config),
            scale.max_budget,
            ground_truth=dataset.ground_truth,
        )
        series.append(hc_series(f"panel={panel_size}", run, scale.budgets))
    return ExperimentResult(
        name="ablation_panel_size",
        series=series,
        metadata={
            "theta": _DEFAULT_THETA,
            "k": 1,
            "panel_sizes": list(panel_sizes),
            "ce_size": len(experts),
        },
    )


def run_ablation_miscalibration(
    scale: ExperimentScale = PAPER_SCALE,
    gold_counts: tuple[int, ...] = (20, 50, 200),
) -> ExperimentResult:
    """Ablation: robustness to worker-accuracy estimation error.

    The paper assumes accuracies "can be easily estimated with a set of
    sample tasks"; this ablation quantifies the cost of that estimate
    being noisy.  For each gold-task count, every worker's accuracy is
    re-estimated from simulated gold answers; the theta-split, belief
    updates and task selection all use the *estimated* accuracies while
    the simulated humans answer at their *true* rates.  An oracle curve
    (exact accuracies) is included for reference.
    """
    from ..core.calibration import simulate_calibration
    from ..simulation.oracle import MismatchedExpertPanel

    dataset = build_dataset(scale.dataset)
    true_accuracies = {
        worker.worker_id: worker.accuracy for worker in dataset.crowd
    }
    aggregator_name = "EBCC"
    series = []

    skipped: list[str] = []

    def run_with_crowd(assumed_crowd, label: str) -> None:
        experts, _preliminary = assumed_crowd.split(_DEFAULT_THETA)
        if len(experts) == 0:
            # Calibration demoted every worker below theta (too few
            # gold tasks even to certify one expert): no curve.
            skipped.append(label)
            return
        # Initialization still uses the recorded CP answers, restricted
        # by the *assumed* split (what the operator would do).
        cp_columns = [
            dataset.worker_column(worker.worker_id)
            for worker in assumed_crowd
            if worker.accuracy < _DEFAULT_THETA
        ]
        matrix = dataset.annotations.restrict_workers(cp_columns)
        from ..datasets.grouping import initialize_belief_from_matrix

        belief, _result = initialize_belief_from_matrix(
            dataset.groups, matrix, make_aggregator(aggregator_name)
        )
        panel = MismatchedExpertPanel(
            dataset.ground_truth, true_accuracies,
            rng=np.random.default_rng(scale.seed),
        )
        runner = HierarchicalCrowdsourcing(
            experts=experts, selector=GreedySelector(), k=1
        )
        run = runner.run(
            belief, panel, scale.max_budget,
            ground_truth=dataset.ground_truth,
        )
        series.append(hc_series(label, run, scale.budgets))

    run_with_crowd(dataset.crowd, "exact accuracies")
    for gold in gold_counts:
        estimated = simulate_calibration(
            dataset.crowd, gold, rng=np.random.default_rng(scale.seed + gold)
        )
        run_with_crowd(estimated, f"{gold} gold tasks")
    return ExperimentResult(
        name="ablation_miscalibration",
        series=series,
        metadata={
            "theta": _DEFAULT_THETA,
            "k": 1,
            "gold_counts": list(gold_counts),
            "skipped": skipped,
        },
    )


def run_ablation_selectors(
    scale: ExperimentScale = PAPER_SCALE,
    k_values: tuple[int, ...] = (1, 3),
) -> ExperimentResult:
    """Ablation: the full conditional-entropy greedy vs the marginal-
    entropy shortcut ([41]) vs random.

    At ``k=1`` the marginal rule is provably equivalent to the full
    objective (a single query's mutual information depends only on the
    queried fact's marginal), so the two curves coincide — the [41]
    special case the paper discusses.  Correlation awareness only pays
    at ``k >= 2``, which the second k value exposes.
    """
    dataset = build_dataset(scale.dataset)
    series = []
    for k in k_values:
        for selector, label in (
            (GreedySelector(), f"Approx (k={k})"),
            (MaxMarginalEntropySelector(), f"MaxEntropy (k={k})"),
            (RandomSelector(rng=scale.seed), f"Random (k={k})"),
        ):
            config = SessionConfig(
                theta=_DEFAULT_THETA,
                k=k,
                budget=scale.max_budget,
                initializer="EBCC",
                seed=scale.seed,
            )
            run = run_hc_session(dataset, config, selector=selector)
            series.append(hc_series(label, run, scale.budgets))
    return ExperimentResult(
        name="ablation_selectors",
        series=series,
        metadata={"theta": _DEFAULT_THETA, "k_values": list(k_values)},
    )
