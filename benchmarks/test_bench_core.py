"""Micro-benchmarks of the core primitives.

These time the inner loops every experiment is built from: conditional
entropy evaluation, one greedy selection round (eager, and a steady
CELF round on the persistent heap), and one Bayesian belief update.
The 5-fact cases run the truth-table kernels of the paper's groups;
the 18-fact cases (Table III's group size) run the tensor contractions
of groups past ``TRUTH_TABLE_MAX_FACTS``.  Useful for tracking
performance regressions; no paper claims attached.
"""

import numpy as np
import pytest

from repro.core import (
    AnswerFamily,
    AnswerSet,
    BeliefState,
    Crowd,
    FactSet,
    FactoredBelief,
    GreedySelector,
    LazyGreedySelector,
    conditional_entropy,
    update_with_family,
)


@pytest.fixture(scope="module")
def belief_5_facts():
    rng = np.random.default_rng(0)
    facts = FactSet.from_ids(range(5))
    return BeliefState(facts, rng.dirichlet(np.ones(32)))


@pytest.fixture(scope="module")
def belief_18_facts():
    rng = np.random.default_rng(0)
    facts = FactSet.from_ids(range(18))
    return BeliefState(facts, rng.dirichlet(np.ones(1 << 18)))


@pytest.fixture(scope="module")
def experts():
    return Crowd.from_accuracies([0.92, 0.95, 0.9], prefix="e")


@pytest.fixture(scope="module")
def factored_200_groups():
    rng = np.random.default_rng(1)
    groups = []
    for index in range(200):
        facts = FactSet.from_ids(range(index * 5, index * 5 + 5))
        groups.append(BeliefState(facts, rng.dirichlet(np.ones(32))))
    return FactoredBelief(groups)


def test_bench_conditional_entropy(benchmark, belief_5_facts, experts):
    value = benchmark(
        conditional_entropy, belief_5_facts, [0, 1, 2], experts
    )
    assert 0.0 <= value <= 5.0


def test_bench_greedy_cold_selection(benchmark, factored_200_groups, experts):
    """Cold-cache greedy over 1000 candidate facts (first round cost)."""

    def cold_select():
        return GreedySelector().select(factored_200_groups, experts, 1)

    selected = benchmark(cold_select)
    assert len(selected) == 1


def test_bench_greedy_warm_selection(benchmark, factored_200_groups, experts):
    """Warm-cache greedy (steady-state per-round cost in the HC loop)."""
    selector = GreedySelector()
    selector.select(factored_200_groups, experts, 1)  # warm the cache

    selected = benchmark(selector.select, factored_200_groups, experts, 1)
    assert len(selected) == 1


def test_bench_lazy_steady_round(benchmark, factored_200_groups, experts):
    """One steady CELF round: the picked group gets a fresh state
    between selections, as a belief update gives it, and the persistent
    heap re-seeds only that group.  Only the selection is timed."""
    belief = factored_200_groups.copy()
    selector = LazyGreedySelector()
    picked = selector.select(belief, experts, 1)

    def replace_picked_group():
        group_index = belief.group_index_of(picked[0])
        state = belief[group_index]
        belief.replace_group(
            group_index, BeliefState(state.facts, state.probabilities)
        )
        selector.invalidate_groups([group_index])
        return (belief, experts, 1), {}

    def steady_round(*args):
        picked[:] = selector.select(*args)
        return picked

    selected = benchmark.pedantic(
        steady_round, setup=replace_picked_group, rounds=2000
    )
    assert len(selected) == 1


def test_bench_belief_update(benchmark, belief_5_facts, experts):
    family = AnswerFamily(
        answer_sets=tuple(
            AnswerSet(worker=worker, answers={0: True, 1: False})
            for worker in experts
        )
    )
    posterior = benchmark(update_with_family, belief_5_facts, family)
    assert posterior.probabilities.sum() == pytest.approx(1.0)


def test_bench_marginals_18_facts(benchmark, belief_18_facts):
    marginals = benchmark(belief_18_facts.marginals)
    assert marginals.shape == (18,)


def test_bench_conditional_entropy_18_facts(
    benchmark, belief_18_facts, experts
):
    value = benchmark(
        conditional_entropy, belief_18_facts, [13, 2, 9, 5], experts
    )
    assert 0.0 <= value <= 18.0


def test_bench_belief_update_18_facts(benchmark, belief_18_facts, experts):
    family = AnswerFamily(
        answer_sets=tuple(
            AnswerSet(
                worker=worker,
                answers={13: True, 2: False, 9: True, 5: False},
            )
            for worker in experts
        )
    )
    posterior = benchmark(update_with_family, belief_18_facts, family)
    assert posterior.probabilities.sum() == pytest.approx(1.0)
