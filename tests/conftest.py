"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core import BeliefState, Crowd, FactSet, FactoredBelief
from repro.datasets import WorkerPoolSpec, make_synthetic_dataset

@pytest.fixture(autouse=True)
def _no_leaked_worker_processes():
    """Fail a test that leaves a ``multiprocessing`` child alive which
    was not alive before it: a ``reproduce`` experiment worker or a
    soak child nobody joined."""
    before = {child.pid for child in multiprocessing.active_children()}
    yield
    leaked = [
        child
        for child in multiprocessing.active_children()
        if child.pid not in before
    ]
    if leaked:
        for child in leaked:
            child.kill()
            child.join(timeout=10)
        pytest.fail(f"test left worker processes alive: {leaked}")


#: The observation distribution of the paper's Table I.
TABLE1 = {
    (False, False, False): 0.09,
    (True, False, False): 0.11,
    (False, True, False): 0.10,
    (True, True, False): 0.20,
    (False, False, True): 0.08,
    (True, False, True): 0.09,
    (False, True, True): 0.15,
    (True, True, True): 0.18,
}


@pytest.fixture
def three_facts() -> FactSet:
    return FactSet.from_ids([1, 2, 3])


@pytest.fixture
def table1_belief(three_facts: FactSet) -> BeliefState:
    """The belief state of the paper's Table I example."""
    return BeliefState.from_mapping(three_facts, TABLE1)


@pytest.fixture
def two_experts() -> Crowd:
    return Crowd.from_accuracies([0.9, 0.95], prefix="e")


@pytest.fixture
def single_expert() -> Crowd:
    return Crowd.from_accuracies([0.9], prefix="e")


@pytest.fixture
def factored_table1(table1_belief: BeliefState) -> FactoredBelief:
    return FactoredBelief([table1_belief])


@pytest.fixture(scope="session")
def small_dataset():
    """A small but realistic dataset, shared across the session."""
    return make_synthetic_dataset(
        num_groups=12,
        group_size=4,
        answers_per_fact=6,
        pool=WorkerPoolSpec(
            num_preliminary=15,
            num_expert=3,
            preliminary_accuracy=(0.6, 0.85),
            expert_accuracy=(0.9, 0.97),
        ),
        seed=123,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
