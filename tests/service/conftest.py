"""Shared fixtures and helpers for the campaign-service tests."""

import dataclasses

import pytest

from repro.datasets.synthetic import WorkerPoolSpec, make_synthetic_dataset
from repro.engine import run_parallel_hc_session
from repro.simulation.session import SessionConfig


def make_dataset(seed: int, num_groups: int = 4):
    return make_synthetic_dataset(
        num_groups=num_groups,
        group_size=4,
        answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=10, num_expert=2),
        seed=seed,
    )


def make_config(seed: int, budget: float = 12.0, **overrides) -> SessionConfig:
    return SessionConfig(budget=budget, k=2, seed=seed, **overrides)


def signature(result):
    """Everything two equivalent campaign runs must agree on, bit for
    bit: per-round selections, the budget trajectory, and the final
    posterior arrays."""
    return (
        [tuple(record.query_fact_ids) for record in result.history],
        [record.budget_spent for record in result.history],
        [state.probabilities.tobytes() for state in result.belief],
    )


def solo_signature(dataset, config: SessionConfig, journal_path):
    """The solo-run reference for a service campaign.

    The solo run journals too (to a different file), so it takes the
    same resilient code path as every service campaign; only the
    service-side multiplexing differs.
    """
    solo_config = dataclasses.replace(config, journal_path=journal_path)
    return signature(run_parallel_hc_session(dataset, solo_config))
