"""Property tests: ``run_parallel_hc_session`` is bit-identical to the
serial runtime — same selections, same histories, same belief bytes,
same journal bytes — for 1, 2 and 4 jobs, on randomized instances, with
and without fault injection and trust quarantine."""

import numpy as np
import pytest

from repro.core.trust import TrustPolicy
from repro.datasets import WorkerPoolSpec, make_synthetic_dataset
from repro.engine import KeyedExpertPanel, run_parallel_hc_session
from repro.simulation import FaultModel, SessionConfig, run_hc_session

JOB_COUNTS = (1, 2, 4)


def _dataset(seed: int, num_groups: int = 6, group_size: int = 4):
    return make_synthetic_dataset(
        num_groups=num_groups,
        group_size=group_size,
        answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=12, num_expert=3),
        seed=seed,
    )


def _signature(result):
    return (
        [tuple(record.query_fact_ids) for record in result.history],
        [record.budget_spent for record in result.history],
        [record.quality for record in result.history],
        [state.probabilities.tobytes() for state in result.belief],
    )


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_plain_campaign_bit_identical(seed):
    """A keyed panel is collected on ``jobs`` threads on the plain
    path, bit-identically to one serial call."""
    dataset = _dataset(seed)
    config = SessionConfig(budget=24.0, k=2 + seed % 2, seed=seed)

    def panel():
        return KeyedExpertPanel(dataset.ground_truth, seed=seed)

    serial = run_hc_session(dataset, config, answer_source=panel())
    reference = _signature(serial)
    for jobs in JOB_COUNTS:
        parallel = run_parallel_hc_session(
            dataset, config, answer_source=panel(), jobs=jobs
        )
        assert _signature(parallel) == reference
        assert parallel.final_labels == serial.final_labels


@pytest.mark.parametrize("jobs", JOB_COUNTS)
def test_resilient_campaign_bit_identical(jobs, tmp_path):
    """Fault injection + trust quarantine + reserves + journaling: the
    full resilient runtime, byte-for-byte."""
    dataset = _dataset(3)
    faults = FaultModel(no_show=0.2, partial=0.2, seed=9)

    def config(path):
        return SessionConfig(
            budget=30.0,
            k=2,
            seed=5,
            faults=faults,
            trust_policy=TrustPolicy(seed=7),
            reserve_accuracies=(0.92, 0.9),
            journal_path=path,
        )

    serial_journal = tmp_path / "serial.jsonl"
    parallel_journal = tmp_path / f"parallel{jobs}.jsonl"
    serial = run_hc_session(dataset, config(serial_journal))
    parallel = run_parallel_hc_session(
        dataset, config(parallel_journal), jobs=jobs
    )

    assert [tuple(r.query_fact_ids) for r in parallel.history] == [
        tuple(r.query_fact_ids) for r in serial.history
    ]
    assert [r.budget_spent for r in parallel.history] == [
        r.budget_spent for r in serial.history
    ]
    for ours, theirs in zip(parallel.belief, serial.belief):
        assert np.array_equal(ours.probabilities, theirs.probabilities)
    # Incident streams (retries, no-shows, quarantines) must agree too.
    assert [
        (event.kind, event.round_index, event.worker_id)
        for event in parallel.incidents
    ] == [
        (event.kind, event.round_index, event.worker_id)
        for event in serial.incidents
    ]
    assert parallel_journal.read_bytes() == serial_journal.read_bytes()


@pytest.mark.parametrize("seed", [1, 13])
def test_randomized_resilient_instances(seed):
    """Randomized shapes and fault mixes, no journal: histories and
    beliefs still agree across job counts."""
    rng = np.random.default_rng(seed)
    dataset = _dataset(
        seed, num_groups=int(rng.integers(4, 8)), group_size=4
    )
    faults = FaultModel(
        no_show=float(rng.uniform(0, 0.3)),
        partial=float(rng.uniform(0, 0.3)),
        timeout=float(rng.uniform(0, 0.1)),
        seed=seed,
    )
    config = SessionConfig(
        budget=float(rng.integers(18, 36)),
        k=int(rng.integers(1, 4)),
        seed=seed,
        faults=faults,
        reserve_accuracies=(0.93,),
    )
    serial = run_hc_session(dataset, config)
    reference = _signature(serial)
    for jobs in (2, 4):
        parallel = run_parallel_hc_session(dataset, config, jobs=jobs)
        assert _signature(parallel) == reference
