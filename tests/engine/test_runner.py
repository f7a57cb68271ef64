"""API tests for run_parallel_hc_session."""

import threading
import time

import pytest

from repro.core.trust import TrustPolicy
from repro.datasets import WorkerPoolSpec, make_synthetic_dataset
from repro.engine import KeyedExpertPanel, run_parallel_hc_session
from repro.simulation import SessionConfig, run_hc_session


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_dataset(
        num_groups=5,
        group_size=4,
        answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=12, num_expert=3),
        seed=2,
    )


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_is_rejected(dataset, jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_parallel_hc_session(dataset, SessionConfig(budget=8.0), jobs=jobs)


def test_theta_without_experts_raises(dataset):
    with pytest.raises(ValueError, match="theta"):
        run_parallel_hc_session(
            dataset, SessionConfig(theta=0.9999, budget=8.0), jobs=2
        )


def _signature(result):
    return (
        [tuple(record.query_fact_ids) for record in result.history],
        [record.budget_spent for record in result.history],
        [state.probabilities.tobytes() for state in result.belief],
    )


class _CountingPanel(KeyedExpertPanel):
    """Counts serial ``collect`` calls and threaded chunk answers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()
        self.serial_calls = 0
        self.chunk_calls = 0

    def collect(self, query_fact_ids, experts):
        self.serial_calls += 1
        return super().collect(query_fact_ids, experts)

    def collect_indexed(self, indexed_queries, experts):
        with self._lock:
            self.chunk_calls += 1
        return super().collect_indexed(indexed_queries, experts)


def test_concurrent_collection_enables_for_keyed_panel(dataset, tmp_path):
    serial = run_hc_session(
        dataset,
        SessionConfig(budget=16.0, k=2),
        answer_source=KeyedExpertPanel(dataset.ground_truth, seed=4),
    )
    panel = _CountingPanel(dataset.ground_truth, seed=4)
    plain = run_parallel_hc_session(
        dataset, SessionConfig(budget=16.0, k=2), answer_source=panel, jobs=3
    )
    assert (panel.serial_calls, panel.chunk_calls > 0) == (0, True)
    assert _signature(plain) == _signature(serial)
    # A resilient session checkpoints its source, so it keeps the panel.
    panel = _CountingPanel(dataset.ground_truth, seed=4)
    run_parallel_hc_session(
        dataset,
        SessionConfig(budget=16.0, k=2, journal_path=tmp_path / "j.jsonl"),
        answer_source=panel,
        jobs=3,
    )
    assert (panel.serial_calls > 0, panel.chunk_calls) == (True, 0)


def test_caller_supplied_selector_is_used(dataset):
    """A seeded random selector picks other facts than the default lazy
    greedy here, so a dropped selector would fail the comparison."""
    from repro.core import RandomSelector

    config = SessionConfig(budget=16.0, k=2)
    serial = run_hc_session(
        dataset,
        config,
        selector=RandomSelector(rng=3),
        answer_source=KeyedExpertPanel(dataset.ground_truth, seed=4),
    )
    parallel = run_parallel_hc_session(
        dataset,
        config,
        selector=RandomSelector(rng=3),
        answer_source=KeyedExpertPanel(dataset.ground_truth, seed=4),
        jobs=2,
    )
    assert _signature(parallel) == _signature(serial)


def _four_pick_rounds() -> SessionConfig:
    """Three rounds of four picks each on ``dataset``.  The dense kernel
    is pinned: under a sparse ``REPRO_BELIEF_EPSILON`` default the third
    round finds fewer than four facts with positive gain."""
    return SessionConfig(budget=36.0, k=4, belief_epsilon=0.0)


#: Four parties: each round's four collection chunks must all be
#: waiting at once for any of them to pass.
_ROUND_BARRIER = threading.Barrier(4, timeout=10)


class _RendezvousPanel(KeyedExpertPanel):
    def collect_indexed(self, indexed_queries, experts):
        _ROUND_BARRIER.wait()
        return super().collect_indexed(indexed_queries, experts)


def test_collection_chunks_run_on_concurrent_threads(dataset):
    """jobs=4: every round's four single-query chunks meet at a
    barrier, which only threads that overlap can pass."""
    config = _four_pick_rounds()
    serial = run_hc_session(
        dataset,
        config,
        answer_source=KeyedExpertPanel(dataset.ground_truth, seed=4),
    )
    parallel = run_parallel_hc_session(
        dataset,
        config,
        answer_source=_RendezvousPanel(dataset.ground_truth, seed=4),
        jobs=4,
    )
    assert _signature(parallel) == _signature(serial)


class _FailingChunkPanel(KeyedExpertPanel):
    """The first chunk to arrive raises; the others finish later."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()
        self.calls = 0
        self.finished = 0

    def collect_indexed(self, indexed_queries, experts):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        if first:
            raise RuntimeError("expert platform dropped a chunk")
        time.sleep(0.05)
        family = super().collect_indexed(indexed_queries, experts)
        with self._lock:
            self.finished += 1
        return family


def test_chunk_error_surfaces_after_the_other_chunks(dataset):
    panel = _FailingChunkPanel(dataset.ground_truth, seed=4)
    with pytest.raises(RuntimeError, match="dropped a chunk"):
        run_parallel_hc_session(
            dataset, _four_pick_rounds(), answer_source=panel, jobs=4
        )
    assert panel.finished == 3


def test_trust_summary_survives_the_parallel_path(dataset):
    config = SessionConfig(
        budget=20.0, k=2, seed=3, trust_policy=TrustPolicy(seed=7)
    )
    serial = run_hc_session(dataset, config)
    parallel = run_parallel_hc_session(dataset, config, jobs=2)
    assert parallel.trust is not None
    assert [
        (summary.worker_id, summary.mean, summary.breaker_state)
        for summary in parallel.trust.workers
    ] == [
        (summary.worker_id, summary.mean, summary.breaker_state)
        for summary in serial.trust.workers
    ]
