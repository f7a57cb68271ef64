"""Spawned-process shard tests (the real multiprocessing transport).

These run actual ``spawn`` children, so they are the slow end of the
engine suite; the bit-identity logic itself is covered much more
broadly by the inline-shard tests in ``test_equivalence.py``.
"""

import numpy as np
import pytest

from repro.datasets import WorkerPoolSpec, make_synthetic_dataset
from repro.engine import KeyedExpertPanel, run_parallel_hc_session
from repro.simulation import SessionConfig, run_hc_session


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_dataset(
        num_groups=4,
        group_size=4,
        answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=10, num_expert=2),
        seed=6,
    )


def test_spawned_shards_match_serial(dataset):
    """2 spawned worker processes, concurrent collection included: the
    full IPC path (pickled beliefs, staged posteriors) and keyed
    answers collected on threads must reproduce the serial run bit for
    bit."""
    config = SessionConfig(budget=14.0, k=2, seed=1)
    serial = run_hc_session(
        dataset,
        config,
        answer_source=KeyedExpertPanel(dataset.ground_truth, seed=1),
    )
    parallel = run_parallel_hc_session(
        dataset,
        config,
        answer_source=KeyedExpertPanel(dataset.ground_truth, seed=1),
        jobs=2,
        inline=False,
    )
    assert [tuple(r.query_fact_ids) for r in parallel.history] == [
        tuple(r.query_fact_ids) for r in serial.history
    ]
    assert [r.budget_spent for r in parallel.history] == [
        r.budget_spent for r in serial.history
    ]
    for ours, theirs in zip(parallel.belief, serial.belief):
        assert np.array_equal(ours.probabilities, theirs.probabilities)


def test_process_pool_closes_cleanly(dataset):
    from repro.datasets.grouping import initialize_belief
    from repro.aggregation.registry import make_aggregator
    from repro.engine import ShardPool

    experts, _ = dataset.split_crowd(0.9)
    belief, _ = initialize_belief(
        dataset, make_aggregator("EBCC"), 0.9, smoothing=0.01
    )
    pool = ShardPool(belief, experts, 2, inline=False)
    try:
        assert pool.jobs == 2
        selections = pool.broadcast("select", 2)
        assert len(selections) == 2
    finally:
        pool.close()
    # Closing twice must be safe.
    pool.close()


class TestStartupBytes:
    """Satellite regression: the crowd/panel payload is pickled once.

    Before the pre-serialized transport, every ``ProcessShard`` init
    frame re-pickled the full expert panel, so startup payload bytes
    grew linearly with ``jobs``.  Now the panel blob is serialized once
    at ``HIGHEST_PROTOCOL`` into a shared segment and every worker's
    init frame carries only a reference plus its own group slice —
    total init bytes must stay flat as jobs grow.
    """

    #: Per-worker framing slack (command tag, shared-segment ref,
    #: tolerances) — generous; the shared panel blob alone is bigger.
    FRAME_SLACK = 1024

    @pytest.fixture(scope="class")
    def wide_dataset(self):
        """A 40-expert panel, so the shared blob dwarfs the framing and
        a single re-pickled copy per worker is unmissable."""
        return make_synthetic_dataset(
            num_groups=8,
            group_size=4,
            answers_per_fact=6,
            pool=WorkerPoolSpec(num_preliminary=10, num_expert=40),
            seed=7,
        )

    def _pool(self, dataset, jobs):
        from repro.aggregation.registry import make_aggregator
        from repro.datasets.grouping import initialize_belief
        from repro.engine import ShardPool

        experts, _ = dataset.split_crowd(0.9)
        belief, _ = initialize_belief(
            dataset, make_aggregator("EBCC"), 0.9, smoothing=0.01
        )
        return ShardPool(belief, experts, jobs, inline=False)

    def test_payload_bytes_do_not_scale_with_jobs(self, wide_dataset):
        totals = {}
        payload_sizes = {}
        for jobs in (1, 4):
            pool = self._pool(wide_dataset, jobs)
            try:
                stats = pool.transport_stats()
            finally:
                pool.close()
            assert stats["shared_payload_bytes"] > 0
            assert len(stats["init_bytes"]) == pool.jobs
            totals[jobs] = stats["init_bytes_total"]
            payload_sizes[jobs] = stats["shared_payload_bytes"]

        # The shared blob is the same bytes however many workers exist.
        assert payload_sizes[4] == payload_sizes[1]
        # Init frames partition the group states, so their *sum* is
        # flat in jobs — only per-worker framing may be added.  A
        # re-pickled panel per worker would blow through this bound.
        assert totals[4] <= totals[1] + 4 * self.FRAME_SLACK
        # The three extra workers must not add even ONE more copy of
        # the panel blob (the old transport re-pickled it per worker).
        assert totals[4] - totals[1] < payload_sizes[1]

    def test_shared_payload_round_trips(self, dataset):
        """The worker actually reconstructs the panel from the shared
        segment: a spawned pool must still answer selections."""
        pool = self._pool(dataset, 2)
        try:
            stats = pool.transport_stats()
            selections = pool.broadcast("select", 1)
            assert len(selections) == 2
            # replies flowed over the counted pipe
            after = pool.transport_stats()
            assert after["bytes_received"] > stats["bytes_received"]
        finally:
            pool.close()


def test_startup_failure_is_typed_and_leaks_nothing(dataset, monkeypatch):
    """A worker that dies before its start-up handshake fails the pool
    with the supervisor's typed error, after every transport built so
    far is torn down and the pool's shared segment is unlinked."""
    from multiprocessing import shared_memory

    from repro.aggregation.registry import make_aggregator
    from repro.datasets.grouping import initialize_belief
    from repro.engine import ShardPool, shards
    from repro.engine.supervisor import ShardRespawnError

    segments = []
    real_payload = shards.SharedCampaignPayload.__init__
    real_spawn = shards.ProcessShard._spawn

    def recording_payload(self, *args, **kwargs):
        real_payload(self, *args, **kwargs)
        segments.append(self.ref())

    def dying_spawn(self):
        real_spawn(self)
        self._process.kill()

    monkeypatch.setattr(
        shards.SharedCampaignPayload, "__init__", recording_payload
    )
    monkeypatch.setattr(shards.ProcessShard, "_spawn", dying_spawn)
    experts, _ = dataset.split_crowd(0.9)
    belief, _ = initialize_belief(
        dataset, make_aggregator("EBCC"), 0.9, smoothing=0.01
    )
    with pytest.raises(ShardRespawnError) as failure:
        ShardPool(belief, experts, 2, inline=False)
    assert isinstance(failure.value.__cause__, (OSError, EOFError))
    assert segments and all(ref[0] == "shm" for ref in segments)
    for _kind, name, _size in segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
