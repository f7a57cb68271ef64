"""Shard worker reuse: pools adopting and releasing parked workers.

A pool built with an :class:`~repro.engine.shards.IdleWorkers` set
adopts parked workers before it spawns any, and a clean close releases
its workers back to the set.  These tests run real spawned processes.
CI's engine-chaos matrix reruns them under environment-injected kills,
hangs and corruption, so every check holds whatever the environment
injects; the pid-exact ones apply only when it injects nothing.
"""

import os
import signal
import time
from pathlib import Path

import pytest

from repro.aggregation.registry import make_aggregator
from repro.datasets import WorkerPoolSpec, make_synthetic_dataset
from repro.datasets.grouping import initialize_belief
from repro.engine import (
    ChaosPlan,
    IdleWorkers,
    KeyedExpertPanel,
    ParallelCampaignRunner,
    ProcessShard,
    ShardPool,
    SupervisionPolicy,
)
from repro.simulation import SessionConfig

ENV_CHAOS = ChaosPlan.from_env() is not None

CONFIGS = {seed: SessionConfig(budget=14.0, k=2, seed=seed) for seed in (1, 2)}


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_dataset(
        num_groups=4,
        group_size=4,
        answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=10, num_expert=2),
        seed=6,
    )


def _signature(result):
    return (
        [tuple(record.query_fact_ids) for record in result.history],
        [record.budget_spent for record in result.history],
        [state.probabilities.tobytes() for state in result.belief],
    )


def _pid(shard) -> int:
    while hasattr(shard, "inner"):
        shard = shard.inner
    return shard._process.pid


def _run(dataset, seed, idle=None, **kwargs):
    """One 2-worker campaign: the pids its pool started with, its
    result signature, and the runner (for supervision counters)."""
    runner = ParallelCampaignRunner(
        dataset,
        CONFIGS[seed],
        answer_source=KeyedExpertPanel(dataset.ground_truth, seed=1),
        jobs=2,
        inline=False,
        idle_workers=idle,
        **kwargs,
    )
    runner.prepare()
    pids = [_pid(shard) for shard in runner._prepared["pool"].shards]
    return pids, _signature(runner.run()), runner


@pytest.fixture(scope="module")
def fresh(dataset):
    """Each campaign on fresh workers, spawned for it alone."""
    return {seed: _run(dataset, seed)[1] for seed in CONFIGS}


def _exited(pid: int) -> bool:
    """Whether ``pid`` is gone or a zombie (dead, not yet reaped)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def _wait_exited(pid: int, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not _exited(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _start(dataset):
    experts, _ = dataset.split_crowd(0.9)
    belief, _ = initialize_belief(
        dataset, make_aggregator("EBCC"), 0.9, smoothing=0.01
    )
    return belief, experts


def _pool(dataset, idle, chaos):
    belief, experts = _start(dataset)
    return ShardPool(
        belief, experts, 2, inline=False, chaos=chaos, idle_workers=idle
    )


def test_consecutive_pools_run_on_the_same_workers(dataset, fresh):
    idle = IdleWorkers()
    try:
        first_pids, first, _ = _run(dataset, 1, idle)
        parked = idle.pids()
        second_pids, second, _ = _run(dataset, 2, idle)
        assert parked and parked <= set(second_pids)
        if not ENV_CHAOS:
            assert parked == set(first_pids)
            assert idle.pids() == parked
        assert first == fresh[1]
        assert second == fresh[2]
    finally:
        idle.close()
    for pid in parked:
        assert _exited(pid)


def test_worker_killed_while_idle_is_replaced_by_a_spawn(dataset, fresh):
    idle = IdleWorkers()
    try:
        _run(dataset, 1, idle)
        victim, *survivors = sorted(idle.pids())
        os.kill(victim, signal.SIGKILL)
        assert _wait_exited(victim)
        runner = ParallelCampaignRunner(
            dataset,
            CONFIGS[2],
            answer_source=KeyedExpertPanel(dataset.ground_truth, seed=1),
            jobs=2,
            inline=False,
            idle_workers=idle,
        )
        runner.prepare()  # must not raise: the handshake failure is absorbed
        pool = runner._prepared["pool"]
        pids = {_pid(shard) for shard in pool.shards}
        assert victim not in pids
        assert set(survivors) <= pids
        assert len(pids) == 2
        # Not a supervision event: nothing was restarted or struck.
        assert pool.supervisor_incidents == []
        assert not any(pool.supervisor_stats().values())
        assert _signature(runner.run()) == fresh[2]
    finally:
        idle.close()


def test_adopted_worker_dying_before_its_handshake_is_replaced(dataset):
    """The init frame reached the parked worker's pipe, but the worker
    died before answering it: the shard spawns a replacement."""
    belief, experts = _start(dataset)
    states = [belief[index] for index in range(len(belief))]
    idle = IdleWorkers()
    try:
        first = ProcessShard(range(len(states)), states, experts,
                             idle_workers=idle)
        first.wait_ready()
        first.close()
        (victim,) = idle.pids()
        os.kill(victim, signal.SIGSTOP)  # it cannot answer the init frame
        shard = ProcessShard(range(len(states)), states, experts,
                             idle_workers=idle)
        assert _pid(shard) == victim  # adopted, init frame sent
        os.kill(victim, signal.SIGKILL)
        shard.ensure_ready(30.0)
        assert _pid(shard) != victim
        assert shard.call("ping") == "pong"
        shard.close()
        assert idle.pids() == {_pid(shard)}
    finally:
        idle.close()


@pytest.mark.parametrize("action", ["kill", "hang", "corrupt"])
def test_faulted_worker_never_reenters_the_idle_set(dataset, fresh, action):
    idle = IdleWorkers()
    try:
        pids, signature, runner = _run(
            dataset,
            1,
            idle,
            chaos=ChaosPlan(schedule={(0, 1): action}),
            policy=SupervisionPolicy(deadline=1.0),
        )
        victim = pids[0]
        assert runner.supervisor_stats["restarts"] == 1
        assert victim not in idle.pids()
        assert _exited(victim)
        # The replacement and the untouched worker closed cleanly.
        assert len(idle) == 2
        assert signature == fresh[1]
    finally:
        idle.close()


def test_worker_with_a_swallowed_command_is_not_parked(dataset):
    """A hang injected on the last command before close: the worker
    never saw the command, so its transport looks clean, but a worker
    that had a fault injected is destroyed, not released."""
    idle = IdleWorkers()
    try:
        pool = _pool(dataset, idle, ChaosPlan(schedule={(0, 0): "hang"}))
        victim, survivor = (_pid(shard) for shard in pool.shards)
        pool.shards[0].submit("ping")
        pool.close()
        assert idle.pids() == {survivor}
        assert _exited(victim)
    finally:
        idle.close()


@pytest.mark.parametrize("replied", [False, True])
def test_worker_with_a_command_in_flight_is_not_parked(dataset, replied):
    """Only a worker whose reply stream is in step is reused: one with
    a command in flight, or a reply waiting unread, is shut down."""
    idle = IdleWorkers()
    try:
        pool = _pool(dataset, idle, ChaosPlan())  # no transport wrapper
        busy, quiet = pool.shards
        busy.submit("ping")
        if replied:
            assert busy.wait_reply(10.0)
        pool.close()
        assert idle.pids() == {_pid(quiet)}
    finally:
        idle.close()


def test_idle_set_never_holds_more_than_its_peak_of_live_workers():
    """Bookkeeping only (stand-in handles, no processes): two spawn
    workers are the peak, so a third worker of another start method
    is refused once both are parked."""
    idle = IdleWorkers()
    assert idle.take("spawn") is None
    assert idle.take("spawn") is None
    assert idle.park("spawn", "process-1", "pipe-1")
    assert idle.park("spawn", "process-2", "pipe-2")
    assert idle.take("forkserver") is None  # none parked for it: spawn
    assert not idle.park("forkserver", "process-3", "pipe-3")
    assert len(idle) == 2
    assert idle.take("spawn") == ("process-2", "pipe-2")
