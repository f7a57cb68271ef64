"""Benchmark: serial vs threaded answer collection on the serial loop.

Runs the same checking campaign three times — serially through
``run_hc_session``, then on :class:`OnlineCheckingSession` over a
:class:`ConcurrentAnswerSource` with 2 and 4 collection threads (what
``run_parallel_hc_session`` runs) — asserts the runs are
*bit-identical* (same per-round selections, same budget trajectory,
same final belief arrays), and records wall-clock to
``BENCH_engine.json`` under
``benchmarks/results/`` (and, for a full-scale run, at the repository
root).

The campaign scale is 160 groups x 8 facts (1280 facts, 10x the
pre-kernel benchmark): the bit-packed log-space kernel keeps per-round
compute flat enough to measure latency overlap at this size.

The answer source is a :class:`KeyedExpertPanel` whose per-query latency
simulates real crowd turnaround.  Every campaign runs the serial
checking loop — selection and belief updates in the calling thread —
and the threaded runs collect each round's queries in balanced
``(fact, ask_index)`` chunks, one per thread
(:class:`~repro.engine.sources.ConcurrentAnswerSource`), so the threads
overlap those latencies; that overlap is the speedup being measured,
not compute.  Set-up (``campaign_inputs``: crowd split and belief
initialization) is reported separately as ``startup_seconds`` with its
own ceiling.

Set ``BENCH_ENGINE_SMOKE=1`` for the reduced CI version: the same
10x dataset, but a short low-latency campaign with 2 threads —
equivalence assertions and the peak-RSS guard only, no speedup floor.
"""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path

from repro.core.hc import RunResult
from repro.datasets import WorkerPoolSpec
from repro.datasets.synthetic import make_synthetic_dataset
from repro.engine import ConcurrentAnswerSource, KeyedExpertPanel
from repro.simulation.online import OnlineCheckingSession
from repro.simulation.session import (
    SessionConfig,
    campaign_inputs,
    run_hc_session,
)

SMOKE = os.environ.get("BENCH_ENGINE_SMOKE", "") not in ("", "0")
NUM_GROUPS = 160
GROUP_SIZE = 8
K = 16
BUDGET = 256.0 if SMOKE else 768.0
LATENCY = 0.02 if SMOKE else 0.2
JOB_COUNTS = (2,) if SMOKE else (2, 4)

#: Ceilings enforced on the full (non-smoke) run.  The speedup floor is
#: met by overlapping expert latency on the collection threads, not by
#: compute.
MAX_STARTUP_SECONDS = 1.5
MIN_SPEEDUP_JOBS4 = 3.0

#: Peak-RSS guard (enforced in smoke mode too — it is what the CI
#: engine-smoke leg is for).  The process at 160x8 holds 160 dense
#: 256-state groups — a few MB of arrays on top of the interpreter +
#: numpy baseline; 600 MB is an order of
#: magnitude of headroom that still catches an accidental per-thread
#: belief copy or a dense-matrix blowup in the kernel.
MAX_PEAK_RSS_MB = 600

from _writer import write_bench

REPO_ROOT = Path(__file__).parent.parent


def _dataset():
    return make_synthetic_dataset(
        num_groups=NUM_GROUPS,
        group_size=GROUP_SIZE,
        answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=30, num_expert=8),
        seed=0,
    )


def _panel(dataset) -> KeyedExpertPanel:
    return KeyedExpertPanel(dataset.ground_truth, seed=1, latency=LATENCY)


def _signature(result: RunResult):
    """Everything two equivalent runs must agree on, bit for bit."""
    return (
        [list(record.query_fact_ids) for record in result.history],
        [record.budget_spent for record in result.history],
        [state.probabilities.tobytes() for state in result.belief],
    )


def _peak_rss_mb() -> float:
    """Coordinator-process peak RSS in MB (Linux ru_maxrss is in KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_bench_engine(results_dir):
    dataset = _dataset()
    config = SessionConfig(budget=BUDGET, k=K, seed=1)

    started = time.perf_counter()
    serial = run_hc_session(dataset, config, answer_source=_panel(dataset))
    serial_seconds = time.perf_counter() - started
    reference = _signature(serial)
    rounds = len(serial.history) - 1
    assert rounds >= (1 if SMOKE else 3)

    runs = {}
    for jobs in JOB_COUNTS:
        started = time.perf_counter()
        experts, belief, panel = campaign_inputs(
            dataset, config, answer_source=_panel(dataset)
        )
        startup_seconds = time.perf_counter() - started
        started = time.perf_counter()
        parallel = OnlineCheckingSession(
            belief,
            experts,
            config.budget,
            k=config.k,
            ground_truth=dataset.ground_truth,
        ).run(ConcurrentAnswerSource(panel, jobs))
        campaign_seconds = time.perf_counter() - started

        # The tentpole guarantee: identical selections, identical budget
        # trajectory, bit-identical final beliefs, for any worker count.
        assert _signature(parallel) == reference
        assert parallel.final_labels == serial.final_labels
        runs[jobs] = {
            "jobs": jobs,
            "startup_seconds": startup_seconds,
            "campaign_seconds": campaign_seconds,
            "speedup": serial_seconds / campaign_seconds,
        }

    peak_rss_mb = _peak_rss_mb()
    assert peak_rss_mb < MAX_PEAK_RSS_MB

    if not SMOKE:
        # Set-up is one-time and flat in jobs (threads start per
        # round), but must stay sub-interactive.
        assert runs[4]["startup_seconds"] < MAX_STARTUP_SECONDS
        # Four collection threads must overlap enough expert latency
        # for a 3x campaign speedup (startup excluded: it amortizes
        # over a campaign; campaign time does not).  Balanced chunks
        # make each thread's sleep ~k/4 queries; the gap to the ideal
        # 4x is the round's serial compute (selection, updates,
        # scoring) and per-round thread start-up.
        assert runs[4]["speedup"] >= MIN_SPEEDUP_JOBS4

    result = {
        "scale": {
            "num_groups": NUM_GROUPS,
            "group_size": GROUP_SIZE,
            "num_facts": NUM_GROUPS * GROUP_SIZE,
            "k": K,
            "budget": BUDGET,
            "rounds": rounds,
            "latency_per_query": LATENCY,
            "smoke": SMOKE,
        },
        "serial": {"campaign_seconds": serial_seconds},
        "parallel": {str(jobs): stats for jobs, stats in runs.items()},
        "peak_rss_mb": peak_rss_mb,
        "identical_results": True,
    }
    write_bench("engine", result, results_dir)
    print()
    print(f"serial: {serial_seconds:.2f}s over {rounds} rounds")
    for jobs, stats in runs.items():
        print(
            f"jobs={jobs}: campaign {stats['campaign_seconds']:.2f}s "
            f"({stats['speedup']:.2f}x), "
            f"startup {stats['startup_seconds']:.2f}s"
        )
    print(f"peak RSS: {peak_rss_mb:.0f} MB")
