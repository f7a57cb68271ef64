"""Benchmark: the multi-tenant campaign service under load.

Drives a :class:`~repro.service.CampaignService` through a mixed
workload — more campaigns than budget and slots can hold, spread over
several tenants, including one deliberately over-subscribed burst — and
records service-level metrics to ``BENCH_service.json`` at the
repository root (plus a copy under ``benchmarks/results/``):

* round-latency percentiles (p50 / p95 / p99) across every scheduled
  round of every tenant;
* throughput as completed campaigns per minute of service wall-clock;
* backpressure counters (admitted / rejected / shed) from the
  admission controller;
* the shared ledger's final accounting, asserted leak-free.

Alongside the numbers, the run re-asserts the service's core contract
at benchmark scale: every completed campaign's result is bit-identical
to the same campaign run solo, and no ledger reservation survives the
shutdown.

Set ``BENCH_SERVICE_SMOKE=1`` for the reduced CI version (fewer and
smaller campaigns).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.datasets.synthetic import WorkerPoolSpec, make_synthetic_dataset
from repro.engine import run_parallel_hc_session
from repro.service import (
    CampaignService,
    CampaignSpec,
    CampaignStatus,
    ServicePolicy,
    ServiceSaturatedError,
    TenantQuota,
)
from repro.simulation.session import SessionConfig

SMOKE = os.environ.get("BENCH_SERVICE_SMOKE", "") not in ("", "0")
NUM_CAMPAIGNS = 4 if SMOKE else 12
NUM_TENANTS = 2 if SMOKE else 3
NUM_GROUPS = 4 if SMOKE else 8
BUDGET = 12.0 if SMOKE else 24.0
SLOTS = 2 if SMOKE else 4

from _writer import write_bench

REPO_ROOT = Path(__file__).parent.parent


def _dataset(seed: int):
    return make_synthetic_dataset(
        num_groups=NUM_GROUPS,
        group_size=4,
        answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=10, num_expert=2),
        seed=seed,
    )


def _config(seed: int, journal_path=None) -> SessionConfig:
    return SessionConfig(
        budget=BUDGET, k=2, seed=seed, journal_path=journal_path
    )


def _signature(result):
    return (
        [tuple(record.query_fact_ids) for record in result.history],
        [record.budget_spent for record in result.history],
        [state.probabilities.tobytes() for state in result.belief],
    )


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def test_bench_service(results_dir, tmp_path):
    datasets = {index: _dataset(seed=200 + index)
                for index in range(NUM_CAMPAIGNS)}

    # Solo references for the bit-identity assertion.
    solo = {}
    for index, dataset in datasets.items():
        solo_config = _config(
            seed=index, journal_path=tmp_path / f"solo-{index}.jsonl"
        )
        solo[index] = _signature(
            run_parallel_hc_session(dataset, solo_config)
        )

    # A pool sized for all planned campaigns plus ~20% headroom, but
    # not for the over-subscription burst below.
    pool_budget = BUDGET * NUM_CAMPAIGNS * 1.2
    service = CampaignService(
        pool_budget,
        policy=ServicePolicy(slots=SLOTS, queue_limit=NUM_CAMPAIGNS),
        default_quota=TenantQuota(weight=1.0),
        journal_root=tmp_path / "svc",
    )

    started = time.perf_counter()
    handles = {}
    for index, dataset in datasets.items():
        handles[index] = service.submit(
            CampaignSpec(
                tenant=f"tenant-{index % NUM_TENANTS}",
                name=f"campaign-{index}",
                dataset=dataset,
                config=_config(seed=index),
                # Stagger weights so the scheduler's weighted-fair path
                # is exercised, not just round-robin.
                weight=1.0 + (index % NUM_TENANTS),
            )
        )

    # Over-subscription burst: these cannot all deposit; the service
    # must reject them cleanly rather than stall or over-commit.
    burst_rejected = 0
    for extra in range(NUM_CAMPAIGNS):
        try:
            service.submit(
                CampaignSpec(
                    tenant="burst",
                    name=f"extra-{extra}",
                    dataset=datasets[extra % NUM_CAMPAIGNS],
                    config=_config(seed=1000 + extra),
                )
            )
        except ServiceSaturatedError:
            burst_rejected += 1

    rounds_run = service.run_until_idle()
    wall_seconds = time.perf_counter() - started
    assert burst_rejected >= 1

    completed = 0
    for index, handle in handles.items():
        assert handle.status is CampaignStatus.COMPLETED, (
            index, handle.error
        )
        assert _signature(service.result(handle)) == solo[index], (
            f"campaign {index} diverged from its solo run"
        )
        completed += 1

    latencies = service.round_latencies()
    assert len(latencies) == rounds_run
    stats = service.stats()
    assert service.ledger.audit() == [], "leaked ledger reservations"
    service.close()
    assert service.ledger.open_reservations == 0

    result = {
        "scale": {
            "campaigns": NUM_CAMPAIGNS,
            "tenants": NUM_TENANTS,
            "num_groups": NUM_GROUPS,
            "budget_per_campaign": BUDGET,
            "budget_pool": pool_budget,
            "slots": SLOTS,
            "smoke": SMOKE,
        },
        "rounds": rounds_run,
        "wall_seconds": wall_seconds,
        "campaigns_completed": completed,
        "campaigns_per_minute": completed / wall_seconds * 60.0,
        "round_latency_seconds": {
            "p50": _percentile(latencies, 50),
            "p95": _percentile(latencies, 95),
            "p99": _percentile(latencies, 99),
            "max": max(latencies),
        },
        "admission": stats["admission"],
        "ledger": stats["ledger"],
        "identical_to_solo": True,
    }
    write_bench("service", result, results_dir)
    print()
    print(
        f"{completed} campaigns / {rounds_run} rounds in "
        f"{wall_seconds:.2f}s "
        f"({result['campaigns_per_minute']:.1f} campaigns/min)"
    )
    print(
        "round latency p50/p95/p99: "
        f"{result['round_latency_seconds']['p50'] * 1e3:.1f} / "
        f"{result['round_latency_seconds']['p95'] * 1e3:.1f} / "
        f"{result['round_latency_seconds']['p99'] * 1e3:.1f} ms"
    )
    print(f"admission: {stats['admission']}")
