"""The observability hard contract: enabled vs disabled is invisible.

Turning on tracing + metrics must never touch an RNG stream and never
change a journal byte.  Each test runs the same campaign twice — once
with ``OBS`` fully enabled (metrics, trace buffer, trace JSONL), once
disabled — and asserts the journals are byte-identical and the final
beliefs bit-identical.  Covered shapes: a journaled
``run_parallel_hc_session`` at ``jobs=1`` and ``jobs=4``, a streamed
campaign, and a streamed campaign resumed from its journal.  Each
enabled run also asserts instrumentation actually fired, so a
regression that silently disables the hooks cannot pass as "no
perturbation".  A service recovery with OBS on must also leave a
reattached streamed campaign without fault strikes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.trust import TrustPolicy
from repro.datasets import WorkerPoolSpec, make_synthetic_dataset
from repro.engine import run_parallel_hc_session
from repro.obs import OBS
from repro.service import CampaignService, CampaignSpec, CampaignStatus
from repro.simulation import (
    FaultModel,
    FaultyExpertPanel,
    SessionConfig,
    SimulatedExpertPanel,
)
from repro.stream import StreamingCampaign

from ..stream.conftest import BUDGET, build_spec, events_for, experts_for


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every run starts from a fresh, disabled facade."""
    OBS.reset()
    yield
    OBS.reset()


def _dataset():
    return make_synthetic_dataset(
        num_groups=6,
        group_size=4,
        answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=12, num_expert=3),
        seed=3,
    )


FAULTS = FaultModel(no_show=0.2, partial=0.2, seed=9)


def _config(journal_path):
    return SessionConfig(
        budget=30.0,
        k=2,
        seed=5,
        faults=FAULTS,
        trust_policy=TrustPolicy(seed=7),
        reserve_accuracies=(0.92, 0.9),
        journal_path=journal_path,
    )


def _run_engine(dataset, journal_path, jobs):
    return run_parallel_hc_session(dataset, _config(journal_path), jobs=jobs)


def _assert_observed_something(tmp_path):
    """The enabled run must have actually recorded phases and spans."""
    snapshot = OBS.snapshot()
    phase = snapshot["metrics"].get("repro_phase_seconds")
    assert phase is not None, "no phase latencies recorded while enabled"
    phases = {
        series["labels"]["phase"] for series in phase["series"]
    }
    assert phases, "phase family exists but holds no series"
    assert OBS.tracer.enabled and len(OBS.tracer.spans()) > 0
    trace_file = tmp_path / "enabled.trace.jsonl"
    assert trace_file.exists() and trace_file.stat().st_size > 0
    return phases


@pytest.mark.parametrize("jobs", [1, 4])
def test_engine_journal_bytes_identical_enabled_vs_disabled(
    tmp_path, jobs
):
    dataset = _dataset()

    disabled_path = tmp_path / "disabled.jsonl"
    reference = _run_engine(dataset, disabled_path, jobs)
    disabled_bytes = disabled_path.read_bytes()

    OBS.reset()
    OBS.enable(trace_path=tmp_path / "enabled.trace.jsonl")
    enabled_path = tmp_path / "enabled.jsonl"
    observed = _run_engine(dataset, enabled_path, jobs)
    OBS.flush(tmp_path / "enabled.metrics.json")

    assert enabled_path.read_bytes() == disabled_bytes
    for ours, theirs in zip(observed.belief, reference.belief):
        assert np.array_equal(ours.probabilities, theirs.probabilities)
    assert observed.budgets == reference.budgets

    phases = _assert_observed_something(tmp_path)
    # Selection, collection, belief update and journal checkpoints all
    # sit on the run path.
    assert {"select", "collect", "update", "journal"} <= phases


def test_stream_journal_bytes_identical_enabled_vs_disabled(tmp_path):
    dataset = make_synthetic_dataset(
        num_groups=3, group_size=3, answers_per_fact=6, seed=1
    )
    spec = build_spec()
    events = events_for(dataset, spec)
    experts = experts_for(dataset, spec)

    def run(path):
        campaign = StreamingCampaign(
            events, experts, BUDGET, spec=spec, journal_path=path
        )
        campaign.run()
        assert campaign.finished
        return path.read_bytes()

    disabled_bytes = run(tmp_path / "disabled.jsonl")

    OBS.reset()
    OBS.enable(trace_path=tmp_path / "enabled.trace.jsonl")
    enabled_bytes = run(tmp_path / "enabled.jsonl")

    assert enabled_bytes == disabled_bytes
    phases = _assert_observed_something(tmp_path)
    assert {"admit", "seal"} <= phases


def _stream_inputs():
    dataset = make_synthetic_dataset(
        num_groups=3, group_size=3, answers_per_fact=6, seed=1
    )
    spec = build_spec()
    return dataset, spec, events_for(dataset, spec), experts_for(dataset, spec)


def test_resumed_stream_steps_with_obs_enabled(tmp_path):
    """A streamed campaign rebuilt by ``resume`` publishes its admit and
    seal counters like a fresh one: with OBS on it steps to completion,
    and its journal matches the OBS-off resume byte for byte."""
    _dataset, spec, events, experts = _stream_inputs()

    def crash_then_resume(path):
        first = StreamingCampaign(
            events, experts, BUDGET, spec=spec, journal_path=path
        )
        first.run(max_events=len(events) // 2)
        resumed = StreamingCampaign.resume(path, events, experts=experts)
        resumed.run()
        assert resumed.finished
        return path.read_bytes()

    disabled_bytes = crash_then_resume(tmp_path / "disabled.jsonl")

    OBS.reset()
    OBS.enable(trace_path=tmp_path / "enabled.trace.jsonl")
    enabled_bytes = crash_then_resume(tmp_path / "enabled.jsonl")

    assert enabled_bytes == disabled_bytes
    _assert_observed_something(tmp_path)


def test_recovered_streamed_campaigns_take_no_strikes(tmp_path):
    """``CampaignService.recover`` with OBS on reattaches a streamed
    campaign that then steps without a fault strike."""
    dataset, spec, _events, _experts = _stream_inputs()
    campaign = CampaignSpec(
        tenant="acme",
        name="live",
        dataset=dataset,
        config=SessionConfig(budget=30.0, k=1, seed=0),
        stream=spec,
    )
    root = tmp_path / "svc"
    service = CampaignService(100.0, journal_root=root)
    handle = service.submit(campaign)
    for _ in range(3):
        service.step()
    assert handle.status is CampaignStatus.ACTIVE
    service.close()  # a crash leaves the journal directory behind

    OBS.enable()
    with CampaignService(100.0, journal_root=root) as service:
        report = service.recover(specs=[campaign])
        assert [c.campaign_id for c in report.reattached] == [
            campaign.campaign_id
        ]
        service.run_until_idle()
        handle = service.handle(campaign.campaign_id)
        assert handle.strikes == 0
        assert handle.status is CampaignStatus.COMPLETED
