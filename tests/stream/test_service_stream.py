"""Streamed campaigns through the multi-tenant service.

Detach/reattach byte-identity, bootstrap-phase attach, backpressure
into the admission controller, and the retry-after hint on
queue-saturation rejections.
"""

from __future__ import annotations

import pytest

from repro.service import (
    CampaignService,
    CampaignSpec,
    CampaignStatus,
    ServicePolicy,
    ServiceSaturatedError,
)
from repro.engine.ledger import BudgetLedger
from repro.service.admission import AdmissionController
from repro.simulation.session import SessionConfig

from .conftest import build_spec


def stream_spec_for(dataset, tenant, name, *, stream, budget=30.0, seed=0):
    return CampaignSpec(
        tenant=tenant,
        name=name,
        dataset=dataset,
        config=SessionConfig(budget=budget, k=1, seed=seed),
        stream=stream,
    )


def test_streamed_campaign_completes_via_service(dataset, tmp_path):
    stream = build_spec()
    with CampaignService(
        100.0, journal_root=tmp_path / "svc"
    ) as service:
        handle = service.submit(
            stream_spec_for(dataset, "acme", "live", stream=stream)
        )
        service.run_until_idle()
        assert handle.status is CampaignStatus.COMPLETED
        result = service.result(handle)
        assert result is not None
        assert len(result.final_labels) > 0
        assert handle.spent > 0.0
        assert service.ledger.audit() == []
        stats = service.stats()
        assert stats["stream_backlog"] == 0  # drained
        assert "effective_queue_limit" in stats


def test_detach_restart_attach_is_byte_identical(dataset, tmp_path):
    stream = build_spec()

    def spec():
        return stream_spec_for(dataset, "acme", "resumed", stream=stream)

    with CampaignService(
        100.0, journal_root=tmp_path / "ref"
    ) as service:
        service.submit(
            stream_spec_for(dataset, "acme", "resumed", stream=stream)
        )
        service.run_until_idle()
    reference = (tmp_path / "ref/acme/resumed.jsonl").read_bytes()

    with CampaignService(
        100.0, journal_root=tmp_path / "svc"
    ) as service:
        handle = service.submit(spec())
        for _ in range(3):
            service.step()
        service.detach(handle)
        assert handle.status is CampaignStatus.DETACHED
    # a *fresh* service instance adopts the journal from disk
    with CampaignService(
        100.0, journal_root=tmp_path / "svc"
    ) as service:
        handle = service.attach(spec())
        service.run_until_idle()
        assert handle.status is CampaignStatus.COMPLETED
    assert (tmp_path / "svc/acme/resumed.jsonl").read_bytes() == reference


def test_bootstrap_phase_attach_before_any_session(dataset, tmp_path):
    # a group size larger than the early stream and an unreachable
    # straggler horizon keep the campaign in its pre-session bootstrap
    stream = build_spec(
        group_size=12, target_votes=2, straggler_timeout=1e9, chaos=None
    )

    def spec():
        return stream_spec_for(dataset, "acme", "boot", stream=stream)

    with CampaignService(
        100.0, journal_root=tmp_path / "svc"
    ) as service:
        handle = service.submit(spec())
        service.step()
        assert handle.spent == 0.0  # nothing sealed, nothing charged
        service.detach(handle)
    with CampaignService(
        100.0, journal_root=tmp_path / "svc"
    ) as service:
        handle = service.attach(spec())
        service.run_until_idle()
        assert handle.status is CampaignStatus.COMPLETED
        assert handle.spent > 0.0


def test_backlog_shrinks_the_effective_queue_limit():
    controller = AdmissionController(
        BudgetLedger(100.0), queue_limit=8, backlog_per_slot=10
    )
    assert controller.effective_queue_limit == 8
    controller.observe_backlog(35)
    assert controller.backlog == 35
    assert controller.effective_queue_limit == 5
    controller.observe_backlog(10_000)
    assert controller.effective_queue_limit == 1  # never below one
    controller.observe_backlog(0)
    assert controller.effective_queue_limit == 8
    with pytest.raises(ValueError):
        controller.observe_backlog(-1)


def test_stream_backlog_feeds_admission(dataset, tmp_path):
    stream = build_spec()
    with CampaignService(
        100.0,
        policy=ServicePolicy(slots=1, queue_limit=8),
        journal_root=tmp_path / "svc",
    ) as service:
        service.submit(
            stream_spec_for(dataset, "acme", "feed", stream=stream)
        )
        service.step()
        stats = service.stats()
        # mid-stream: undelivered events register as queue pressure
        assert stats["stream_backlog"] > 0
        assert stats["effective_queue_limit"] <= 8
        service.run_until_idle()
        assert service.stats()["stream_backlog"] == 0


def test_queue_rejection_carries_a_retry_hint(dataset, tmp_path):
    with CampaignService(
        1000.0,
        policy=ServicePolicy(slots=1, queue_limit=2),
        journal_root=tmp_path / "svc",
    ) as service:
        for index in range(2):
            service.submit(
                stream_spec_for(
                    dataset,
                    "acme",
                    f"c{index}",
                    stream=build_spec(),
                    seed=index,
                )
            )
        with pytest.raises(ServiceSaturatedError) as excinfo:
            service.submit(
                stream_spec_for(
                    dataset, "acme", "overflow", stream=build_spec(), seed=9
                )
            )
        assert excinfo.value.reason == "queue"
        assert excinfo.value.retry_after_rounds >= 1
        service.run_until_idle()


def test_ledger_rejection_has_no_retry_hint(dataset, tmp_path):
    with CampaignService(
        20.0, journal_root=tmp_path / "svc"
    ) as service:
        service.submit(
            stream_spec_for(
                dataset, "acme", "big", stream=build_spec(), budget=18.0
            )
        )
        with pytest.raises(ServiceSaturatedError) as excinfo:
            service.submit(
                stream_spec_for(
                    dataset,
                    "acme",
                    "broke",
                    stream=build_spec(),
                    budget=18.0,
                    seed=1,
                )
            )
        assert excinfo.value.reason == "ledger"
        assert excinfo.value.retry_after_rounds == 0
        service.run_until_idle()
