"""Behavioral tests for the multi-tenant campaign service.

The invariants pinned here are the service's contract:

* every campaign — interleaved, detached or restarted — is
  **bit-identical** to its solo
  :func:`~repro.simulation.session.run_hc_session` run;
* admission is deposit-based and rejections are free of side effects;
* one tenant's faults never stall or corrupt another tenant;
* no service path ever leaks a reservation on the shared pool.
"""

import pytest

from repro.service import (
    CampaignQuarantinedError,
    CampaignService,
    CampaignSpec,
    CampaignStatus,
    QuotaExceededError,
    ServiceError,
    ServicePolicy,
    ServiceSaturatedError,
    TenantQuota,
    UnknownCampaignError,
)
from repro.obs import OBS
from repro.service.errors import CampaignStateError
from repro.simulation.faults import FaultModel

from .conftest import make_config, make_dataset, signature, solo_signature


def spec_for(tenant, name, dataset, config, **overrides):
    return CampaignSpec(
        tenant=tenant, name=name, dataset=dataset, config=config, **overrides
    )


def assert_no_leaks(service: CampaignService) -> None:
    """No service path may leave a reservation open on the pool."""
    assert service.ledger.audit() == []


class TestMultiTenantBitIdentity:
    def test_concurrent_campaigns_match_solo(self, tmp_path):
        """Four interleaved campaigns (one with crowd faults) each
        reproduce their solo run bit for bit."""
        faults = FaultModel(no_show=0.2, partial=0.2, seed=9)
        campaigns = {}
        for index in range(4):
            dataset = make_dataset(seed=20 + index)
            config = make_config(
                seed=index, faults=faults if index == 3 else None
            )
            campaigns[index] = (dataset, config)
        solo = {
            index: solo_signature(
                dataset, config, tmp_path / f"solo{index}.jsonl"
            )
            for index, (dataset, config) in campaigns.items()
        }
        with CampaignService(
            100.0,
            policy=ServicePolicy(slots=3),
            journal_root=tmp_path / "svc",
        ) as service:
            handles = {
                index: service.submit(
                    spec_for(
                        f"tenant-{index % 2}", f"c{index}", dataset, config
                    )
                )
                for index, (dataset, config) in campaigns.items()
            }
            service.run_until_idle()
            for index, handle in handles.items():
                assert handle.status is CampaignStatus.COMPLETED
                assert signature(service.result(handle)) == solo[index], (
                    f"campaign {index} diverged from its solo run"
                )
            assert service.ledger.open_reservations == 0
            assert service.ledger.committed == pytest.approx(
                sum(handle.spent for handle in handles.values())
            )
            assert_no_leaks(service)

    def test_weighted_fair_scheduling_rates(self, tmp_path):
        """A weight-2 campaign is served twice as often as a weight-1
        campaign while both are runnable — the stride pattern exactly."""
        dataset = make_dataset(seed=31)
        with CampaignService(
            100.0, journal_root=tmp_path / "svc"
        ) as service:
            service.submit(
                spec_for(
                    "heavy", "h", dataset, make_config(seed=1, budget=24.0),
                    weight=2.0,
                )
            )
            service.submit(
                spec_for(
                    "light", "l", dataset, make_config(seed=2, budget=24.0),
                    weight=1.0,
                )
            )
            picks = [service.step()["campaign"] for _ in range(9)]
            assert picks.count("heavy/h") == 6
            assert picks.count("light/l") == 3
            service.run_until_idle()
            assert_no_leaks(service)

    def test_journal_carries_the_tenant_identity(self, tmp_path):
        from repro.core.serialization import read_journal

        dataset = make_dataset(seed=32)
        with CampaignService(
            50.0, journal_root=tmp_path / "svc"
        ) as service:
            handle = service.submit(
                spec_for(
                    "acme", "job", dataset, make_config(seed=0),
                    priority=2, weight=1.5,
                )
            )
            service.run_until_idle()
            records = read_journal(handle.journal_path)
        assert records[0]["kind"] == "header"
        assert records[0]["version"] == 9
        tenant_records = [
            record for record in records if record.get("kind") == "tenant"
        ]
        assert tenant_records == [
            {
                "kind": "tenant",
                "tenant": "acme",
                "name": "job",
                "priority": 2,
                "weight": 1.5,
            }
        ]
        # The tenant record precedes the first checkpoint, so resume's
        # trim can never drop it.
        kinds = [record.get("kind") for record in records[:3]]
        assert kinds == ["header", "tenant", "checkpoint"]


class TestDetachReattach:
    def test_detach_reattach_same_service(self, tmp_path):
        dataset = make_dataset(seed=40)
        config = make_config(seed=5)
        solo = solo_signature(dataset, config, tmp_path / "solo.jsonl")
        with CampaignService(
            50.0, journal_root=tmp_path / "svc"
        ) as service:
            spec = spec_for("acme", "job", dataset, config)
            handle = service.submit(spec)
            for _ in range(2):
                service.step()
            service.detach(handle)
            assert handle.status is CampaignStatus.DETACHED
            assert service.step() is None  # nothing else to run
            service.attach(spec)
            service.run_until_idle()
            assert signature(service.result(handle)) == solo
            assert_no_leaks(service)

    def test_service_restart_reattach_is_byte_identical(self, tmp_path):
        """Kill the whole service mid-campaign; a fresh service attaches
        the journals and finishes them — results bit-identical to solo
        and journal bytes identical to an uninterrupted service run."""
        datasets = {name: make_dataset(seed=50 + index)
                    for index, name in enumerate(("a", "b"))}
        configs = {"a": make_config(seed=1), "b": make_config(seed=2)}
        solo = {
            name: solo_signature(
                datasets[name], configs[name], tmp_path / f"solo-{name}.jsonl"
            )
            for name in datasets
        }

        def specs(root_unused=None):
            return {
                name: spec_for("acme", name, datasets[name], configs[name])
                for name in datasets
            }

        # Reference: the same two campaigns on one uninterrupted service.
        with CampaignService(
            60.0, journal_root=tmp_path / "ref"
        ) as reference:
            for spec in specs().values():
                reference.submit(spec)
            reference.run_until_idle()
        reference_bytes = {
            name: (tmp_path / "ref" / "acme" / f"{name}.jsonl").read_bytes()
            for name in datasets
        }

        first = CampaignService(60.0, journal_root=tmp_path / "svc")
        for spec in specs().values():
            first.submit(spec)
        for _ in range(3):
            first.step()
        first.close()  # the "crash": deposits returned, journals survive

        with CampaignService(
            60.0, journal_root=tmp_path / "svc"
        ) as second:
            handles = {
                name: second.attach(spec)
                for name, spec in specs().items()
            }
            service_committed = second.ledger.committed
            assert service_committed > 0  # pre-restart spend re-committed
            second.run_until_idle()
            for name, handle in handles.items():
                assert handle.status is CampaignStatus.COMPLETED
                assert signature(second.result(handle)) == solo[name]
                journal = tmp_path / "svc" / "acme" / f"{name}.jsonl"
                assert journal.read_bytes() == reference_bytes[name]
            assert_no_leaks(second)

    def test_detach_of_pending_campaign_keeps_deposit(self, tmp_path):
        dataset = make_dataset(seed=41)
        with CampaignService(
            50.0, journal_root=tmp_path / "svc"
        ) as service:
            spec = spec_for("acme", "queued", dataset, make_config(seed=0))
            handle = service.submit(spec)
            service.detach(handle)
            assert handle.status is CampaignStatus.DETACHED
            assert service.ledger.outstanding == pytest.approx(12.0)
            service.attach(spec)
            service.run_until_idle()
            assert handle.status is CampaignStatus.COMPLETED


class TestFaultIsolation:
    def test_persistent_failure_quarantines_without_spending(self, tmp_path):
        """A tenant whose collection infrastructure always throws burns
        its strikes and is quarantined — deposit intact, the healthy
        tenant bit-identical, no reservation leaked."""

        class ExplodingSource:
            def collect(self, queries, experts):
                raise RuntimeError("collector burned down")

        broken_dataset = make_dataset(seed=70)
        healthy_dataset = make_dataset(seed=71)
        healthy_config = make_config(seed=1)
        solo = solo_signature(
            healthy_dataset, healthy_config, tmp_path / "solo.jsonl"
        )
        with CampaignService(
            50.0,
            policy=ServicePolicy(max_strikes=2),
            journal_root=tmp_path / "svc",
        ) as service:
            broken = service.submit(
                spec_for(
                    "bad", "job", broken_dataset, make_config(seed=0),
                    source_factory=lambda spec: ExplodingSource(),
                )
            )
            healthy = service.submit(
                spec_for("good", "job", healthy_dataset, healthy_config)
            )
            service.run_until_idle()
            assert broken.status is CampaignStatus.QUARANTINED
            assert broken.strikes == 2
            assert "collector burned down" in broken.error
            with pytest.raises(CampaignQuarantinedError):
                service.result(broken)
            # The deposit still holds the quarantined campaign's claim
            # (one open reservation by design — not a leak).
            assert service.ledger.outstanding == pytest.approx(12.0)
            assert service.ledger.open_reservations == 1
            assert healthy.status is CampaignStatus.COMPLETED
            assert signature(service.result(healthy)) == solo
            # Operator remediation: re-attach with a repaired source.
            fixed = service.attach(
                spec_for("bad", "job", broken_dataset, make_config(seed=0))
            )
            service.run_until_idle()
            assert fixed.status is CampaignStatus.COMPLETED
            assert signature(service.result(fixed)) == solo_signature(
                broken_dataset, make_config(seed=0),
                tmp_path / "solo-fixed.jsonl",
            )
            assert_no_leaks(service)

    def test_round_deadline_overrun_strikes_but_keeps_the_round(
        self, tmp_path
    ):
        dataset = make_dataset(seed=72)
        config = make_config(seed=3)
        solo = solo_signature(dataset, config, tmp_path / "solo.jsonl")
        first = CampaignService(
            50.0,
            policy=ServicePolicy(round_deadline=1e-9, max_strikes=1),
            journal_root=tmp_path / "svc",
        )
        spec = spec_for("slow", "job", dataset, config)
        handle = first.submit(spec)
        info = first.step()
        assert "deadline" in info["error"]
        assert handle.status is CampaignStatus.QUARANTINED
        # The overrunning round itself committed and was journaled.
        assert handle.rounds == 1
        first.close()
        # A service without the aggressive deadline finishes the rest
        # byte-identically — the strike lost no work.
        with CampaignService(
            50.0, journal_root=tmp_path / "svc"
        ) as second:
            resumed = second.attach(spec)
            second.run_until_idle()
            assert signature(second.result(resumed)) == solo
            assert_no_leaks(second)


class TestBackpressure:
    def test_saturation_rejects_then_sheds_for_priority(self, tmp_path):
        dataset = make_dataset(seed=80)
        with CampaignService(
            25.0,
            policy=ServicePolicy(slots=1, queue_limit=2),
            journal_root=tmp_path / "svc",
        ) as service:
            first = service.submit(
                spec_for("acme", "c0", dataset, make_config(seed=0, budget=10.0))
            )
            service.step()  # activate c0 so it occupies the slot
            queued = service.submit(
                spec_for("acme", "c1", dataset, make_config(seed=1, budget=10.0))
            )
            # 20 of 25 deposited; a third 10.0 campaign cannot deposit
            # and has no lower-priority victim available.
            with pytest.raises(ServiceSaturatedError) as saturated:
                service.submit(
                    spec_for(
                        "acme", "c2", dataset, make_config(seed=2, budget=10.0)
                    )
                )
            assert saturated.value.reason == "ledger"
            # Higher priority work sheds the queued campaign instead.
            urgent = service.submit(
                spec_for(
                    "acme", "c3", dataset,
                    make_config(seed=3, budget=10.0), priority=1,
                )
            )
            assert queued.status is CampaignStatus.SHED
            service.run_until_idle()
            assert first.status is CampaignStatus.COMPLETED
            assert urgent.status is CampaignStatus.COMPLETED
            stats = service.stats()
            assert stats["admission"]["rejected_ledger"] == 1
            assert stats["admission"]["shed"] == 1
            assert service.ledger.committed == pytest.approx(
                first.spent + urgent.spent
            )
            assert_no_leaks(service)

    def test_full_queue_rejection_is_side_effect_free(self, tmp_path):
        dataset = make_dataset(seed=81)
        with CampaignService(
            100.0,
            policy=ServicePolicy(slots=1, queue_limit=1),
            journal_root=tmp_path / "svc",
        ) as service:
            service.submit(
                spec_for("acme", "c0", dataset, make_config(seed=0))
            )
            service.step()
            service.submit(
                spec_for("acme", "c1", dataset, make_config(seed=1))
            )
            before = service.ledger.as_dict()
            with pytest.raises(ServiceSaturatedError) as saturated:
                service.submit(
                    spec_for("acme", "c2", dataset, make_config(seed=2))
                )
            assert saturated.value.reason == "queue"
            assert service.ledger.as_dict() == before
            with pytest.raises(UnknownCampaignError):
                service.status("acme/c2")

    def test_tenant_quota_enforced_at_submit(self, tmp_path):
        dataset = make_dataset(seed=82)
        with CampaignService(
            100.0,
            quotas={"capped": TenantQuota(max_active=1)},
            journal_root=tmp_path / "svc",
        ) as service:
            service.submit(
                spec_for("capped", "c0", dataset, make_config(seed=0))
            )
            with pytest.raises(QuotaExceededError):
                service.submit(
                    spec_for("capped", "c1", dataset, make_config(seed=1))
                )
            # Other tenants are unaffected.
            service.submit(
                spec_for("free", "c0", dataset, make_config(seed=2))
            )
            service.run_until_idle()
            assert_no_leaks(service)


class TestLifecycle:
    def test_duplicate_submit_rejected(self, tmp_path):
        dataset = make_dataset(seed=90)
        with CampaignService(
            50.0, journal_root=tmp_path / "svc"
        ) as service:
            spec = spec_for("acme", "job", dataset, make_config(seed=0))
            service.submit(spec)
            with pytest.raises(CampaignStateError, match="already"):
                service.submit(spec)

    def test_submit_over_existing_journal_points_to_attach(self, tmp_path):
        dataset = make_dataset(seed=91)
        spec = spec_for("acme", "job", dataset, make_config(seed=0))
        with CampaignService(
            50.0, journal_root=tmp_path / "svc"
        ) as service:
            service.submit(spec)
            service.run_until_idle()
        with CampaignService(
            50.0, journal_root=tmp_path / "svc"
        ) as fresh:
            with pytest.raises(CampaignStateError, match="attach"):
                fresh.submit(spec)

    def test_unknown_campaign_raises(self, tmp_path):
        with CampaignService(
            50.0, journal_root=tmp_path / "svc"
        ) as service:
            with pytest.raises(UnknownCampaignError):
                service.result("ghost/none")
            with pytest.raises(UnknownCampaignError):
                service.detach("ghost/none")

    def test_result_before_completion_raises(self, tmp_path):
        dataset = make_dataset(seed=92)
        with CampaignService(
            50.0, journal_root=tmp_path / "svc"
        ) as service:
            handle = service.submit(
                spec_for("acme", "job", dataset, make_config(seed=0))
            )
            with pytest.raises(CampaignStateError, match="not completed"):
                service.result(handle)

    def test_attach_without_journal_raises(self, tmp_path):
        dataset = make_dataset(seed=93)
        with CampaignService(
            50.0, journal_root=tmp_path / "svc"
        ) as service:
            with pytest.raises(UnknownCampaignError):
                service.attach(
                    spec_for("acme", "lost", dataset, make_config(seed=0))
                )

    def test_campaigns_need_a_journal_home(self, tmp_path):
        dataset = make_dataset(seed=94)
        with CampaignService(50.0) as service:  # no journal_root
            with pytest.raises(ValueError, match="journal"):
                service.submit(
                    spec_for("acme", "job", dataset, make_config(seed=0))
                )

    def test_closed_service_refuses_work(self, tmp_path):
        dataset = make_dataset(seed=95)
        service = CampaignService(50.0, journal_root=tmp_path / "svc")
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            service.submit(
                spec_for("acme", "job", dataset, make_config(seed=0))
            )
        service.close()  # idempotent

    def test_close_returns_unfinished_deposits(self, tmp_path):
        dataset = make_dataset(seed=96)
        service = CampaignService(50.0, journal_root=tmp_path / "svc")
        running = service.submit(
            spec_for("acme", "running", dataset, make_config(seed=0))
        )
        service.step()
        service.submit(
            spec_for("acme", "queued", dataset, make_config(seed=1))
        )
        assert service.ledger.outstanding == pytest.approx(24.0)
        service.close()
        assert service.ledger.open_reservations == 0
        # What the running campaign actually spent stays spent? No —
        # unfinished deposits are *released*; only completed campaigns
        # commit.  The journal keeps the truth for a future attach.
        assert service.ledger.committed == 0.0
        assert running.status is CampaignStatus.DETACHED


class TestPoolGauges:
    @pytest.fixture(autouse=True)
    def _obs_enabled(self):
        OBS.reset()
        OBS.enable()
        yield
        OBS.reset()

    def test_ledger_gauges_are_the_pool_books_after_every_step(
        self, tmp_path
    ):
        """The unlabelled ``repro_ledger_*`` gauges describe the
        service pool: no campaign keeps a book of its own that
        overwrites them between steps."""
        keys = ("committed", "outstanding", "available", "open_reservations")
        with CampaignService(100.0, journal_root=tmp_path / "svc") as service:
            for tenant, seed in (("acme", 0), ("globex", 1)):
                service.submit(
                    spec_for(
                        tenant, "job", make_dataset(seed=80 + seed),
                        make_config(seed=seed),
                    )
                )
            steps = 0
            while service.step() is not None:
                steps += 1
                books = dict(
                    service.ledger.as_dict(),
                    available=service.ledger.available,
                )
                gauges = {
                    key: OBS.registry.get(f"repro_ledger_{key}")
                    .labels()
                    .value
                    for key in keys
                }
                assert gauges == {key: books[key] for key in keys}, steps
            assert steps > 2
            assert service.ledger.committed > 0


class TestSpecValidation:
    """Malformed specs fail at construction, before admission reserves
    a deposit.  Each case used to be admitted: ``jobs=0`` and a string
    priority failed every launch until quarantine, ``weight=0`` raised
    from the scheduler after the runtime launched (leaving ``close()``
    to die on the unscheduled campaign), and a NaN or infinite weight
    broke stride ordering."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return make_dataset(seed=97)

    def spec(self, dataset, **fields):
        return CampaignSpec(
            tenant="acme", name="job", dataset=dataset,
            config=make_config(seed=0), **fields,
        )

    def test_zero_jobs_rejected(self, dataset):
        with pytest.raises(ValueError, match="jobs"):
            self.spec(dataset, jobs=0)

    def test_non_integer_jobs_rejected(self, dataset):
        with pytest.raises(ValueError, match="jobs"):
            self.spec(dataset, jobs=2.0)

    def test_string_priority_rejected(self, dataset):
        with pytest.raises(ValueError, match="priority"):
            self.spec(dataset, priority="high")

    def test_zero_weight_rejected(self, dataset):
        with pytest.raises(ValueError, match="weight"):
            self.spec(dataset, weight=0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, dataset, weight):
        with pytest.raises(ValueError, match="weight"):
            self.spec(dataset, weight=weight)

    @pytest.mark.parametrize("field", ["jobs", "priority", "weight"])
    def test_booleans_rejected(self, dataset, field):
        with pytest.raises(ValueError, match=field):
            self.spec(dataset, **{field: True})

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), True])
    def test_tenant_quota_weight_must_be_finite_positive(self, weight):
        with pytest.raises(ValueError, match="weight"):
            TenantQuota(weight=weight)

    def test_valid_numbers_accepted(self, dataset):
        import numpy as np

        spec = self.spec(dataset, jobs=np.int64(2), priority=-3, weight=0.5)
        assert spec.jobs == 2 and spec.weight == 0.5
        assert TenantQuota(weight=2).weight == 2
