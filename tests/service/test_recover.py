"""Whole-service crash recovery: ``CampaignService.recover``.

The scenarios mirror what a host crash actually leaves behind: intact
journals mid-campaign (reattach), torn tails (trim, reattach), interior
corruption from a sick disk (salvage, reattach from the verified
prefix), corruption reaching into the bootstrap region (retire to the
sidecar, reset), and journals nobody offered a spec for (orphaned,
attachable later).  Throughout: byte-level determinism against solo
reference runs and exact ledger settlement.
"""

import pytest

from repro.core.serialization import read_journal
from repro.service import (
    CampaignService,
    CampaignSpec,
    CampaignStatus,
    RecoveryReport,
)

from .conftest import make_config, make_dataset, signature, solo_signature


def spec_for(tenant, name, dataset, config, **overrides):
    return CampaignSpec(
        tenant=tenant, name=name, dataset=dataset, config=config, **overrides
    )


def _crashed_service(tmp_path, steps=6, campaigns=2):
    """Run a few rounds of ``campaigns`` tenants, then drop the service
    without finishing — the journal directory is what a crash leaves."""
    root = tmp_path / "svc"
    specs = []
    for index in range(campaigns):
        dataset = make_dataset(seed=40 + index)
        config = make_config(seed=index, budget=20.0)
        specs.append(spec_for(f"tenant{index}", "job", dataset, config))
    service = CampaignService(100.0, journal_root=root)
    for spec in specs:
        service.submit(spec)
    for _ in range(steps):
        service.step()
    service.close()
    return root, specs


class TestRecoverScenarios:
    def test_reattaches_and_finishes_bit_identical(self, tmp_path):
        root, specs = _crashed_service(tmp_path)
        solo = {
            spec.campaign_id: solo_signature(
                spec.dataset, spec.config,
                tmp_path / f"solo-{spec.tenant}.jsonl",
            )
            for spec in specs
        }
        with CampaignService(100.0, journal_root=root) as service:
            report = service.recover(specs=specs)
            assert isinstance(report, RecoveryReport)
            assert report.clean
            assert {c.campaign_id for c in report.reattached} == {
                spec.campaign_id for spec in specs
            }
            # progress on the journal is money already spent
            assert all(c.base_spent > 0 for c in report.reattached)
            service.run_until_idle()
            for spec in specs:
                handle = service.handle(spec.campaign_id)
                assert handle.status is CampaignStatus.COMPLETED
                assert (
                    signature(service.result(handle))
                    == solo[spec.campaign_id]
                )
            assert service.ledger.audit(strict=True) == []

    def test_torn_tail_is_trimmed_then_reattached(self, tmp_path):
        root, specs = _crashed_service(tmp_path, steps=4, campaigns=1)
        path = root / "tenant0" / "job.jsonl"
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])  # crash mid-append
        with CampaignService(100.0, journal_root=root) as service:
            report = service.recover(specs=specs)
            [campaign] = report.reattached
            assert campaign.salvaged_bytes > 0
            assert campaign.damage == ("torn_tail",)
            assert campaign.sidecar is None
            service.run_until_idle()
            handle = service.handle(specs[0].campaign_id)
            assert handle.status is CampaignStatus.COMPLETED

    def test_interior_corruption_reattaches_from_the_prefix(self, tmp_path):
        root, specs = _crashed_service(tmp_path, steps=6, campaigns=1)
        path = root / "tenant0" / "job.jsonl"
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        # flip a bit in the final line: the prefix keeps checkpoints
        victim = len(lines) - 1
        broken = bytearray(lines[victim])
        broken[len(broken) // 2] ^= 0x08
        lines[victim] = bytes(broken)
        path.write_bytes(b"".join(lines))
        with CampaignService(100.0, journal_root=root) as service:
            report = service.recover(specs=specs)
            [campaign] = report.reattached
            assert campaign.salvaged_bytes > 0
            service.run_until_idle()
            handle = service.handle(specs[0].campaign_id)
            assert handle.status is CampaignStatus.COMPLETED
            solo = solo_signature(
                specs[0].dataset, specs[0].config, tmp_path / "solo.jsonl"
            )
            assert signature(service.result(handle)) == solo

    def test_bootstrap_damage_resets_with_evidence(self, tmp_path):
        root, specs = _crashed_service(tmp_path, steps=5, campaigns=1)
        path = root / "tenant0" / "job.jsonl"
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        # corrupt line 2: the verified prefix ends before any checkpoint
        lines[1] = b'{"kind": mangled\n'
        damaged = b"".join(lines)
        path.write_bytes(damaged)
        with CampaignService(100.0, journal_root=root) as service:
            report = service.recover(specs=specs)
            [campaign] = report.reset
            assert campaign.campaign_id == specs[0].campaign_id
            # evidence preserved, fresh journal started
            assert campaign.sidecar is not None
            assert campaign.sidecar.read_bytes() == damaged
            service.run_until_idle()
            handle = service.handle(specs[0].campaign_id)
            assert handle.status is CampaignStatus.COMPLETED
            # the reset run is the campaign from scratch: same result
            solo = solo_signature(
                specs[0].dataset, specs[0].config, tmp_path / "solo.jsonl"
            )
            assert signature(service.result(handle)) == solo

    def test_unoffered_journal_is_orphaned_then_attachable(self, tmp_path):
        root, specs = _crashed_service(tmp_path, campaigns=2)
        offered = [specs[0]]
        with CampaignService(100.0, journal_root=root) as service:
            report = service.recover(specs=offered)
            assert len(report.reattached) == 1
            [orphan] = report.orphaned
            assert orphan.campaign_id == specs[1].campaign_id
            # the orphan's journal is untouched and still attachable
            assert (root / "tenant1" / "job.jsonl").exists()
            service.attach(specs[1])
            service.run_until_idle()
            for spec in specs:
                handle = service.handle(spec.campaign_id)
                assert handle.status is CampaignStatus.COMPLETED

    def test_spec_factory_fills_the_gaps(self, tmp_path):
        root, specs = _crashed_service(tmp_path, campaigns=2)
        by_id = {spec.campaign_id: spec for spec in specs}

        def factory(tenant, name):
            return by_id.get(f"{tenant}/{name}")

        with CampaignService(100.0, journal_root=root) as service:
            report = service.recover(spec_factory=factory)
            assert report.clean
            assert len(report.reattached) == 2

    def test_empty_root_is_a_clean_sweep(self, tmp_path):
        root = tmp_path / "svc"
        root.mkdir()
        with CampaignService(50.0, journal_root=root) as service:
            report = service.recover()
            assert report.scanned == 0
            assert report.clean
            assert report.ledger_books == []

    def test_recover_needs_a_root(self, tmp_path):
        with CampaignService(50.0) as service:
            with pytest.raises(ValueError, match="journal directory"):
                service.recover()

    def test_sweep_is_deterministic(self, tmp_path):
        import shutil

        root, specs = _crashed_service(tmp_path)
        # damage one journal so every outcome class is exercised
        path = root / "tenant1" / "job.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"kind": mangled\n'
        path.write_bytes(b"".join(lines))
        twin = tmp_path / "twin"
        shutil.copytree(root, twin)

        def sweep(directory):
            with CampaignService(100.0, journal_root=directory) as service:
                report = service.recover(specs=specs)
                return [
                    (c.campaign_id, c.outcome, c.salvaged_bytes, c.damage)
                    for c in report.campaigns
                ]

        assert sweep(root) == sweep(twin)

    def test_report_as_dict_round_trips_to_json(self, tmp_path):
        import json

        root, specs = _crashed_service(tmp_path, campaigns=1)
        with CampaignService(100.0, journal_root=root) as service:
            report = service.recover(specs=specs)
            payload = json.loads(json.dumps(report.as_dict()))
            assert payload["scanned"] == 1
            assert payload["outcomes"]["reattached"] == 1

    def test_recovered_journal_reads_clean_after_completion(self, tmp_path):
        root, specs = _crashed_service(tmp_path, campaigns=1)
        with CampaignService(100.0, journal_root=root) as service:
            service.recover(specs=specs)
            service.run_until_idle()
        records = read_journal(root / "tenant0" / "job.jsonl")
        assert records[0]["version"] == 9
        assert records[-1]["kind"] == "checkpoint"
