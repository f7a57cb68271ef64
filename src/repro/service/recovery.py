"""Whole-service crash recovery from a directory of journals.

After a host crash nothing survives but the journal directory.
:meth:`~repro.service.service.CampaignService.recover` (implemented
here as :func:`recover_service`) turns that directory back into a
running multi-tenant service in one deterministic sweep:

1. **Scan** — every ``*.jsonl`` under the root, in sorted order, so
   two recoveries of the same directory make identical decisions.
2. **Salvage** — :func:`~repro.storage.integrity.recover_journal` on
   each journal: torn tails are trimmed, interior corruption (v8
   framing) is cut back to the longest verified prefix with the
   original bytes preserved in a ``.damaged`` sidecar.
3. **Triage** — a salvaged journal whose prefix still holds a
   checkpoint (or a streamed bootstrap's ``stream_checkpoint``) is
   *recoverable*; one damaged all the way into its bootstrap region is
   not — its remains are moved wholesale into the sidecar and the
   campaign starts over.
4. **Re-admit** — recoverable campaigns are re-attached (spending
   already on the journal is committed against the pool, only the
   remainder re-deposited — the same exact-:class:`fractions.Fraction`
   settlement as a voluntary reattach); reset campaigns are
   resubmitted fresh.  Campaigns with no spec on offer are reported as
   ``orphaned`` and left untouched for a later ``attach``.
5. **Audit** — the shared ledger's books are strict-audited
   (:meth:`~repro.engine.ledger.BudgetLedger.audit` with
   ``strict=True``); recovery refuses to hand back a service whose
   accounting already drifted.

The whole sweep is read-your-own-writes deterministic: same directory
bytes + same specs → same :class:`RecoveryReport`, same admission
order, same deposits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Mapping

from ..core.serialization import SerializationError, _fsync_directory
from ..obs import OBS
from ..storage.integrity import (
    DAMAGED_SIDECAR_SUFFIX,
    JournalDamageReport,
    recover_journal,
)
from .campaign import CampaignSpec, resolve_config
from .errors import ServiceError

__all__ = ["RecoveredCampaign", "RecoveryReport", "recover_service"]

#: Outcomes a scanned journal can land on, in decision order.
RECOVERY_OUTCOMES = ("reattached", "reset", "orphaned", "failed")


@dataclass(frozen=True)
class RecoveredCampaign:
    """One journal's fate in a recovery sweep."""

    campaign_id: str
    path: Path
    outcome: str  # one of RECOVERY_OUTCOMES
    base_spent: float = 0.0
    salvaged_bytes: int = 0
    sidecar: Path | None = None
    damage: tuple[str, ...] = ()
    error: str = ""

    def as_dict(self) -> dict:
        return {
            "campaign_id": self.campaign_id,
            "path": str(self.path),
            "outcome": self.outcome,
            "base_spent": self.base_spent,
            "salvaged_bytes": self.salvaged_bytes,
            "sidecar": str(self.sidecar) if self.sidecar else None,
            "damage": list(self.damage),
            "error": self.error,
        }


@dataclass
class RecoveryReport:
    """The verdict of one whole-service recovery sweep."""

    root: Path
    campaigns: list[RecoveredCampaign] = field(default_factory=list)
    ledger_books: list[dict] = field(default_factory=list)

    @property
    def scanned(self) -> int:
        return len(self.campaigns)

    def outcome(self, outcome: str) -> list[RecoveredCampaign]:
        return [c for c in self.campaigns if c.outcome == outcome]

    @property
    def reattached(self) -> list[RecoveredCampaign]:
        return self.outcome("reattached")

    @property
    def reset(self) -> list[RecoveredCampaign]:
        return self.outcome("reset")

    @property
    def orphaned(self) -> list[RecoveredCampaign]:
        return self.outcome("orphaned")

    @property
    def failed(self) -> list[RecoveredCampaign]:
        return self.outcome("failed")

    @property
    def clean(self) -> bool:
        """Every journal back in service, nothing orphaned or failed."""
        return all(
            c.outcome in ("reattached", "reset") for c in self.campaigns
        )

    @property
    def salvaged_bytes(self) -> int:
        return sum(c.salvaged_bytes for c in self.campaigns)

    def as_dict(self) -> dict:
        return {
            "root": str(self.root),
            "scanned": self.scanned,
            "clean": self.clean,
            "salvaged_bytes": self.salvaged_bytes,
            "outcomes": {
                outcome: len(self.outcome(outcome))
                for outcome in RECOVERY_OUTCOMES
            },
            "campaigns": [c.as_dict() for c in self.campaigns],
            "ledger_books": self.ledger_books,
        }


def _identity(
    report: JournalDamageReport, path: Path, root: Path
) -> tuple[str, str]:
    """``(tenant, name)`` of a journal: the journaled tenant record
    when the verified prefix still has one, else the service's
    ``root/tenant/name.jsonl`` layout convention."""
    for record in reversed(report.records):
        if record.get("kind") == "tenant":
            tenant = record.get("tenant")
            name = record.get("name")
            if tenant is not None and name is not None:
                return str(tenant), str(name)
    try:
        relative = path.relative_to(root)
    except ValueError:
        relative = Path(path.name)
    if len(relative.parts) >= 2:
        return relative.parts[-2], path.stem
    return "", path.stem


def _recoverable(report: JournalDamageReport) -> bool:
    """A salvaged prefix supports reattach iff it still proves some
    durable progress point (the same rule ``attach`` enforces)."""
    return any(
        record.get("kind") in ("checkpoint", "stream_checkpoint")
        for record in report.records
    )


def _retire_journal(path: Path, report: JournalDamageReport) -> Path:
    """Move an unrecoverable journal's remains into its sidecar.

    :func:`recover_journal` already preserved the pre-salvage bytes
    when the damage went beyond a torn tail; a journal that is
    *unusable* for subtler reasons (e.g. its bootstrap region never
    made it to disk) gets one written here, so no bytes are ever lost
    to a reset.  The journal itself is removed — the reset campaign
    restarts from a fresh file.
    """
    sidecar = report.sidecar
    if sidecar is None:
        sidecar = path.with_name(path.name + DAMAGED_SIDECAR_SUFFIX)
        sidecar.write_bytes(path.read_bytes())
    path.unlink()
    _fsync_directory(path.parent)
    return sidecar


def recover_service(
    service,
    journal_root: "str | Path | None" = None,
    *,
    specs: "Iterable[CampaignSpec] | Mapping[str, CampaignSpec] | None" = None,
    spec_factory: "Callable[[str, str], CampaignSpec | None] | None" = None,
    strict: bool = True,
) -> RecoveryReport:
    """Body of :meth:`CampaignService.recover`; see the module docstring.

    ``specs`` maps ``campaign_id`` (``tenant/name``) to the spec used
    to re-admit that campaign; ``spec_factory(tenant, name)`` is
    consulted for anything not covered and may return ``None`` to
    leave the journal orphaned.  With ``strict=True`` (default) a
    post-sweep :class:`~repro.engine.ledger.LedgerDriftError` or a
    failed/unsalvageable campaign is *reported*, not raised — strict
    gates only the ledger audit.
    """
    root = Path(journal_root) if journal_root is not None else None
    if root is None:
        root = service._journal_root
    if root is None:
        raise ValueError(
            "recover() needs a journal directory: pass journal_root or "
            "construct the service with one"
        )
    spec_map: dict[str, CampaignSpec] = {}
    if specs is not None:
        if isinstance(specs, Mapping):
            spec_map.update(specs)
        else:
            spec_map.update({spec.campaign_id: spec for spec in specs})
    report = RecoveryReport(root=root)
    paths = sorted(root.rglob("*.jsonl"), key=lambda p: str(p)) if (
        root.exists()
    ) else []
    for path in paths:
        report.campaigns.append(
            _recover_one(service, path, root, spec_map, spec_factory)
        )
    if strict:
        report.ledger_books = service.ledger.audit(strict=True)
    else:
        report.ledger_books = service.ledger.audit()
    _publish(report)
    return report


def _recover_one(
    service,
    path: Path,
    root: Path,
    spec_map: dict[str, CampaignSpec],
    spec_factory,
) -> RecoveredCampaign:
    try:
        damage_report = recover_journal(path)
    except OSError as error:
        return RecoveredCampaign(
            campaign_id=f"?/{path.stem}",
            path=path,
            outcome="failed",
            error=f"unreadable journal: {error}",
        )
    tenant, name = _identity(damage_report, path, root)
    campaign_id = f"{tenant}/{name}"
    spec = spec_map.get(campaign_id)
    if spec is None and spec_factory is not None:
        spec = spec_factory(tenant, name)
    recoverable = _recoverable(damage_report)
    verdict = partial(
        RecoveredCampaign,
        campaign_id=campaign_id,
        path=path,
        salvaged_bytes=damage_report.salvaged_bytes,
        # Damaged into the bootstrap region: nothing on the journal
        # proves any progress, so the campaign starts over.
        sidecar=(
            damage_report.sidecar
            if recoverable
            else _retire_journal(path, damage_report)
        ),
        damage=tuple(entry.kind for entry in damage_report.damage),
    )
    if spec is None:
        return verdict(
            outcome="orphaned",
            error=(
                "no spec on offer; attach() later to re-admit"
                if recoverable
                else "no spec to resubmit the reset campaign"
            ),
        )
    try:
        if not recoverable:
            service.submit(spec)
            return verdict(outcome="reset")
        _config, resolved_path = resolve_config(spec, service._journal_root)
        if resolved_path != path:
            raise ServiceError(
                f"spec for {campaign_id} resolves to {resolved_path}, "
                f"not the scanned journal {path}"
            )
        # The sweep's salvage is the attach's read.
        handle = service._attach(spec, damage_report)
    except (ServiceError, SerializationError, ValueError) as error:
        return verdict(outcome="failed", error=str(error))
    return verdict(
        outcome="reattached",
        base_spent=service._records[handle.campaign_id].base_spent,
    )


def _publish(report: RecoveryReport) -> None:
    if not OBS.enabled:
        return
    counter = OBS.registry.counter(
        "repro_recovery_campaigns_total",
        "Journals processed by service recovery, by outcome",
        labels=("outcome",),
    )
    for campaign in report.campaigns:
        counter.labels(outcome=campaign.outcome).inc()
    OBS.registry.counter(
        "repro_recovery_sweeps_total",
        "Whole-service recovery sweeps",
    ).labels().inc()
