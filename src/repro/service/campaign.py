"""Campaign identity, lifecycle state, and the client-facing handle.

A campaign inside the service is addressed by ``tenant/name``.  Its
identity is journaled as a ``{"kind": "tenant"}`` record (format
version 6) right after the journal header, so a journal found on disk
after a whole-service restart still knows which tenant owns it, at what
priority, and with what scheduling weight — :meth:`CampaignService.attach`
re-admits it under the same identity.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from ..datasets.schema import CrowdLabelingDataset
from ..simulation.oracle import SimulatedExpertPanel
from ..simulation.resilient import ResilientRunResult
from ..simulation.session import SessionConfig


class CampaignStatus(Enum):
    """Where a campaign sits in the service lifecycle.

    ``PENDING → ACTIVE → COMPLETED`` is the happy path.  ``DETACHED``
    campaigns hold their deposit but no runtime (client disconnected,
    or a fault strike tore the runtime down for a journal rebuild);
    ``SHED`` campaigns were evicted from the admission queue by
    higher-priority work before ever running; ``QUARANTINED`` campaigns
    exhausted their fault strikes and are parked — deposit intact —
    until an operator re-attaches them.
    """

    PENDING = "pending"
    ACTIVE = "active"
    DETACHED = "detached"
    COMPLETED = "completed"
    SHED = "shed"
    QUARANTINED = "quarantined"


@dataclass
class CampaignSpec:
    """Everything the service needs to run (or re-run) one campaign.

    Parameters
    ----------
    tenant, name:
        The campaign's identity; ``tenant/name`` must be unique among
        live campaigns.
    dataset, config:
        As in :func:`~repro.simulation.session.run_hc_session`.
        ``config.journal_path`` may be left unset — the service derives
        ``journal_root/tenant/name.jsonl``.
    jobs, inline:
        Select nothing: service campaigns always journal, so they never
        take the threaded collection path of
        :func:`~repro.engine.runner.run_parallel_hc_session`.  Kept for
        callers written against the removed process-shard engine (the
        benchmark's ``durable`` workload passes ``jobs=2,
        inline=False``); ``jobs`` is still checked to be an int >= 1.
    priority:
        Admission priority, an int; larger values are more important.
        Under saturation, strictly lower-priority *pending* campaigns
        are shed to make room.
    weight:
        Scheduling weight, finite and > 0 (service rate is
        proportional to it); ``None`` inherits the tenant quota's
        weight.
    source_factory:
        ``spec -> answer source`` building the *raw* (pre-fault-wrap)
        source; used at launch and again at every re-attach, after
        which the journaled source state rewinds it.  Defaults to the
        simulator panel every solo entry point builds.
    stream:
        Optional :class:`~repro.stream.runtime.StreamSpec`.  When set,
        the campaign runs as a :class:`~repro.stream.runtime
        .StreamingCampaign` fed by an event log generated from the
        dataset: each service step consumes ``events_per_step``
        delivery slots instead of one checking round.
    """

    tenant: str
    name: str
    dataset: CrowdLabelingDataset
    config: SessionConfig
    jobs: int = 1
    priority: int = 0
    weight: float | None = None
    inline: bool = True
    source_factory: Callable[["CampaignSpec"], object] | None = None
    stream: object | None = None

    def __post_init__(self) -> None:
        if not self.tenant or "/" in self.tenant:
            raise ValueError("tenant must be non-empty and '/'-free")
        if not self.name or "/" in self.name:
            raise ValueError("campaign name must be non-empty and '/'-free")
        # Checked here, before admission reserves a deposit: a bad
        # value would otherwise fail only once the campaign launched.
        if not _is_int(self.jobs) or self.jobs < 1:
            raise ValueError(f"jobs must be an int >= 1, got {self.jobs!r}")
        if not _is_int(self.priority):
            raise ValueError(f"priority must be an int, got {self.priority!r}")
        if self.weight is not None:
            check_weight(self.weight)

    @property
    def campaign_id(self) -> str:
        return f"{self.tenant}/{self.name}"

    def build_source(self):
        """The raw answer source (the runtime adds fault wrapping)."""
        if self.source_factory is not None:
            return self.source_factory(self)
        return SimulatedExpertPanel(
            self.dataset.ground_truth,
            rng=np.random.default_rng(self.config.seed),
        )


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_weight(weight) -> None:
    """Reject a scheduling weight that is not a finite number > 0 (a
    NaN stride never compares, an infinite one never advances)."""
    if (
        not isinstance(weight, numbers.Real)
        or isinstance(weight, bool)
        or not math.isfinite(weight)
        or weight <= 0
    ):
        raise ValueError(
            f"weight must be a finite number > 0, got {weight!r}"
        )


def tenant_record(spec: CampaignSpec, weight: float) -> dict:
    """The ``{"kind": "tenant"}`` journal record for ``spec``."""
    return {
        "kind": "tenant",
        "tenant": spec.tenant,
        "name": spec.name,
        "priority": int(spec.priority),
        "weight": float(weight),
    }


@dataclass
class CampaignRecord:
    """The service's internal per-campaign state (not client-facing)."""

    spec: CampaignSpec
    config: SessionConfig  # spec.config with journal_path resolved
    journal_path: Path
    weight: float
    status: CampaignStatus = CampaignStatus.PENDING
    #: Spending already on the journal when this service admitted the
    #: campaign (non-zero only for attach-after-restart); the shared
    #: ledger deposit covers ``config.budget - base_spent``.
    base_spent: float = 0.0
    #: Whether the journal already has a launched session to resume
    #: (False exactly until the first successful activation).
    launched: bool = False
    strikes: int = 0
    rounds: int = 0
    spent: float = 0.0
    latencies: list = field(default_factory=list)
    runtime: dict | None = None
    result: ResilientRunResult | None = None
    error: str | None = None

    @property
    def campaign_id(self) -> str:
        return self.spec.campaign_id

    def identity_record(self) -> dict:
        return tenant_record(self.spec, self.weight)


def resolve_config(
    spec: CampaignSpec, journal_root: Path | None
) -> tuple[SessionConfig, Path]:
    """Resolve the campaign's journal path, without touching disk.

    Service campaigns always journal — detach/reattach and fault
    recovery rebuild from the journal, so a journal-less campaign would
    be unrecoverable the moment anything goes wrong.
    """
    config = spec.config
    if config.journal_path is not None:
        return config, Path(config.journal_path)
    if journal_root is None:
        raise ValueError(
            "service campaigns must journal: set config.journal_path or "
            "give the service a journal_root"
        )
    journal_path = Path(journal_root) / spec.tenant / f"{spec.name}.jsonl"
    return dataclasses.replace(config, journal_path=journal_path), journal_path


class CampaignHandle:
    """Read-only client view of one campaign inside the service.

    Handles stay valid across detach/reattach and service restarts are
    re-keyed by ``campaign_id``; all fields reflect the record live.
    """

    def __init__(self, record: CampaignRecord):
        self._record = record

    @property
    def campaign_id(self) -> str:
        return self._record.campaign_id

    @property
    def tenant(self) -> str:
        return self._record.spec.tenant

    @property
    def name(self) -> str:
        return self._record.spec.name

    @property
    def status(self) -> CampaignStatus:
        return self._record.status

    @property
    def journal_path(self) -> Path:
        return self._record.journal_path

    @property
    def rounds(self) -> int:
        return self._record.rounds

    @property
    def strikes(self) -> int:
        return self._record.strikes

    @property
    def spent(self) -> float:
        return self._record.spent

    @property
    def result(self) -> ResilientRunResult | None:
        return self._record.result

    @property
    def error(self) -> str | None:
        return self._record.error

    def __repr__(self) -> str:
        return (
            f"CampaignHandle({self.campaign_id!r}, "
            f"status={self.status.value}, rounds={self.rounds})"
        )
