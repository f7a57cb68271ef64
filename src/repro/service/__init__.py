"""The multi-tenant campaign service.

One long-lived :class:`CampaignService` hosts many tenants' campaigns
over a shared budget pool: deposit-based admission control with
per-tenant quotas (:mod:`~repro.service.admission`), weighted-fair
round scheduling (:mod:`~repro.service.scheduler`), bounded-queue
backpressure with priority shedding, and crash-safe detach/reattach
through the campaign journals.  Each campaign remains bit-identical to
its solo :func:`~repro.simulation.session.run_hc_session` run —
interleaving, other tenants' faults, detaches and whole-service
restarts included.
"""

from .admission import AdmissionController, TenantQuota
from .campaign import (
    CampaignHandle,
    CampaignSpec,
    CampaignStatus,
    tenant_record,
)
from .errors import (
    CampaignQuarantinedError,
    CampaignStateError,
    QuotaExceededError,
    ServiceError,
    ServiceSaturatedError,
    UnknownCampaignError,
)
from .recovery import RecoveredCampaign, RecoveryReport
from .scheduler import WeightedFairScheduler
from .service import CampaignService, ServicePolicy

__all__ = [
    "AdmissionController",
    "CampaignHandle",
    "CampaignQuarantinedError",
    "CampaignService",
    "CampaignSpec",
    "CampaignStateError",
    "CampaignStatus",
    "QuotaExceededError",
    "RecoveredCampaign",
    "RecoveryReport",
    "ServiceError",
    "ServicePolicy",
    "ServiceSaturatedError",
    "TenantQuota",
    "UnknownCampaignError",
    "WeightedFairScheduler",
    "tenant_record",
]
