"""Per-round latency attribution: where did the wall-clock go.

Every instrumented phase is stamped into one histogram family,
``repro_phase_seconds{phase, tenant}`` (see
:meth:`repro.obs.Observability.phase`).  This module folds that family
into the question operators actually ask — *which phase dominates, and
at what tail* — as a per-phase breakdown (count, total seconds, share,
p50/p95/p99) overall and per tenant.  It runs equally off a live
registry or a ``--metrics-out`` JSON file, which is what the
``repro metrics`` subcommand renders.
"""

from __future__ import annotations

from .registry import MetricsRegistry, quantile_from_buckets

__all__ = ["PHASE_ORDER", "latency_report", "format_report"]

#: Canonical phase ordering for display: the round's data path first,
#: then the service-level phases.  Unknown phases sort after, by name.
PHASE_ORDER = (
    "select",
    "collect",
    "update",
    "journal",
    "admit",
    "seal",
    "round",
    "scheduler-wait",
)

PHASE_FAMILY = "repro_phase_seconds"


def _phase_sort_key(phase: str) -> tuple[int, str]:
    try:
        return (PHASE_ORDER.index(phase), phase)
    except ValueError:
        return (len(PHASE_ORDER), phase)


def _series_stats(series: dict) -> dict:
    count = series["count"]
    buckets = series["buckets"]
    return {
        "count": count,
        "total_seconds": series["sum"],
        "p50": quantile_from_buckets(buckets, count, 0.50),
        "p95": quantile_from_buckets(buckets, count, 0.95),
        "p99": quantile_from_buckets(buckets, count, 0.99),
    }


def _merge(into: dict, series: dict) -> dict:
    """Accumulate a snapshot histogram series into ``into`` (same
    fixed bounds everywhere, so buckets add elementwise)."""
    if not into:
        return {
            "count": series["count"],
            "sum": series["sum"],
            "buckets": [list(bucket) for bucket in series["buckets"]],
        }
    into["count"] += series["count"]
    into["sum"] += series["sum"]
    for merged, bucket in zip(into["buckets"], series["buckets"]):
        merged[1] += bucket[1]
    return into


def latency_report(source: MetricsRegistry | dict) -> dict:
    """Fold the phase histograms into a latency-attribution dict.

    Returns ``{"phases": [...], "tenants": {...}, "attributed_seconds"}``
    where each phase entry carries count / total seconds / share /
    p50 / p95 / p99.  The ``round`` and ``scheduler-wait`` phases are
    *excluded* from the share denominator — ``round`` envelopes the
    data-path phases and ``scheduler-wait`` is idle time, so counting
    either would double-book the attribution.
    """
    snapshot = (
        source.snapshot() if isinstance(source, MetricsRegistry) else source
    )
    family = snapshot.get("metrics", {}).get(PHASE_FAMILY)
    if family is None:
        return {"phases": [], "tenants": {}, "attributed_seconds": 0.0}

    by_phase: dict[str, dict] = {}
    by_tenant: dict[str, dict[str, dict]] = {}
    for series in family["series"]:
        phase = series["labels"].get("phase", "")
        tenant = series["labels"].get("tenant", "")
        by_phase[phase] = _merge(by_phase.get(phase, {}), series)
        if tenant:
            tenant_phases = by_tenant.setdefault(tenant, {})
            tenant_phases[phase] = _merge(
                tenant_phases.get(phase, {}), series
            )

    envelope_phases = {"round", "scheduler-wait"}
    attributed = sum(
        merged["sum"]
        for phase, merged in by_phase.items()
        if phase not in envelope_phases
    )

    def rows(phase_map: dict[str, dict]) -> list[dict]:
        out = []
        for phase in sorted(phase_map, key=_phase_sort_key):
            stats = _series_stats(phase_map[phase])
            stats["phase"] = phase
            stats["share"] = (
                stats["total_seconds"] / attributed
                if attributed > 0 and phase not in envelope_phases
                else 0.0
            )
            out.append(stats)
        return out

    return {
        "phases": rows(by_phase),
        "tenants": {
            tenant: rows(phases)
            for tenant, phases in sorted(by_tenant.items())
        },
        "attributed_seconds": attributed,
    }


def _format_rows(rows: list[dict], indent: str = "") -> list[str]:
    lines = [
        f"{indent}{'phase':<16} {'count':>7} {'total':>9} {'share':>6} "
        f"{'p50':>9} {'p95':>9} {'p99':>9}"
    ]
    for row in rows:
        share = f"{row['share'] * 100:5.1f}%" if row["share"] else "     -"
        lines.append(
            f"{indent}{row['phase']:<16} {row['count']:>7} "
            f"{row['total_seconds']:>8.3f}s {share} "
            f"{row['p50'] * 1000:>7.2f}ms {row['p95'] * 1000:>7.2f}ms "
            f"{row['p99'] * 1000:>7.2f}ms"
        )
    return lines


def format_report(report: dict, per_tenant: bool = True) -> str:
    """Human-readable latency-attribution table."""
    if not report["phases"]:
        return (
            "no phase latencies recorded (was the run started with "
            "--metrics-out / observability enabled?)"
        )
    lines = [
        "latency attribution "
        f"({report['attributed_seconds']:.3f}s attributed)"
    ]
    lines.extend(_format_rows(report["phases"]))
    if per_tenant and report["tenants"]:
        for tenant, rows in report["tenants"].items():
            lines.append(f"tenant {tenant}:")
            lines.extend(_format_rows(rows, indent="  "))
    return "\n".join(lines)
