"""Reading the program's own OBS registry next to the benchmark's spans.

The benchmark and the program's telemetry must never disagree, so the
traced run enables ``OBS`` and puts its phase totals beside the span
totals measured from outside; a pair whose two readings differ by more
than :data:`AGREEMENT` of the larger is flagged.
"""

from __future__ import annotations

from repro.obs import OBS, latency_report

#: Largest share by which a span total and its OBS counterpart may
#: differ before the traced run flags the layer.
AGREEMENT = 0.20

#: OBS phases reported as ``obs.phase.<name>_s``.
PHASES = ("select", "collect", "update", "commit", "journal", "admit", "seal")


def enable() -> None:
    """A fresh registry plus a tracer big enough to keep every span of
    one traced window."""
    OBS.reset()
    OBS.enable(trace_capacity=1 << 18)


def phase_totals() -> dict[str, float]:
    totals = {
        row["phase"]: row["total_seconds"]
        for row in latency_report(OBS.registry)["phases"]
    }
    return {phase: totals.get(phase, 0.0) for phase in (*PHASES, "round")}


def counters() -> dict[str, float]:
    """Flat totals the traced ``durable`` window is measured by; subtract
    two of these to get the window's share."""
    snapshot = OBS.registry.snapshot()
    out = {f"phase.{name}": value for name, value in phase_totals().items()}
    out["dispatch_s"] = total("repro_shard_dispatch_seconds", "sum",
                              snapshot)
    for key in ("entropy_evaluations", "prior_evaluations",
                "batch_evaluations", "sampled_evaluations", "heap_pops",
                "rounds"):
        out[f"selection.{key}"] = total(f"repro_selection_{key}_total",
                                        snapshot=snapshot)
    for key in ("admitted", "forced_seals", "late_dropped"):
        out[f"stream.{key}"] = total(f"repro_stream_{key}_total",
                                     snapshot=snapshot)
    for entry in series("repro_shard_busy_seconds_total", snapshot):
        key = f"busy.{entry['labels'].get('shard', '')}"
        out[key] = out.get(key, 0.0) + entry["value"]
    return out


def series(name: str, snapshot: dict | None = None) -> list[dict]:
    snapshot = snapshot or OBS.registry.snapshot()
    family = snapshot["metrics"].get(name)
    return family["series"] if family is not None else []


def total(name: str, field: str = "value",
          snapshot: dict | None = None) -> float:
    return float(sum(entry[field] for entry in series(name, snapshot)))


def contained(name: str, windows) -> float:
    """Seconds of OBS spans called ``name`` that start inside one of the
    ``(start, end)`` windows (both clocks are ``perf_counter``)."""
    spans = sorted(
        (span["start"], span["duration"])
        for span in OBS.tracer.spans() if span["name"] == name
    )
    windows = sorted(windows)
    covered, index = 0.0, 0
    for start, duration in spans:
        while index < len(windows) and windows[index][1] < start:
            index += 1
        if index < len(windows) and windows[index][0] <= start:
            covered += duration
    return covered


def cross_check(pairs) -> list[str]:
    """Lines ``layer  bench  obs  diff  [DISAGREE]`` for ``(layer,
    bench_seconds, obs_seconds)`` pairs."""
    lines = [f"{'layer':<22} {'bench s':>9} {'obs s':>9} {'diff':>7}"]
    for layer, bench, obs in pairs:
        larger = max(bench, obs)
        diff = abs(bench - obs) / larger if larger > 0 else 0.0
        flag = "  DISAGREE" if diff > AGREEMENT else ""
        lines.append(
            f"{layer:<22} {bench:>9.4f} {obs:>9.4f} {diff:>6.1%}{flag}"
        )
    return lines


def layer_shares(round_s: float, selection: float, update: float,
                 record: float, journal: float, shards: float) -> str:
    """One line of the layers' shares of round time, in the same terms
    on every workload so they can be set side by side."""
    return (
        f"layer shares of round time: core.selection {selection / round_s:.1%}"
        f", core.update {update / round_s:.1%} (core.hc.record "
        f"{record / round_s:.1%}), journal {journal / round_s:.1%}, "
        f"engine.shards {shards / round_s:.1%}"
    )
