"""Unified observability: deterministic tracing, metrics, attribution.

One process-wide :class:`Observability` facade (``OBS``) owns a
:class:`~repro.obs.registry.MetricsRegistry` and a tracer.  Engine,
service and stream code instrument their hot seams through two
patterns, both free when observability is off:

``with OBS.phase("select"):``
    Times a block into the ``repro_phase_seconds{phase, tenant}``
    histogram *and* the trace buffer.  Disabled, ``phase()`` returns a
    shared no-op context manager — one attribute check, no allocation.

``if OBS.enabled: ...``
    Guards anything beyond a timer (publishing stats deltas, setting
    gauges) so the disabled path stays out of the profile entirely.

The hard contract, enforced by ``tests/obs/test_zero_perturbation.py``:
enabling any of this never touches an RNG stream and never changes a
journal byte.  Everything here observes; nothing decides.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from .export import (
    load_snapshot,
    render_json,
    render_prometheus,
    write_snapshot,
)
from .registry import (
    DEFAULT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .report import format_report, latency_report
from .trace import NullTracer, Tracer

__all__ = [
    "OBS",
    "Observability",
    "get_observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "NullTracer",
    "DEFAULT_BOUNDS",
    "render_prometheus",
    "render_json",
    "write_snapshot",
    "load_snapshot",
    "latency_report",
    "format_report",
]


class _NullPhase:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_PHASE = _NullPhase()


class _Phase:
    """A timed block: one histogram observation plus one trace span."""

    __slots__ = ("_obs", "_name", "_attrs", "_started")

    def __init__(self, obs: "Observability", name: str, attrs: dict):
        self._obs = obs
        self._name = name
        self._attrs = attrs

    def __enter__(self):
        tracer = self._obs.tracer
        if tracer.enabled:
            tracer._depth += 1
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        duration = time.perf_counter() - self._started
        obs = self._obs
        tracer = obs.tracer
        if tracer.enabled:
            tracer._depth -= 1
            attrs = dict(self._attrs)
            if obs.tenant:
                attrs.setdefault("tenant", obs.tenant)
            tracer._record(
                self._name, attrs, self._started, duration, tracer._depth
            )
        obs.observe_phase(self._name, duration)
        return False


class Observability:
    """Facade over one registry + one tracer; disabled by default."""

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer: Tracer | NullTracer = NullTracer()
        self.tenant = ""
        self._phase_family = None
        self._phase_children: dict = {}
        self._delta_children: dict = {}

    # -- lifecycle -----------------------------------------------------

    def enable(
        self, trace_path=None, trace_capacity: int = 4096
    ) -> "Observability":
        """Turn instrumentation on (idempotent; registry persists)."""
        self.enabled = True
        if isinstance(self.tracer, NullTracer):
            self.tracer = Tracer(
                capacity=trace_capacity, jsonl_path=trace_path
            )
        return self

    def disable(self) -> None:
        self.tracer.close()
        self.tracer = NullTracer()
        self.enabled = False

    def reset(self) -> None:
        """Fresh registry + disabled tracer (test isolation)."""
        self.disable()
        self.registry = MetricsRegistry()
        self.tenant = ""
        self._phase_family = None
        self._phase_children.clear()
        self._delta_children.clear()

    # -- the two instrumentation primitives ----------------------------

    def phase(self, name: str, **attrs):
        """Time a block into ``repro_phase_seconds`` and the trace."""
        if not self.enabled:
            return _NULL_PHASE
        return _Phase(self, name, attrs)

    def observe_phase(self, name: str, duration: float) -> None:
        """Record an already-measured duration for ``name``."""
        # Per-(phase, tenant) child cache: label resolution would
        # otherwise dominate the cost of timing sub-millisecond phases.
        child = self._phase_children.get((name, self.tenant))
        if child is None:
            family = self._phase_family
            if family is None:
                family = self.registry.histogram(
                    "repro_phase_seconds",
                    "Wall-clock seconds per instrumented phase",
                    labels=("phase", "tenant"),
                )
                self._phase_family = family
            child = family.labels(phase=name, tenant=self.tenant)
            self._phase_children[(name, self.tenant)] = child
        child.observe(duration)

    @contextmanager
    def tenant_scope(self, tenant: str):
        """Label phases recorded inside the block with ``tenant``."""
        previous = self.tenant
        self.tenant = tenant
        try:
            yield self
        finally:
            self.tenant = previous

    # -- bulk publication of existing stats objects --------------------

    def publish_deltas(self, prefix: str, stats, **labels) -> None:
        """Fold an ``as_dict()``-style stats object into counters.

        Only the *growth* since the last publication is added (the last
        published snapshot rides on the stats object itself), so the
        same object can be published after every round without double
        counting.  Non-numeric values are skipped.
        """
        if not self.enabled:
            return
        current = {
            key: value
            for key, value in stats.as_dict().items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)
        }
        last = getattr(stats, "_obs_published", None) or {}
        label_names = tuple(sorted(labels))
        label_values = tuple(str(labels[name]) for name in label_names)
        for key in sorted(current):
            delta = current[key] - last.get(key, 0)
            if delta > 0:
                # Cached per counter and labels, as in observe_phase.
                slot = (prefix, key, label_names, label_values)
                child = self._delta_children.get(slot)
                if child is None:
                    child = self.registry.counter(
                        f"{prefix}_{key}_total", labels=label_names
                    ).labels(**labels)
                    self._delta_children[slot] = child
                child.inc(delta)
        try:
            stats._obs_published = current
        except AttributeError:
            pass

    def publish_gauges(self, prefix: str, values: dict, **labels) -> None:
        """Set one gauge per numeric key of ``values``."""
        if not self.enabled:
            return
        label_names = tuple(sorted(labels))
        for key in sorted(values):
            value = values[key]
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            family = self.registry.gauge(
                f"{prefix}_{key}", labels=label_names
            )
            family.labels(**labels).set(value)

    # -- export --------------------------------------------------------

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def flush(self, metrics_path=None) -> None:
        """Write the snapshot (if asked) and flush the trace file."""
        if metrics_path is not None:
            write_snapshot(self.registry, metrics_path)
        if isinstance(self.tracer, Tracer):
            self.tracer.close()


#: The process-wide instance every instrumented seam reads.
OBS = Observability()


def get_observability() -> Observability:
    return OBS
