"""Unit tests for the observability subsystem itself.

The zero-perturbation contract lives in test_zero_perturbation.py;
this file pins the building blocks: metric semantics, label handling,
quantile math, trace buffering, snapshot round-trips through both
export formats, the latency report, and the facade's delta/gauge
publication rules.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    DEFAULT_BOUNDS,
    OBS,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
    format_report,
    latency_report,
    load_snapshot,
    render_prometheus,
    write_snapshot,
)
from repro.obs.registry import SNAPSHOT_SCHEMA, quantile_from_buckets


@pytest.fixture(autouse=True)
def _clean_obs():
    OBS.reset()
    yield
    OBS.reset()


class TestRegistry:
    def test_counter_is_monotonic(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total")
        family.inc()
        family.inc(2.5)
        assert family.labels().value == 3.5
        with pytest.raises(ValueError):
            family.labels().inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        family = registry.gauge("g")
        family.set(5)
        family.labels().dec(2)
        family.labels().inc(0.5)
        assert family.labels().value == 3.5

    def test_labels_must_match_declaration(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", labels=("tenant",))
        family.labels(tenant="a").inc()
        family.labels(tenant="b").inc(2)
        with pytest.raises(ValueError):
            family.labels(shard="0")
        values = {
            series["labels"]["tenant"]: series["value"]
            for series in family.as_dict()["series"]
        }
        assert values == {"a": 1, "b": 2}

    def test_registration_is_idempotent_but_typed(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total")
        assert registry.counter("c_total") is first
        with pytest.raises(ValueError):
            registry.gauge("c_total")
        with pytest.raises(ValueError):
            registry.counter("c_total", labels=("tenant",))

    def test_histogram_buckets_and_quantiles(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(106.5)
        assert hist.cumulative_buckets() == [(1.0, 1), (2.0, 3), (4.0, 4)]
        # Median falls in the (1, 2] bucket; interpolation stays there.
        assert 1.0 <= hist.quantile(0.5) <= 2.0
        # Beyond the last bound clamps to it rather than inventing data.
        assert hist.quantile(0.99) == 4.0

    def test_quantile_from_buckets_matches_live_histogram(self):
        hist = Histogram()
        for exponent in range(-3, 2):
            hist.observe(10.0 ** exponent)
        series = hist.as_dict()
        for q in (0.25, 0.5, 0.9, 0.99):
            assert quantile_from_buckets(
                series["buckets"], series["count"], q
            ) == pytest.approx(hist.quantile(q))

    def test_default_bounds_cover_microseconds_to_minutes(self):
        assert DEFAULT_BOUNDS[0] == pytest.approx(1e-5)
        assert DEFAULT_BOUNDS[-1] == pytest.approx(100.0)
        assert list(DEFAULT_BOUNDS) == sorted(DEFAULT_BOUNDS)


class TestTracer:
    def test_spans_nest_and_record_depth(self):
        tracer = Tracer(capacity=16)
        with tracer.span("outer", tenant="t"):
            with tracer.span("inner"):
                pass
        names = {span["name"]: span for span in tracer.spans()}
        assert names["outer"]["depth"] == 0
        assert names["inner"]["depth"] == 1
        assert names["outer"]["tenant"] == "t"
        # Inner exits first, so it gets the earlier sequence number.
        assert names["inner"]["seq"] < names["outer"]["seq"]
        assert all(span["duration"] >= 0 for span in tracer.spans())

    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(capacity=4)
        for index in range(10):
            with tracer.span("s", index=index):
                pass
        spans = tracer.spans()
        assert len(spans) == 4
        assert [span["index"] for span in spans] == [6, 7, 8, 9]

    def test_jsonl_file_holds_every_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(capacity=2, jsonl_path=path)
        for index in range(5):
            with tracer.span("s", index=index):
                pass
        tracer.close()
        lines = path.read_text().splitlines()
        # The file is unbounded even though the ring buffer dropped 3.
        assert len(lines) == 5
        assert [json.loads(line)["index"] for line in lines] == list(
            range(5)
        )

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        with tracer.span("anything", key="value"):
            pass
        assert tracer.spans() == []
        assert not tracer.enabled


class TestExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", "help text", labels=("t",)) \
            .labels(t="a").inc(3)
        registry.gauge("repro_g").set(1.5)
        registry.histogram("repro_h").observe(0.02)
        return registry

    def test_prometheus_rendering(self):
        text = render_prometheus(self._registry())
        assert '# TYPE repro_c_total counter' in text
        assert 'repro_c_total{t="a"} 3' in text
        assert "repro_g 1.5" in text
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_count 1" in text

    def test_snapshot_round_trip(self, tmp_path):
        registry = self._registry()
        path = write_snapshot(registry, tmp_path / "metrics.json")
        snapshot = load_snapshot(path)
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert snapshot == registry.snapshot()
        # Rendering off the file equals rendering off the registry.
        assert render_prometheus(snapshot) == render_prometheus(registry)

    def test_prom_suffix_writes_text_format(self, tmp_path):
        path = write_snapshot(self._registry(), tmp_path / "m.prom")
        assert "# TYPE repro_g gauge" in path.read_text()

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "metrics": {}}))
        with pytest.raises(ValueError):
            load_snapshot(path)


class TestLatencyReport:
    def _observe(self, phase, durations, tenant=""):
        OBS.tenant = tenant
        for duration in durations:
            OBS.observe_phase(phase, duration)
        OBS.tenant = ""

    def test_attribution_excludes_envelope_phases(self):
        OBS.enable()
        self._observe("select", [0.010] * 10, tenant="acme")
        self._observe("journal", [0.030] * 10, tenant="acme")
        self._observe("round", [0.050] * 10, tenant="acme")
        self._observe("scheduler-wait", [1.0] * 10, tenant="acme")
        report = latency_report(OBS.registry)
        shares = {
            row["phase"]: row["share"] for row in report["phases"]
        }
        # round + scheduler-wait never enter the denominator.
        assert shares["select"] + shares["journal"] == pytest.approx(1.0)
        assert shares["round"] == 0.0
        assert shares["scheduler-wait"] == 0.0
        assert report["attributed_seconds"] == pytest.approx(0.4)
        assert "acme" in report["tenants"]
        rendered = format_report(report)
        assert "select" in rendered and "acme" in rendered

    def test_report_runs_off_serialized_snapshot(self, tmp_path):
        OBS.enable()
        self._observe("update", [0.002] * 5)
        live = latency_report(OBS.registry)
        path = write_snapshot(OBS.registry, tmp_path / "m.json")
        assert latency_report(load_snapshot(path)) == live

    def test_empty_report_formats_gracefully(self):
        report = latency_report(MetricsRegistry())
        assert report["phases"] == []
        assert "no phase latencies" in format_report(report)


class TestFacade:
    def test_disabled_phase_is_shared_noop(self):
        first = OBS.phase("select")
        second = OBS.phase("collect")
        assert first is second  # no allocation on the disabled path

    def test_publish_deltas_never_double_counts(self):
        class Stats:
            def __init__(self):
                self.rounds = 0
                self.label = "not-numeric"

            def as_dict(self):
                return {"rounds": self.rounds, "label": self.label}

        OBS.enable()
        stats = Stats()
        stats.rounds = 3
        OBS.publish_deltas("repro_test", stats, tenant="a")
        OBS.publish_deltas("repro_test", stats, tenant="a")  # no growth
        stats.rounds = 5
        OBS.publish_deltas("repro_test", stats, tenant="a")
        family = OBS.registry.get("repro_test_rounds_total")
        assert family.labels(tenant="a").value == 5
        assert OBS.registry.get("repro_test_label_total") is None

    def test_publish_deltas_after_reset_fill_the_new_registry(self):
        class Stats:
            def __init__(self, rounds):
                self.rounds = rounds

            def as_dict(self):
                return {"rounds": self.rounds}

        OBS.enable()
        OBS.publish_deltas("repro_test", Stats(2), tenant="a")
        OBS.reset()
        OBS.enable()
        OBS.publish_deltas("repro_test", Stats(3), tenant="a")
        family = OBS.registry.get("repro_test_rounds_total")
        assert family is not None
        assert family.labels(tenant="a").value == 3

    def test_publish_gauges_skips_non_numerics(self):
        OBS.enable()
        OBS.publish_gauges(
            "repro_test", {"depth": 4, "sticky": True, "name": "x"}
        )
        assert OBS.registry.get("repro_test_depth").labels().value == 4
        assert OBS.registry.get("repro_test_sticky") is None
        assert OBS.registry.get("repro_test_name") is None

    def test_tenant_scope_restores_previous_label(self):
        OBS.enable()
        with OBS.tenant_scope("acme"):
            OBS.observe_phase("select", 0.001)
            assert OBS.tenant == "acme"
        assert OBS.tenant == ""
