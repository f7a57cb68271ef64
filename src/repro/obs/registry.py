"""Typed metric primitives and the process-wide registry.

The observability layer is deliberately *boring*: counters, gauges and
histograms are plain Python objects mutated in place, families are
dicts keyed by label-value tuples, and the registry is a sorted
namespace of families.  There is no background thread, no sampling, no
locking beyond what CPython's attribute stores give for free — every
instrumented seam writes from the thread that runs the checking loop,
and nothing here ever crosses a process boundary.

Determinism is load-bearing.  Histograms use **fixed log-spaced bucket
bounds** computed once at import time, so two runs that observe the
same values render byte-identical bucket layouts; snapshots sort
families by name and series by label values, so exports never depend
on insertion order.  Nothing in this module reads a clock or an RNG —
timing happens at the call sites (spans), values arrive here as plain
floats.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_BOUNDS",
    "quantile_from_buckets",
]

#: Log-spaced histogram bounds: four buckets per decade from 10 us to
#: 100 s.  Latencies in this codebase span single updates (~100 us) to
#: whole streamed campaigns (~10 s); the fixed grid keeps snapshots
#: deterministic and cross-run diffable, at the cost of ~±30% quantile
#: resolution — fine for attribution ("where did the round go"), not
#: meant for micro-benchmarks.
DEFAULT_BOUNDS: tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 4.0), 12) for exponent in range(-20, 9)
)


class Counter:
    """Monotonically increasing count.  ``inc`` only; never reset in
    place (reset happens by replacing the registry)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def as_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A value that goes up and down (queue depths, open reservations)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def as_dict(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-bound histogram with cumulative-bucket export.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    (non-cumulative storage; cumulated at export).  Observations above
    the last bound only land in the implicit ``+Inf`` bucket (tracked
    by ``count``).
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        if list(bounds) != sorted(bounds) or not bounds:
            raise ValueError("histogram bounds must be sorted, non-empty")
        self.bounds = tuple(float(bound) for bound in bounds)
        self.bucket_counts = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        index = bisect_left(self.bounds, value)
        if index < len(self.bucket_counts):
            self.bucket_counts[index] += 1

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` per bound — the Prometheus shape."""
        out = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket layout."""
        return quantile_from_buckets(
            self.cumulative_buckets(), self.count, q
        )

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": [
                [bound, cumulative]
                for bound, cumulative in self.cumulative_buckets()
            ],
        }


def quantile_from_buckets(
    buckets: list[tuple[float, int]] | list[list],
    count: int,
    q: float,
) -> float:
    """Prometheus-style quantile estimate from cumulative buckets.

    Linear interpolation inside the landing bucket; observations beyond
    the last bound clamp to it.  Works off the serialized snapshot
    shape too, so reports can be rendered from a JSON file long after
    the process exited.
    """
    if count <= 0:
        return 0.0
    rank = q * count
    previous_bound = 0.0
    previous_cumulative = 0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            in_bucket = cumulative - previous_cumulative
            if in_bucket <= 0:
                return float(bound)
            fraction = (rank - previous_cumulative) / in_bucket
            return previous_bound + fraction * (bound - previous_bound)
        previous_bound = float(bound)
        previous_cumulative = cumulative
    return float(buckets[-1][0]) if buckets else 0.0


_TYPE_NAMES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


class MetricFamily:
    """All series of one metric name, keyed by label-value tuples.

    A family declared without labels still holds one (label-less)
    child; ``inc``/``set``/``observe`` proxy to it so call sites don't
    spell ``family.labels()`` for the common case.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: tuple[str, ...],
        factory,
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._factory = factory
        self._children: dict[tuple[str, ...], object] = {}

    @property
    def type_name(self) -> str:
        return _TYPE_NAMES[self._factory_class()]

    def _factory_class(self):
        probe = self._factory
        return probe if isinstance(probe, type) else type(probe())

    def labels(self, **labels: str):
        """The child metric for exactly the declared labels."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._factory()
            self._children[key] = child
        return child

    # -- label-less convenience ----------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    # -- export --------------------------------------------------------

    def series(self) -> list[tuple[dict, object]]:
        """``(labels_dict, metric)`` pairs sorted by label values."""
        return [
            (dict(zip(self.label_names, key)), child)
            for key, child in sorted(self._children.items())
        ]

    def as_dict(self) -> dict:
        return {
            "type": self.type_name,
            "help": self.help,
            "labels": list(self.label_names),
            "series": [
                {"labels": labels, **child.as_dict()}
                for labels, child in self.series()
            ],
        }


#: Version stamp written into every snapshot — bump when the snapshot
#: shape changes so ``repro metrics`` can refuse files it can't read.
SNAPSHOT_SCHEMA = 1


class MetricsRegistry:
    """A sorted namespace of metric families.

    Registration is idempotent: asking for an existing name returns the
    existing family (and raises if the type or label set disagrees), so
    modules can declare their metrics at call time without import-order
    coupling.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _family(
        self, factory, name: str, help_text: str, labels: tuple[str, ...]
    ) -> MetricFamily:
        label_names = tuple(labels)
        existing = self._families.get(name)
        if existing is not None:
            if (
                existing._factory_class() is not self._probe_class(factory)
                or existing.label_names != label_names
            ):
                raise ValueError(
                    f"metric {name!r} already registered with a "
                    "different type or label set"
                )
            return existing
        family = MetricFamily(name, help_text, label_names, factory)
        self._families[name] = family
        return family

    @staticmethod
    def _probe_class(factory):
        return factory if isinstance(factory, type) else type(factory())

    def counter(
        self, name: str, help_text: str = "", labels: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._family(Counter, name, help_text, labels)

    def gauge(
        self, name: str, help_text: str = "", labels: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._family(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: tuple[str, ...] = (),
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
    ) -> MetricFamily:
        return self._family(
            lambda: Histogram(bounds), name, help_text, labels
        )

    def families(self) -> list[MetricFamily]:
        return [
            self._families[name] for name in sorted(self._families)
        ]

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def snapshot(self) -> dict:
        """Deterministic dict of every family (sorted names/series)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "metrics": {
                family.name: family.as_dict()
                for family in self.families()
            },
        }

    def reset(self) -> None:
        self._families.clear()
