"""Seeded arrival processes and the replayable event-log generator.

An arrival process stamps each stream event with a time on an abstract
clock.  Three shapes cover the regimes the robustness layer must
survive:

* ``poisson`` — memoryless steady load (exponential gaps at ``rate``
  events/second), the baseline;
* ``bursty`` — platform reality: workers submit in batches, so events
  come in tight bursts separated by long idle gaps (same long-run
  rate);
* ``stalled`` — a healthy Poisson flow interrupted by periodic dead
  air, the shape that forces watermark/straggler-timeout sealing (a
  group must not wait forever for votes that stopped coming).

:func:`generate_event_stream` turns a
:class:`~repro.datasets.schema.CrowdLabelingDataset` into the ordered,
seeded event log a :class:`~repro.stream.runtime.StreamingCampaign`
replays: per fact one ``new_fact`` event plus ``votes_per_fact``
simulated preliminary votes, interleaved across a bounded lookahead
window (so groups fill progressively, not strictly one at a time), with
optional expert churn woven in.  The log is pure data — generating it
twice with the same inputs yields the same records, which is what makes
killed campaigns resumable against the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.schema import CrowdLabelingDataset
from .events import StreamEvent


@dataclass(frozen=True)
class ArrivalProcess:
    """Base arrival process: uniform gaps at ``rate`` events/second.

    Subclasses override :meth:`gaps`; :meth:`timestamps` turns gaps
    into a non-decreasing clock.
    """

    rate: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 < self.rate < np.inf:
            raise ValueError(
                f"arrival rate must be positive and finite, got {self.rate}"
            )

    def gaps(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(count, 1.0 / self.rate)

    def timestamps(self, count: int, rng: np.random.Generator) -> list[float]:
        """``count`` non-decreasing event times starting after 0."""
        if count <= 0:
            return []
        return [float(value) for value in np.cumsum(self.gaps(count, rng))]


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: i.i.d. exponential gaps at ``rate``."""

    def gaps(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=count)


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """Batched arrivals: tight bursts separated by long idle gaps.

    Every ``burst_size``-th gap is exponential with mean
    ``burst_size / rate`` (the inter-burst silence); gaps within a
    burst have mean ``within_gap``.  Long-run throughput stays close to
    ``rate`` while instantaneous load spikes far above it.
    """

    burst_size: int = 8
    within_gap: float = 0.005

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.burst_size < 1:
            raise ValueError("burst_size must be at least 1")
        if not self.within_gap >= 0.0:
            raise ValueError("within_gap must be non-negative")

    def gaps(self, count: int, rng: np.random.Generator) -> np.ndarray:
        gaps = rng.exponential(self.within_gap, size=count)
        boundaries = np.arange(count) % self.burst_size == 0
        gaps[boundaries] = rng.exponential(
            self.burst_size / self.rate, size=int(boundaries.sum())
        )
        return gaps


@dataclass(frozen=True)
class StalledArrivals(ArrivalProcess):
    """Poisson flow with periodic dead air.

    Every ``stall_every``-th gap gains an extra exponential stall of
    mean ``stall_duration`` seconds — the pattern that leaves a
    half-filled group waiting and forces the straggler-timeout seal.
    """

    stall_every: int = 25
    stall_duration: float = 30.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.stall_every < 1:
            raise ValueError("stall_every must be at least 1")
        if not self.stall_duration >= 0.0:
            raise ValueError("stall_duration must be non-negative")

    def gaps(self, count: int, rng: np.random.Generator) -> np.ndarray:
        gaps = rng.exponential(1.0 / self.rate, size=count)
        stalls = (np.arange(1, count + 1) % self.stall_every) == 0
        gaps[stalls] += rng.exponential(
            self.stall_duration, size=int(stalls.sum())
        )
        return gaps


#: CLI/env names of the built-in arrival shapes.
ARRIVAL_KINDS = ("poisson", "bursty", "stalled")


def make_arrivals(kind: str, rate: float) -> ArrivalProcess:
    """Arrival process by CLI name (one of :data:`ARRIVAL_KINDS`)."""
    if kind == "poisson":
        return PoissonArrivals(rate=rate)
    if kind == "bursty":
        return BurstyArrivals(rate=rate)
    if kind == "stalled":
        return StalledArrivals(rate=rate)
    raise ValueError(
        f"unknown arrival process {kind!r}; expected one of "
        f"{list(ARRIVAL_KINDS)}"
    )


def generate_event_stream(
    dataset: CrowdLabelingDataset,
    *,
    theta: float = 0.9,
    votes_per_fact: int = 3,
    arrivals: ArrivalProcess | None = None,
    seed: int = 0,
    churn_rate: float = 0.0,
    window: int = 2,
) -> list[StreamEvent]:
    """Materialize a dataset as a seeded, replayable event log.

    Per fact (in dataset order) the log contains one ``new_fact`` event
    followed by ``votes_per_fact`` ``prelim_label`` votes from seeded
    preliminary (below-``theta``) workers answering at their accuracy.
    Fact queues are interleaved by drawing uniformly over the first
    ``window`` unfinished facts, so a group's facts and votes overlap in
    time without arbitrarily deep interleaving.  With ``churn_rate`` >
    0, each slot may additionally emit a ``worker_leave`` for a random
    active expert (never the last one) or a ``worker_join`` readmitting
    the longest-departed one.

    The result is pure data: same inputs, same log — byte for byte.
    """
    if votes_per_fact < 0:
        raise ValueError("votes_per_fact must be non-negative")
    if not 0.0 <= churn_rate <= 1.0:
        raise ValueError("churn_rate must lie in [0, 1]")
    if window < 1:
        raise ValueError("window must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x57EA]))
    experts, preliminary = dataset.split_crowd(theta)
    voters = list(preliminary) if len(preliminary) > 0 else list(dataset.crowd)

    # Per-fact queues: the new_fact record, then its preliminary votes.
    queues: list[list[tuple[str, dict]]] = []
    for group in dataset.groups:
        for fact in group:
            truth = dataset.ground_truth[fact.fact_id]
            queue: list[tuple[str, dict]] = [
                (
                    "new_fact",
                    {
                        "fact_id": int(fact.fact_id),
                        "instance_id": fact.instance_id,
                        "label": fact.label,
                        "truth": bool(truth),
                    },
                )
            ]
            for _ in range(votes_per_fact):
                voter = voters[int(rng.integers(len(voters)))]
                correct = bool(rng.random() < voter.accuracy)
                queue.append(
                    (
                        "prelim_label",
                        {
                            "fact_id": int(fact.fact_id),
                            "worker_id": voter.worker_id,
                            "accuracy": float(voter.accuracy),
                            "answer": bool(truth) if correct else not truth,
                        },
                    )
                )
            queues.append(queue)

    # Interleave the queues through a bounded lookahead window.
    skeleton: list[tuple[str, dict]] = []
    cursor = 0
    while cursor < len(queues):
        open_until = min(cursor + window, len(queues))
        candidates = [
            index for index in range(cursor, open_until) if queues[index]
        ]
        pick = candidates[int(rng.integers(len(candidates)))]
        skeleton.append(queues[pick].pop(0))
        while cursor < len(queues) and not queues[cursor]:
            cursor += 1

    # Weave expert churn in: departures and re-joins of CE members.
    active = [worker for worker in experts]
    departed: list = []
    events_payload: list[tuple[str, dict]] = []
    for entry in skeleton:
        events_payload.append(entry)
        if churn_rate <= 0.0 or rng.random() >= churn_rate:
            continue
        if departed and (len(active) <= 1 or rng.random() < 0.5):
            worker = departed.pop(0)
            active.append(worker)
            events_payload.append(
                (
                    "worker_join",
                    {
                        "worker_id": worker.worker_id,
                        "accuracy": float(worker.accuracy),
                    },
                )
            )
        elif len(active) > 1:
            victim = active.pop(int(rng.integers(len(active))))
            departed.append(victim)
            events_payload.append(
                ("worker_leave", {"worker_id": victim.worker_id})
            )

    times = (arrivals or PoissonArrivals()).timestamps(
        len(events_payload), rng
    )
    return [
        StreamEvent(seq=seq, time=times[seq], kind=kind, payload=payload)
        for seq, (kind, payload) in enumerate(events_payload)
    ]
