"""Watermarks and incremental belief initialization.

Batch mode computes every group's Eq-15 initialization from the full
preliminary answer matrix in one shot
(:func:`~repro.datasets.grouping.build_factored_belief`).  Streaming
mode cannot wait for "the full matrix": facts and votes trickle in, so
:class:`StreamingBeliefBuilder` accumulates per-fact vote counts and
*seals* task groups one head chunk at a time — normally when every fact
in the chunk reached its vote target, or forcibly when the watermark
says the missing votes are not coming (straggler timeout, the tempered
degradation: unvoted facts fall back to an uninformative 0.5 fraction
that the smoothing clip and the checking tier then handle exactly like
any other weak initialization).

The builder is property-tested equal to the batch path: sealing a chunk
performs the *same* float operations (``yes / total`` per fact, then
:func:`~repro.core.update.initialize_from_votes`) the batch builder
performs on the same prefix, so the resulting
:class:`~repro.core.observations.BeliefState` tables are bit-identical
— no drift between a campaign bootstrapped from a stream and one
bootstrapped from the equivalent matrix.

:class:`WatermarkTracker` is the lateness authority: the watermark
trails the maximum *admitted* event time by ``allowed_lateness``
seconds.  Events older than the watermark are late; how late decides
between tempered admission and the drop path (see
:mod:`~repro.stream.runtime`).  Both classes round-trip through plain
JSON state so every journal checkpoint captures them exactly.
"""

from __future__ import annotations

from ..core.facts import Fact, FactSet
from ..core.observations import BeliefState
from ..core.update import initialize_from_votes


class WatermarkTracker:
    """Event-time watermark with a fixed allowed lateness.

    The watermark is ``max(admitted event times) - allowed_lateness``:
    everything at or after it is in order "enough"; everything before
    it is late and subject to the straggler policy.  Monotone by
    construction — admitting a late event never moves it backwards.
    """

    def __init__(self, allowed_lateness: float = 5.0):
        if not allowed_lateness >= 0.0:
            raise ValueError("allowed_lateness must be non-negative")
        self._allowed_lateness = float(allowed_lateness)
        self._max_time = 0.0

    @property
    def allowed_lateness(self) -> float:
        return self._allowed_lateness

    @property
    def max_time(self) -> float:
        return self._max_time

    @property
    def watermark(self) -> float:
        return self._max_time - self._allowed_lateness

    def observe(self, time: float) -> float:
        """Advance on an admitted event; returns the new watermark."""
        if time > self._max_time:
            self._max_time = float(time)
        return self.watermark

    def lateness_of(self, time: float) -> float:
        """Seconds the event is behind the watermark (<= 0: on time)."""
        return self.watermark - float(time)

    def state(self) -> dict:
        return {
            "allowed_lateness": self._allowed_lateness,
            "max_time": self._max_time,
        }

    @classmethod
    def from_state(cls, state: dict) -> "WatermarkTracker":
        tracker = cls(float(state["allowed_lateness"]))
        tracker._max_time = float(state["max_time"])
        return tracker


class StreamingBeliefBuilder:
    """Accumulate streamed facts/votes; seal groups incrementally.

    Parameters
    ----------
    group_size:
        Facts per sealed task group (the paper groups correlated facts
        into multi-fact tasks; the stream forms them in arrival order).
    target_votes:
        Preliminary votes per fact required for a normal seal.
    smoothing:
        Passed through to
        :func:`~repro.core.update.initialize_from_votes`.
    straggler_timeout:
        Seconds after the head chunk's *first* fact arrived that the
        watermark may force-seal it with whatever votes exist —
        unvoted facts initialize at the uninformative ``0.5``.
    belief_epsilon:
        Truncation budget of the sparse belief kernel; ``0`` (the
        default) seals exact dense
        :class:`~repro.core.observations.BeliefState` groups, positive
        values seal :class:`~repro.core.kernel.SparseBeliefState`
        groups through the *same*
        :func:`~repro.core.update.initialize_from_votes` call the batch
        path uses.

    The ``on_degenerate`` attribute (not checkpointed) may be set to a
    zero-argument callable; it fires when a seal's marginal product is
    degenerate and the initializer falls back to uniform, so the
    runtime can record a ``degenerate_marginals`` incident.
    """

    def __init__(
        self,
        *,
        group_size: int = 3,
        target_votes: int = 3,
        smoothing: float = 0.01,
        straggler_timeout: float = 30.0,
        belief_epsilon: float = 0.0,
    ):
        if group_size < 1:
            raise ValueError("group_size must be at least 1")
        if target_votes < 0:
            raise ValueError("target_votes must be non-negative")
        if not straggler_timeout >= 0.0:
            raise ValueError("straggler_timeout must be non-negative")
        if not 0.0 <= belief_epsilon < 1.0:
            raise ValueError("belief_epsilon must lie in [0, 1)")
        self._group_size = int(group_size)
        self._target_votes = int(target_votes)
        self._smoothing = float(smoothing)
        self._straggler_timeout = float(straggler_timeout)
        self._belief_epsilon = float(belief_epsilon)
        self.on_degenerate = None
        #: Unsealed facts in arrival order: [fact_id, first_seen_time].
        self._pending: list[list] = []
        #: fact_id -> {"instance_id": str, "label": str} for pending facts.
        self._fact_meta: dict[int, dict] = {}
        #: fact_id -> [yes_votes, total_votes]; survives sealing so a
        #: duplicate new_fact after a seal is recognizable.
        self._votes: dict[int, list[int]] = {}
        self._sealed: set[int] = set()

    # -- queries -------------------------------------------------------

    @property
    def pending_fact_ids(self) -> list[int]:
        return [entry[0] for entry in self._pending]

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def is_known(self, fact_id: int) -> bool:
        return (
            fact_id in self._sealed
            or fact_id in self._fact_meta
            or fact_id in self._votes
        )

    def is_sealed(self, fact_id: int) -> bool:
        return fact_id in self._sealed

    def vote_fraction(self, fact_id: int) -> float:
        """The fact's current ``yes / total`` fraction (0.5 unvoted).

        Plain float division — the *same* operation the batch
        initializer's caller performs — so sealed streamed groups and
        batch-built groups are bit-identical on equal vote sets.
        """
        yes, total = self._votes.get(fact_id, (0, 0))
        if total == 0:
            return 0.5
        return yes / total

    # -- ingestion -----------------------------------------------------

    def add_fact(
        self,
        fact_id: int,
        *,
        instance_id: str = "",
        label: str = "positive",
        time: float = 0.0,
    ) -> bool:
        """Register a streamed fact; ``False`` if already known."""
        if fact_id in self._sealed or fact_id in self._fact_meta:
            return False
        self._pending.append([int(fact_id), float(time)])
        self._fact_meta[int(fact_id)] = {
            "instance_id": str(instance_id),
            "label": str(label),
        }
        self._votes.setdefault(int(fact_id), [0, 0])
        return True

    def add_vote(self, fact_id: int, answer: bool) -> bool:
        """Count a preliminary vote; ``False`` when the fact is sealed
        (the caller routes that through the late/out-of-band path)."""
        if fact_id in self._sealed:
            return False
        counts = self._votes.setdefault(int(fact_id), [0, 0])
        counts[0] += int(bool(answer))
        counts[1] += 1
        return True

    # -- sealing -------------------------------------------------------

    def _head_ready(self) -> bool:
        if len(self._pending) < self._group_size:
            return False
        return all(
            self._votes.get(fact_id, (0, 0))[1] >= self._target_votes
            for fact_id, _time in self._pending[: self._group_size]
        )

    def _head_timed_out(self, watermark: float) -> bool:
        if not self._pending:
            return False
        first_time = self._pending[0][1]
        return watermark >= first_time + self._straggler_timeout

    def sealable(
        self, watermark: float
    ) -> list[tuple[BeliefState, bool]]:
        """Seal every chunk that is ready, head of the queue first.

        Returns ``(belief, forced)`` pairs: ``forced`` is ``True`` for
        straggler-timeout seals (the tempered-degradation path), where
        the chunk may be short and facts may initialize unvoted.
        """
        sealed: list[tuple[BeliefState, bool]] = []
        while True:
            if self._head_ready():
                sealed.append((self._seal_chunk(self._group_size), False))
            elif self._head_timed_out(watermark):
                sealed.append(
                    (
                        self._seal_chunk(
                            min(self._group_size, len(self._pending))
                        ),
                        True,
                    )
                )
            else:
                return sealed

    def flush(self) -> list[BeliefState]:
        """Seal everything still pending (end of stream)."""
        sealed: list[BeliefState] = []
        while self._pending:
            sealed.append(
                self._seal_chunk(min(self._group_size, len(self._pending)))
            )
        return sealed

    def _seal_chunk(self, size: int) -> BeliefState:
        chunk = self._pending[:size]
        self._pending = self._pending[size:]
        facts = []
        fractions: dict[int, float] = {}
        for fact_id, _time in chunk:
            meta = self._fact_meta.pop(fact_id)
            facts.append(
                Fact(
                    fact_id=fact_id,
                    instance_id=meta["instance_id"],
                    label=meta["label"],
                )
            )
            fractions[fact_id] = self.vote_fraction(fact_id)
            self._sealed.add(fact_id)
        return initialize_from_votes(
            FactSet(facts),
            fractions,
            smoothing=self._smoothing,
            epsilon=self._belief_epsilon,
            on_degenerate=self.on_degenerate,
        )

    # -- checkpoint state ---------------------------------------------

    def state(self) -> dict:
        state = {
            "group_size": self._group_size,
            "target_votes": self._target_votes,
            "smoothing": self._smoothing,
            "straggler_timeout": self._straggler_timeout,
            "pending": [
                [fact_id, time] for fact_id, time in self._pending
            ],
            "fact_meta": {
                str(fact_id): dict(meta)
                for fact_id, meta in self._fact_meta.items()
            },
            "votes": {
                str(fact_id): list(counts)
                for fact_id, counts in self._votes.items()
            },
            "sealed": sorted(self._sealed),
        }
        # Only serialized when set: exact-kernel checkpoints must stay
        # byte-identical to those written before the key existed.
        if self._belief_epsilon:
            state["belief_epsilon"] = self._belief_epsilon
        return state

    @classmethod
    def from_state(cls, state: dict) -> "StreamingBeliefBuilder":
        builder = cls(
            group_size=int(state["group_size"]),
            target_votes=int(state["target_votes"]),
            smoothing=float(state["smoothing"]),
            straggler_timeout=float(state["straggler_timeout"]),
            belief_epsilon=float(state.get("belief_epsilon", 0.0)),
        )
        builder._pending = [
            [int(fact_id), float(time)] for fact_id, time in state["pending"]
        ]
        builder._fact_meta = {
            int(fact_id): dict(meta)
            for fact_id, meta in state["fact_meta"].items()
        }
        builder._votes = {
            int(fact_id): [int(yes), int(total)]
            for fact_id, (yes, total) in state["votes"].items()
        }
        builder._sealed = set(int(value) for value in state["sealed"])
        return builder
