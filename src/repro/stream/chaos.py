"""Delivery-path fault injection for the streaming runtime.

:mod:`repro.simulation.faults` breaks the crowd; this module breaks
the *arrival path*: the generated event log is well-ordered, but
what the campaign actually receives may be reordered, duplicated,
stalled (delivered far later than generated) or dropped entirely.

:class:`StreamChaos` is a pure, seeded plan.  Given the generated log
it computes the full *delivery schedule* up front
(:meth:`plan_delivery`) — a deterministic function of ``(rates, seed)``
— so a killed-and-resumed campaign replays exactly the same degraded
delivery as an uninterrupted one.  Per-event decisions are stateless
draws from ``SeedSequence([seed, salt, event_seq])``, the keyed draw
every fault plan shares (:class:`~repro.faultplan.FaultPlan`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from ..faultplan import FaultPlan
from .events import StreamEvent

#: Injectable delivery faults, in the order draws are checked.
STREAM_CHAOS_ACTIONS = ("drop", "stall", "reorder", "duplicate")


@dataclass(frozen=True)
class StreamChaos(FaultPlan):
    """Seeded configuration of arrival-path fault injection.

    Parameters
    ----------
    drop, stall, reorder, duplicate:
        Per-event probabilities (mutually exclusive per draw, checked
        in that order) that the event is lost, delivered far out of
        position (``stall_shift`` slots late — past the straggler
        window, exercising the late-drop path), delivered slightly out
        of position (``reorder_shift`` slots late — inside the
        watermark's grace, exercising the late-admit path), or
        delivered twice (the duplicate ``duplicate_shift`` slots after
        the original, exercising dedup).
    reorder_shift, stall_shift, duplicate_shift:
        Displacements in delivery slots for the respective faults.
    seed:
        Seed of the per-event draw streams.

    :meth:`parse` reads ``"reorder=0.1,duplicate=0.05,stall=0.02"``;
    :meth:`from_env` reads ``REPRO_STREAM_CHAOS`` (+
    ``REPRO_STREAM_CHAOS_SEED``), the hook the CI ``stream-chaos``
    matrix uses to degrade delivery under the whole stream test suite.
    """

    ACTIONS = STREAM_CHAOS_ACTIONS
    #: Separates the per-event draw streams from other plans'.
    SALT = (0x5C40,)
    ENV = "REPRO_STREAM_CHAOS"

    drop: float = 0.0
    stall: float = 0.0
    reorder: float = 0.0
    duplicate: float = 0.0
    reorder_shift: int = 3
    stall_shift: int = 24
    duplicate_shift: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("reorder_shift", "stall_shift", "duplicate_shift"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    def action_for(self, event_seq: int) -> str | None:
        """The fault to inject on one event, or ``None``.

        Deterministic and stateless: the draw comes from its own
        ``SeedSequence([seed, salt, event_seq])`` stream, so the same
        plan degrades the same events regardless of where a resumed
        campaign picks the stream back up.
        """
        return self.pick(event_seq)

    def plan_delivery(
        self, events: "list[StreamEvent]"
    ) -> "list[StreamEvent]":
        """The degraded delivery order of a generated event log.

        Each event gets a delivery priority equal to its generated
        position, displaced forward by the injected fault; a stable
        sort by ``(priority, seq, copy)`` yields the order the campaign
        will actually receive.  Dropped events are absent; duplicated
        events appear twice (same ``seq`` — admission dedup must catch
        the second copy).
        """
        scheduled: list[tuple[int, int, int, StreamEvent]] = []
        for position, event in enumerate(events):
            action = self.action_for(event.seq)
            if action == "drop":
                continue
            priority = position
            if action == "stall":
                priority = position + self.stall_shift
            elif action == "reorder":
                priority = position + self.reorder_shift
            scheduled.append((priority, event.seq, 0, event))
            if action == "duplicate":
                scheduled.append(
                    (position + self.duplicate_shift, event.seq, 1, event)
                )
        scheduled.sort(key=lambda entry: entry[:3])
        return [entry[3] for entry in scheduled]

    def to_dict(self) -> dict:
        """JSON form, stored in the journal's stream config record."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload) -> "StreamChaos":
        return cls(
            **{
                field.name: type(field.default)(payload[field.name])
                for field in fields(cls)
                if field.name in payload
            }
        )
