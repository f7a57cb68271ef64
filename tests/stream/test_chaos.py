"""Seeded delivery degradation: stateless draws, deterministic plans."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.stream import StreamChaos, StreamEvent
from repro.stream.chaos import STREAM_CHAOS_ACTIONS


def _events(count: int) -> list[StreamEvent]:
    return [
        StreamEvent(
            seq=index,
            time=float(index),
            kind="new_fact",
            payload={"fact_id": index},
        )
        for index in range(count)
    ]


def test_rate_validation():
    with pytest.raises(ValueError):
        StreamChaos(drop=0.6, stall=0.5)
    with pytest.raises(ValueError):
        StreamChaos(reorder=-0.1)
    with pytest.raises(ValueError):
        StreamChaos(reorder=0.1, reorder_shift=0)


def test_disabled_chaos_is_identity():
    chaos = StreamChaos()
    assert not chaos.enabled
    events = _events(10)
    assert chaos.plan_delivery(events) == events


def test_action_draws_are_stateless_and_seeded():
    chaos = StreamChaos(drop=0.1, stall=0.2, reorder=0.2, duplicate=0.1, seed=9)
    twin = StreamChaos(drop=0.1, stall=0.2, reorder=0.2, duplicate=0.1, seed=9)
    actions = [chaos.action_for(seq) for seq in range(200)]
    assert actions == [twin.action_for(seq) for seq in range(200)]
    # draws are per-event, so evaluation order cannot matter
    assert actions[::-1] == [
        chaos.action_for(seq) for seq in reversed(range(200))
    ]
    assert set(actions) - {None} <= set(STREAM_CHAOS_ACTIONS)


def test_plan_delivery_is_deterministic():
    chaos = StreamChaos(reorder=0.3, duplicate=0.15, stall=0.1, seed=4)
    events = _events(60)
    assert chaos.plan_delivery(events) == chaos.plan_delivery(events)


def test_delivery_stream_is_pinned():
    """SHA-256 of the delivery order of 2,000 events for two seeds,
    recorded before the fault plans shared one draw site: a changed
    salt, key order or threshold walk changes them."""
    pinned = {
        3: "ac7b9ede89a7eef2cbd6afafc4db1f1b"
           "9f81d42e0c5c9155d8cc30b1161aa42c",
        2026: "8677ad33dc20a6be552ef101b417bc39"
              "58fb90c65732e43721da367c8c7407e3",
    }
    events = _events(2000)
    for seed, digest in pinned.items():
        chaos = StreamChaos(
            drop=0.1, stall=0.1, reorder=0.1, duplicate=0.1, seed=seed
        )
        order = [event.seq for event in chaos.plan_delivery(events)]
        text = "\n".join(map(repr, order))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_drop_removes_and_duplicate_doubles():
    events = _events(120)
    chaos = StreamChaos(drop=0.2, duplicate=0.2, seed=2)
    delivered = Counter(event.seq for event in chaos.plan_delivery(events))
    dropped = [
        event.seq
        for event in events
        if chaos.action_for(event.seq) == "drop"
    ]
    doubled = [
        event.seq
        for event in events
        if chaos.action_for(event.seq) == "duplicate"
    ]
    assert dropped and doubled  # the seed exercises both paths
    assert all(delivered[seq] == 0 for seq in dropped)
    assert all(delivered[seq] == 2 for seq in doubled)
    assert all(
        delivered[event.seq] == 1
        for event in events
        if event.seq not in set(dropped) | set(doubled)
    )


def test_reorder_is_a_permutation():
    events = _events(80)
    chaos = StreamChaos(reorder=0.4, stall=0.2, seed=6)
    delivered = chaos.plan_delivery(events)
    assert sorted(event.seq for event in delivered) == [
        event.seq for event in events
    ]
    assert [event.seq for event in delivered] != [
        event.seq for event in events
    ]


def test_dict_round_trip_and_parse():
    chaos = StreamChaos(
        drop=0.05, stall=0.1, reorder=0.2, duplicate=0.1, seed=3
    )
    assert StreamChaos.from_dict(chaos.to_dict()) == chaos
    parsed = StreamChaos.parse("reorder=0.2,duplicate=0.1", seed=5)
    assert parsed.reorder == 0.2
    assert parsed.duplicate == 0.1
    assert parsed.seed == 5


def test_from_env():
    assert StreamChaos.from_env(environ={}) is None
    chaos = StreamChaos.from_env(
        environ={
            "REPRO_STREAM_CHAOS": "stall=0.3",
            "REPRO_STREAM_CHAOS_SEED": "11",
        }
    )
    assert chaos is not None
    assert chaos.stall == 0.3
    assert chaos.seed == 11
