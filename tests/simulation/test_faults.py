"""Unit tests for the fault-injection layer."""

import hashlib

import numpy as np
import pytest

from repro.core import (
    AnswerFamily,
    AnswerSet,
    Crowd,
    PartialAnswerFamily,
    Worker,
)
from repro.simulation import (
    AnswerCollectionTimeout,
    FaultModel,
    FaultyExpertPanel,
    ScriptedAnswerSource,
    SimulatedExpertPanel,
)
from repro.storage.chaos import StorageChaos
from repro.stream.chaos import StreamChaos

pytestmark = pytest.mark.chaos

TRUTH = {0: True, 1: False, 2: True}


@pytest.fixture
def experts():
    return Crowd.from_accuracies([0.95, 0.9], prefix="e")


def _scripted(experts):
    script = {
        (worker.worker_id, fact_id): TRUTH[fact_id]
        for worker in experts
        for fact_id in TRUTH
    }
    return ScriptedAnswerSource(script)


class TestFaultModel:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="no_show"):
            FaultModel(no_show=1.5)
        with pytest.raises(ValueError, match="timeout"):
            FaultModel(timeout=-0.1)

    def test_exclusive_behaviors_must_fit(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            FaultModel(no_show=0.5, spam=0.4, adversarial=0.3)

    def test_per_worker_override(self):
        model = FaultModel(
            no_show=0.1, per_worker={"e1": FaultModel(no_show=0.9)}
        )
        assert model.rates_for("e1").no_show == 0.9
        assert model.rates_for("e0").no_show == 0.1

    def test_parse(self):
        model = FaultModel.parse("no_show=0.1, spam=0.05,timeout=0.2", seed=4)
        assert model.no_show == 0.1
        assert model.spam == 0.05
        assert model.timeout == 0.2
        assert model.seed == 4

    def test_parse_rejects_unknown_fault(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultModel.parse("latency=0.5")

    def test_parse_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="bad rate"):
            FaultModel.parse("no_show=lots")


def _env(name: str, spec: str, seed: str) -> dict[str, str]:
    return {name: spec, f"{name}_SEED": seed}


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(
            lambda: StorageChaos(fsync_error=0.5, seed=-1), id="chaos-seed"
        ),
        pytest.param(lambda: StreamChaos(drop=0.5, seed=-2), id="stream-seed"),
        pytest.param(
            lambda: StorageChaos(bitflip=0.5, seed=-3), id="storage-seed"
        ),
        pytest.param(lambda: FaultModel(seed=-1), id="faults-seed"),
        pytest.param(lambda: FaultModel(seed=1.5), id="float-seed"),
        pytest.param(lambda: StreamChaos(seed=True), id="bool-seed"),
        pytest.param(
            lambda: StreamChaos.from_env(
                _env("REPRO_STREAM_CHAOS", "drop=0.1", "1.5")
            ),
            id="chaos-env-seed",
        ),
        pytest.param(
            lambda: StreamChaos.from_env(
                _env("REPRO_STREAM_CHAOS", "stall=0.1", "-1")
            ),
            id="stream-env-seed",
        ),
        pytest.param(
            lambda: StorageChaos.from_env(
                _env("REPRO_STORAGE_CHAOS", "enospc=0.1", "-1")
            ),
            id="storage-env-seed",
        ),
        pytest.param(
            lambda: StorageChaos.parse("bitflip=0.1", seed=-1),
            id="parse-seed",
        ),
        pytest.param(
            lambda: FaultModel(timeout=float("nan")), id="nan-rate"
        ),
        pytest.param(
            lambda: StorageChaos(short_write=0.6, bitflip=0.6),
            id="exclusive-sum",
        ),
        pytest.param(
            lambda: StreamChaos.parse("drop=0.1,drop=0.9"), id="chaos-twice"
        ),
        pytest.param(
            lambda: StreamChaos.parse("stall=0.1, stall=0.1"),
            id="stream-twice",
        ),
        pytest.param(
            lambda: StorageChaos.parse("enospc=0.1,enospc=0.2"),
            id="storage-twice",
        ),
        pytest.param(
            lambda: FaultModel.parse("spam=0.1,spam=0.2"), id="faults-twice"
        ),
    ],
)
def test_bad_fault_configs_are_rejected_where_built(build):
    """Every fault config checks its seed, rates and durations when it
    is built, from code, a spec or the environment — not at its first
    draw, deep inside a collection round or a journal write."""
    with pytest.raises(ValueError):
        build()


def test_numpy_integer_seeds_are_accepted():
    plan = StorageChaos(bitflip=0.5, seed=np.int64(7))
    twin = StorageChaos(bitflip=0.5, seed=7)
    assert [plan.action_for("t/run.jsonl", i) for i in range(20)] == [
        twin.action_for("t/run.jsonl", i) for i in range(20)
    ]


class TestFaultyExpertPanel:
    def test_zero_rates_are_a_passthrough(self, experts):
        """With all rates zero the wrapper must return the inner family
        unchanged (drop-in replacement)."""
        inner = _scripted(experts)
        panel = FaultyExpertPanel(inner, FaultModel())
        family = panel.collect([0, 1, 2], experts)
        assert isinstance(family, AnswerFamily)
        assert not isinstance(family, PartialAnswerFamily)
        assert len(family) == 2
        assert panel.drain_events() == []

    def test_no_show_drops_workers(self, experts):
        panel = FaultyExpertPanel(
            _scripted(experts), FaultModel(no_show=1.0, seed=0)
        )
        family = panel.collect([0, 1], experts)
        assert isinstance(family, PartialAnswerFamily)
        assert family.is_empty
        assert sorted(family.missing_worker_ids) == ["e0", "e1"]
        kinds = [event.kind for event in panel.drain_events()]
        assert kinds == ["no_show", "no_show"]

    def test_adversarial_flips_answers(self, experts):
        panel = FaultyExpertPanel(
            _scripted(experts), FaultModel(adversarial=1.0, seed=0)
        )
        family = panel.collect([0, 1], experts)
        for answer_set in family:
            assert answer_set.answers == {0: not TRUTH[0], 1: not TRUTH[1]}
        assert all(
            event.kind == "adversarial" for event in panel.drain_events()
        )

    def test_partial_drops_individual_answers(self, experts):
        panel = FaultyExpertPanel(
            _scripted(experts), FaultModel(partial=0.5, seed=1)
        )
        family = panel.collect([0, 1, 2], experts)
        assert isinstance(family, PartialAnswerFamily)
        assert 0 < family.num_answers < 6
        events = panel.drain_events()
        assert events
        assert {event.kind for event in events} <= {"partial", "no_show"}

    def test_timeout_raises_and_records(self, experts):
        panel = FaultyExpertPanel(
            _scripted(experts), FaultModel(timeout=1.0, seed=0)
        )
        with pytest.raises(AnswerCollectionTimeout):
            panel.collect([0], experts)
        (event,) = panel.drain_events()
        assert event.kind == "timeout"
        assert event.fact_ids == (0,)

    def test_spam_answers_ignore_the_truth(self, experts):
        rng_panel = FaultyExpertPanel(
            SimulatedExpertPanel(TRUTH, rng=3),
            FaultModel(spam=1.0, seed=5),
        )
        seen = set()
        for _ in range(20):
            family = rng_panel.collect([0], experts)
            for answer_set in family:
                seen.add(answer_set.answers[0])
        assert seen == {True, False}

    def test_event_stream_is_pinned(self):
        """SHA-256 of the first 2,000 fault events of a seeded panel for
        two seeds, recorded before the fault plans shared one
        validator and spec parser."""
        pinned = {
            3: "a87f4eb6b85c4a773ea5d2c245030975"
               "9d2e840556d3d618066aa8a81daa08e9",
            2026: "352308a18867d2f8ef4ae8a1e39d3539"
                  "8a295fbd07cf3ead3f4f2e459979a91e",
        }
        truth = {fact_id: fact_id % 3 != 0 for fact_id in range(6)}
        experts = Crowd.from_accuracies([0.95, 0.9, 0.92], prefix="e")
        for seed, digest in pinned.items():
            panel = FaultyExpertPanel(
                SimulatedExpertPanel(truth, rng=0),
                FaultModel(
                    no_show=0.1, timeout=0.1, spam=0.1, adversarial=0.1,
                    partial=0.2, seed=seed,
                ),
            )
            events = []
            while len(events) < 2000:
                try:
                    panel.collect([0, 2, 4], experts)
                except AnswerCollectionTimeout:
                    pass
                events.extend(
                    (event.kind, event.worker_id, event.fact_ids)
                    for event in panel.drain_events()
                )
            text = "\n".join(map(repr, events[:2000]))
            assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_state_round_trip_replays_faults(self, experts):
        model = FaultModel(no_show=0.3, partial=0.3, seed=9)
        panel = FaultyExpertPanel(SimulatedExpertPanel(TRUTH, rng=2), model)
        state = panel.get_state()
        first = [panel.collect([0, 1, 2], experts) for _ in range(3)]
        panel.set_state(state)
        second = [panel.collect([0, 1, 2], experts) for _ in range(3)]
        for one, two in zip(first, second):
            assert [
                (a.worker.worker_id, dict(a.answers)) for a in one
            ] == [(a.worker.worker_id, dict(a.answers)) for a in two]
