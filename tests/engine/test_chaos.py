"""Unit tests for the transport-level fault injection layer."""

import hashlib

import pytest

from repro.datasets import WorkerPoolSpec, make_synthetic_dataset
from repro.datasets.grouping import initialize_belief
from repro.aggregation.registry import make_aggregator
from repro.engine import ChaosPlan, ChaosTransport, InlineShard
from repro.engine.chaos import CHAOS_ACTIONS


@pytest.fixture(scope="module")
def shard_parts():
    dataset = make_synthetic_dataset(
        num_groups=2,
        group_size=3,
        answers_per_fact=5,
        pool=WorkerPoolSpec(num_preliminary=8, num_expert=2),
        seed=2,
    )
    experts, _ = dataset.split_crowd(0.9)
    belief, _ = initialize_belief(
        dataset, make_aggregator("MV"), 0.9, smoothing=0.01
    )
    return belief, experts


def _inline(shard_parts):
    belief, experts = shard_parts
    return InlineShard((0, 1), [belief[0], belief[1]], experts)


class TestChaosPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="kill"):
            ChaosPlan(kill=1.5)
        with pytest.raises(ValueError, match="exceed 1"):
            ChaosPlan(kill=0.6, hang=0.6)
        with pytest.raises(ValueError, match="action"):
            ChaosPlan(schedule={(0, 1): "explode"})

    def test_disabled_by_default(self):
        assert not ChaosPlan().enabled
        assert ChaosPlan(kill=0.1).enabled
        assert ChaosPlan(schedule={(0, 0): "kill"}).enabled

    def test_draws_are_deterministic_per_key(self):
        plan = ChaosPlan(kill=0.3, hang=0.3, seed=11)
        draws = [
            plan.action_for(shard, index)
            for shard in range(3)
            for index in range(30)
        ]
        again = [
            plan.action_for(shard, index)
            for shard in range(3)
            for index in range(30)
        ]
        assert draws == again
        assert any(action == "kill" for action in draws)
        assert any(action == "hang" for action in draws)
        assert any(action is None for action in draws)

    def test_draw_stream_is_pinned(self):
        """SHA-256 of the first 2,000 ``(shard, command)`` draws for two
        seeds, recorded before the fault plans shared one draw site: a
        changed salt, key order or threshold walk changes them."""
        pinned = {
            3: "c2c93727d9b2b03e81728189dac618fb"
               "22f8a933a0c9922bbcd01319d76b9e0a",
            2026: "66ee2b67c2ee7f4be90d6dcfe3b61a2e"
                  "b9a85eec0f57d4d95086c06e037eb7de",
        }
        for seed, digest in pinned.items():
            plan = ChaosPlan(
                kill=0.1, hang=0.1, delay=0.1, corrupt=0.1, seed=seed
            )
            actions = [
                plan.action_for(shard, index)
                for shard in range(4)
                for index in range(500)
            ]
            text = "\n".join(map(repr, actions))
            assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_schedule_overrides_rates(self):
        plan = ChaosPlan(schedule={(2, 5): "corrupt"})
        assert plan.action_for(2, 5) == "corrupt"
        assert plan.action_for(2, 4) is None
        assert plan.action_for(1, 5) is None

    def test_parse_round_trips_the_fault_mini_language(self):
        plan = ChaosPlan.parse("kill=0.05, hang=0.1,delay_duration=0.4", seed=3)
        assert plan.kill == 0.05
        assert plan.hang == 0.1
        assert plan.delay_duration == 0.4
        assert plan.seed == 3
        with pytest.raises(ValueError, match="unknown fault"):
            ChaosPlan.parse("explode=0.1")
        with pytest.raises(ValueError, match="bad rate"):
            ChaosPlan.parse("kill=lots")

    def test_from_env(self):
        assert ChaosPlan.from_env({}) is None
        assert ChaosPlan.from_env({"REPRO_CHAOS": ""}) is None
        plan = ChaosPlan.from_env(
            {"REPRO_CHAOS": "kill=0.2", "REPRO_CHAOS_SEED": "7"}
        )
        assert plan.kill == 0.2
        assert plan.seed == 7


class TestChaosTransport:
    def test_transparent_when_no_action_fires(self, shard_parts):
        transport = ChaosTransport(_inline(shard_parts), ChaosPlan(), 0)
        transport.submit("ping")
        assert transport.poll(0.0)
        assert transport.take_reply() == ("ok", "pong")
        assert transport.is_alive()

    def test_kill_makes_worker_dead_after_submit(self, shard_parts):
        plan = ChaosPlan(schedule={(0, 0): "kill"})
        transport = ChaosTransport(_inline(shard_parts), plan, 0)
        transport.submit("ping")
        assert not transport.poll(0.0)
        assert not transport.is_alive()
        with pytest.raises(EOFError):
            transport.take_reply()

    def test_hang_swallows_the_command(self, shard_parts):
        plan = ChaosPlan(schedule={(0, 0): "hang"})
        transport = ChaosTransport(_inline(shard_parts), plan, 0)
        transport.submit("ping")
        assert not transport.poll(0.01)
        # A hung worker looks alive — only the deadline can catch it.
        assert transport.is_alive()

    def test_corrupt_garbles_the_reply_shape(self, shard_parts):
        plan = ChaosPlan(schedule={(0, 0): "corrupt"})
        transport = ChaosTransport(_inline(shard_parts), plan, 0)
        transport.submit("ping")
        assert transport.poll(0.0)
        reply = transport.take_reply()
        assert not (
            isinstance(reply, tuple)
            and len(reply) == 2
            and reply[0] in ("ok", "error")
        )

    def test_delay_holds_the_reply_back(self, shard_parts):
        plan = ChaosPlan(
            schedule={(0, 0): "delay"}, delay_duration=0.15
        )
        transport = ChaosTransport(_inline(shard_parts), plan, 0)
        transport.submit("ping")
        assert not transport.poll(0.01)
        assert transport.poll(0.3)
        assert transport.take_reply() == ("ok", "pong")

    def test_command_offset_continues_the_victims_count(self, shard_parts):
        plan = ChaosPlan(schedule={(0, 1): "kill"})
        first = ChaosTransport(_inline(shard_parts), plan, 0)
        first.submit("ping")
        assert first.take_reply() == ("ok", "pong")
        first.submit("ping")  # command index 1: killed
        assert not first.is_alive()
        # The respawned transport resumes at index 2 — the scheduled
        # kill cannot re-trigger forever.
        respawned = ChaosTransport(
            _inline(shard_parts), plan, 0, command_offset=first.commands_seen
        )
        respawned.submit("ping")
        assert respawned.take_reply() == ("ok", "pong")


class TestInlineShardTransport:
    def test_deferred_execution(self, shard_parts):
        shard = _inline(shard_parts)
        assert not shard.poll(0.0)
        shard.submit("ping")
        assert shard.poll(0.0)
        assert shard.take_reply() == ("ok", "pong")
        assert not shard.poll(0.0)

    def test_application_errors_are_wire_replies(self, shard_parts):
        shard = _inline(shard_parts)
        shard.submit("commit")  # nothing staged
        status, error = shard.take_reply()
        assert status == "error"
        assert isinstance(error, Exception)

    def test_chaos_kill_is_a_real_death(self, shard_parts):
        shard = _inline(shard_parts)
        shard.submit("ping")
        shard.chaos_kill()
        assert not shard.is_alive()
        assert not shard.poll(0.0)
        with pytest.raises(EOFError):
            shard.take_reply()
        with pytest.raises(OSError):
            shard.submit("ping")

    def test_actions_cover_the_documented_set(self):
        assert set(CHAOS_ACTIONS) == {"kill", "hang", "delay", "corrupt"}
