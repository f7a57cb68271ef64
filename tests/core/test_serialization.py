"""Unit tests for JSON serialization and session checkpointing."""

import json

import numpy as np
import pytest

from repro.core import (
    BeliefState,
    Crowd,
    Fact,
    FactSet,
    FactoredBelief,
    SerializationError,
    belief_state_from_dict,
    belief_state_to_dict,
    crowd_from_dict,
    crowd_to_dict,
    factored_belief_from_dict,
    factored_belief_to_dict,
    load_belief,
    load_run_result,
    run_result_from_dict,
    run_result_to_dict,
    save_belief,
    save_run_result,
)


@pytest.fixture
def belief():
    facts = FactSet(
        [
            Fact(fact_id=1, instance_id="t1", label="positive",
                 text="Great!"),
            Fact(fact_id=2, instance_id="t2", label="positive"),
        ]
    )
    return BeliefState.from_marginals(facts, [0.7, 0.3])


@pytest.fixture
def factored(belief):
    other = BeliefState.uniform(FactSet.from_ids([3, 4]))
    return FactoredBelief([belief, other])


class TestBeliefRoundTrip:
    def test_belief_state(self, belief):
        payload = belief_state_to_dict(belief)
        json.dumps(payload)  # must be JSON-compatible
        restored = belief_state_from_dict(payload)
        assert restored.facts == belief.facts
        assert np.allclose(restored.probabilities, belief.probabilities)

    def test_fact_metadata_preserved(self, belief):
        restored = belief_state_from_dict(belief_state_to_dict(belief))
        fact = restored.facts.by_id(1)
        assert fact.instance_id == "t1"
        assert fact.text == "Great!"

    def test_factored_belief(self, factored):
        restored = factored_belief_from_dict(
            factored_belief_to_dict(factored)
        )
        assert restored.fact_ids == factored.fact_ids
        for original, loaded in zip(factored, restored):
            assert np.allclose(
                original.probabilities, loaded.probabilities
            )

    def test_file_round_trip(self, factored, tmp_path):
        path = save_belief(factored, tmp_path / "nested" / "belief.json")
        restored = load_belief(path)
        assert restored.fact_ids == factored.fact_ids

    def test_malformed_payload(self):
        with pytest.raises(SerializationError):
            factored_belief_from_dict({"groups": []})
        with pytest.raises(SerializationError):
            belief_state_from_dict({"probabilities": [1.0]})


class TestCrowdRoundTrip:
    def test_round_trip(self):
        crowd = Crowd.from_accuracies([0.6, 0.95], prefix="x")
        restored = crowd_from_dict(crowd_to_dict(crowd))
        assert restored == crowd

    def test_malformed(self):
        with pytest.raises(SerializationError):
            crowd_from_dict({})


class TestRunResultRoundTrip:
    def _run(self, factored):
        from repro.core import HierarchicalCrowdsourcing
        from repro.simulation import SimulatedExpertPanel

        experts = Crowd.from_accuracies([0.9, 0.95])
        panel = SimulatedExpertPanel(
            {1: True, 2: False, 3: True, 4: False}, rng=0
        )
        return HierarchicalCrowdsourcing(experts, k=1).run(
            factored, panel, budget=8,
            ground_truth={1: True, 2: False, 3: True, 4: False},
        )

    def test_round_trip(self, factored, tmp_path):
        result = self._run(factored)
        path = save_run_result(result, tmp_path / "run.json")
        restored = load_run_result(path)
        assert len(restored.history) == len(result.history)
        assert restored.history[-1].quality == pytest.approx(
            result.history[-1].quality
        )
        assert restored.final_labels == result.final_labels

    def test_history_fields_preserved(self, factored):
        result = self._run(factored)
        restored = run_result_from_dict(run_result_to_dict(result))
        for original, loaded in zip(result.history, restored.history):
            assert loaded.round_index == original.round_index
            assert loaded.query_fact_ids == original.query_fact_ids
            assert loaded.budget_spent == original.budget_spent
            assert loaded.accuracy == original.accuracy


class TestSessionCheckpoint:
    def _session(self, factored, experts, **kwargs):
        from repro.simulation import OnlineCheckingSession

        return OnlineCheckingSession(
            factored, experts, budget=10,
            ground_truth={1: True, 2: False, 3: True, 4: False},
            **kwargs,
        )

    def test_mid_session_round_trip(self, factored):
        from repro.simulation import (
            OnlineCheckingSession,
            SimulatedExpertPanel,
        )

        experts = Crowd.from_accuracies([0.9, 0.95])
        truth = {1: True, 2: False, 3: True, 4: False}
        session = self._session(factored, experts)
        panel = SimulatedExpertPanel(truth, rng=1)
        queries = session.next_queries()
        session.submit(panel.collect(queries, experts))

        payload = session.to_checkpoint()
        json.dumps(payload)
        restored = OnlineCheckingSession.from_checkpoint(
            payload, experts
        )
        assert restored.spent_budget == session.spent_budget
        assert restored.pending_queries is None
        assert len(restored.history) == len(session.history)

        # The restored session keeps working.
        queries = restored.next_queries()
        restored.submit(panel.collect(queries, experts))
        assert restored.spent_budget > session.spent_budget

    def test_pending_queries_survive(self, factored):
        from repro.simulation import OnlineCheckingSession

        experts = Crowd.from_accuracies([0.9])
        session = self._session(factored, experts)
        pending = tuple(session.next_queries())
        restored = OnlineCheckingSession.from_checkpoint(
            session.to_checkpoint(), experts
        )
        assert restored.pending_queries == pending

    def test_malformed_checkpoint(self, factored):
        from repro.simulation import OnlineCheckingSession

        experts = Crowd.from_accuracies([0.9])
        with pytest.raises(SerializationError):
            OnlineCheckingSession.from_checkpoint({"nope": 1}, experts)


class TestFormatVersions:
    """v9 is written; v8 still is for journals that predate v9; v1–v8
    payloads still read."""

    def test_payloads_are_tagged_v9(self, belief, factored):
        from repro.core import FORMAT_VERSION

        assert FORMAT_VERSION == 9
        assert belief_state_to_dict(belief)["version"] == 9
        assert factored_belief_to_dict(factored)["version"] == 9
        assert crowd_to_dict(Crowd.from_accuracies([0.9]))["version"] == 9
        assert isinstance(belief_state_to_dict(belief)["probabilities"], str)

    def test_payloads_are_tagged_v8(self, belief, factored):
        """What a journal whose header predates v9 still receives: the
        version-8 payloads with JSON float probabilities."""
        payload = belief_state_to_dict(belief, 8)
        assert payload["version"] == 8
        assert payload["probabilities"] == belief.probabilities.tolist()
        assert factored_belief_to_dict(factored, 8)["version"] == 8
        assert crowd_to_dict(Crowd.from_accuracies([0.9]), 8)["version"] == 8
        restored = belief_state_from_dict(payload)
        assert (
            restored.probabilities.tobytes() == belief.probabilities.tobytes()
        )

    def test_v2_payload_still_loads(self, belief):
        payload = belief_state_to_dict(belief)
        payload["version"] = 2  # what a v2 writer produced
        restored = belief_state_from_dict(payload)
        assert np.allclose(restored.probabilities, belief.probabilities)

    def test_v1_payload_without_version_still_loads(self, belief):
        payload = belief_state_to_dict(belief)
        del payload["version"]  # what a v1 writer produced
        restored = belief_state_from_dict(payload)
        assert np.allclose(restored.probabilities, belief.probabilities)

    def test_v1_round_record_without_fault_events_loads(self):
        from repro.core import round_record_from_dict

        record = round_record_from_dict(
            {
                "round_index": 0,
                "query_fact_ids": [1, 2],
                "cost": 4.0,
                "budget_spent": 4.0,
                "quality": -1.5,
            }
        )
        assert record.fault_events == ()

    def test_unsupported_version_rejected(self, belief):
        payload = belief_state_to_dict(belief)
        payload["version"] = 99
        with pytest.raises(SerializationError, match="version"):
            belief_state_from_dict(payload)

    def test_round_trip_is_bitwise_exact(self, factored):
        restored = factored_belief_from_dict(
            json.loads(json.dumps(factored_belief_to_dict(factored)))
        )
        for ours, theirs in zip(restored, factored):
            assert np.array_equal(ours.probabilities, theirs.probabilities)

    def test_fault_event_round_trip(self):
        from repro.core import (
            FaultEvent,
            fault_event_from_dict,
            fault_event_to_dict,
        )

        event = FaultEvent(
            kind="no_show",
            round_index=3,
            attempt=1,
            worker_id="e0",
            fact_ids=(1, 2),
            detail="vanished",
        )
        restored = fault_event_from_dict(
            json.loads(json.dumps(fault_event_to_dict(event)))
        )
        assert restored == event

    def test_run_result_round_trips_fault_events(self, factored):
        from repro.core import (
            FaultEvent,
            RoundRecord,
            RunResult,
        )

        record = RoundRecord(
            round_index=0,
            query_fact_ids=(1,),
            cost=2.0,
            budget_spent=2.0,
            quality=-1.0,
            accuracy=None,
            fault_events=(
                FaultEvent(kind="timeout", round_index=0, fact_ids=(1,)),
            ),
        )
        result = RunResult(belief=factored, history=[record])
        restored = run_result_from_dict(
            json.loads(json.dumps(run_result_to_dict(result)))
        )
        assert restored.history[0].fault_events[0].kind == "timeout"


class TestJournal:
    def test_append_and_read(self, tmp_path):
        from repro.core import append_journal_record, read_journal

        path = tmp_path / "j.jsonl"
        append_journal_record(path, {"kind": "header", "version": 2})
        append_journal_record(path, {"kind": "event", "event": {"kind": "x"}})
        records = read_journal(path)
        assert [record["kind"] for record in records] == ["header", "event"]

    def test_records_need_a_kind(self, tmp_path):
        from repro.core import append_journal_record

        with pytest.raises(SerializationError, match="kind"):
            append_journal_record(tmp_path / "j.jsonl", {"data": 1})

    def test_torn_final_line_is_dropped(self, tmp_path):
        from repro.core import append_journal_record, read_journal

        path = tmp_path / "j.jsonl"
        append_journal_record(path, {"kind": "header", "version": 2})
        append_journal_record(path, {"kind": "checkpoint", "n": 1})
        with path.open("a") as handle:
            handle.write('{"kind": "checkpoint", "n": 2, "tr')  # crash
        records = read_journal(path)
        assert len(records) == 2
        assert records[-1]["n"] == 1

    def test_corrupt_middle_line_raises(self, tmp_path):
        from repro.core import read_journal

        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"kind": "header", "version": 2}\n'
            "not json at all\n"
            '{"kind": "checkpoint"}\n'
        )
        with pytest.raises(SerializationError, match="line 2"):
            read_journal(path)

    def test_journal_requires_header(self, tmp_path):
        from repro.core import read_journal

        path = tmp_path / "j.jsonl"
        path.write_text('{"kind": "checkpoint"}\n')
        with pytest.raises(SerializationError, match="header"):
            read_journal(path)

    def test_journal_rejects_newer_version(self, tmp_path):
        from repro.core import read_journal

        path = tmp_path / "j.jsonl"
        path.write_text('{"kind": "header", "version": 99}\n')
        with pytest.raises(SerializationError, match="version"):
            read_journal(path)

    @pytest.mark.parametrize("version", ["[8]", '{"v": 8}', "true"])
    def test_journal_rejects_non_integer_versions(self, tmp_path, version):
        # regression: a list or object version raised a bare TypeError
        # (unhashable) from the framing test, and ``true`` read as v1
        from repro.core import read_journal

        path = tmp_path / "j.jsonl"
        path.write_text(
            f'{{"kind": "header", "version": {version}}}\n'
            '{"kind": "checkpoint"}\n'
        )
        with pytest.raises(SerializationError, match="version"):
            read_journal(path)

    def test_check_version_rejects_bool(self):
        # ``bool`` subclasses ``int``: ``true`` used to pass as version 1
        from repro.core.serialization import check_version

        with pytest.raises(SerializationError, match="version"):
            check_version({"version": True})


class TestAtomicWriteJson:
    def test_writes_readable_json(self, tmp_path):
        from repro.core import atomic_write_json

        path = atomic_write_json({"a": 1}, tmp_path / "deep" / "out.json")
        assert json.loads(path.read_text()) == {"a": 1}

    def test_leaves_no_temp_files_behind(self, tmp_path):
        from repro.core import atomic_write_json

        atomic_write_json({"a": 1}, tmp_path / "out.json")
        atomic_write_json({"a": 2}, tmp_path / "out.json")
        assert sorted(entry.name for entry in tmp_path.iterdir()) == [
            "out.json"
        ]

    def test_failed_write_preserves_the_old_file(self, tmp_path):
        from repro.core import atomic_write_json

        path = tmp_path / "out.json"
        atomic_write_json({"a": 1}, path)
        with pytest.raises(TypeError):
            atomic_write_json({"bad": object()}, path)
        assert json.loads(path.read_text()) == {"a": 1}
        assert sorted(entry.name for entry in tmp_path.iterdir()) == [
            "out.json"
        ]


class TestJournalRepair:
    def _journal(self, tmp_path):
        from repro.core import append_journal_record

        path = tmp_path / "j.jsonl"
        append_journal_record(path, {"kind": "header", "version": 4})
        append_journal_record(path, {"kind": "checkpoint", "n": 1})
        append_journal_record(path, {"kind": "event", "n": 2})
        return path

    def test_intact_journal_untouched(self, tmp_path):
        from repro.core import repair_journal

        path = self._journal(tmp_path)
        before = path.read_bytes()
        assert repair_journal(path) is False
        assert path.read_bytes() == before

    def test_unterminated_tail_removed(self, tmp_path):
        from repro.core import repair_journal

        path = self._journal(tmp_path)
        before = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(b'{"kind": "event", "n": 3, "tr')
        assert repair_journal(path) is True
        assert path.read_bytes() == before

    def test_terminated_but_corrupt_final_line_removed(self, tmp_path):
        from repro.core import repair_journal

        path = self._journal(tmp_path)
        before = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(b'{"kind": "event", "n": 3, "tr\n')
        assert repair_journal(path) is True
        assert path.read_bytes() == before

    def test_append_after_repair_continues_cleanly(self, tmp_path):
        """The reason repair exists: without it the next append glues
        onto the torn fragment and corrupts the merged line."""
        from repro.core import (
            append_journal_record,
            read_journal,
            repair_journal,
        )

        path = self._journal(tmp_path)
        with path.open("ab") as handle:
            handle.write(b'{"kind": "event", "n": 3, "tr')
        repair_journal(path)
        append_journal_record(path, {"kind": "event", "n": 3})
        assert [record["kind"] for record in read_journal(path)] == [
            "header",
            "checkpoint",
            "event",
            "event",
        ]

    def test_missing_file_is_a_noop(self, tmp_path):
        from repro.core import repair_journal

        assert repair_journal(tmp_path / "absent.jsonl") is False


class TestTrimToLastCheckpoint:
    def test_trailing_events_after_checkpoint_removed(self, tmp_path):
        from repro.core import (
            append_journal_record,
            read_journal,
            trim_journal_to_last_checkpoint,
        )

        path = tmp_path / "j.jsonl"
        append_journal_record(path, {"kind": "header", "version": 4})
        append_journal_record(path, {"kind": "checkpoint", "n": 1})
        append_journal_record(path, {"kind": "event", "n": 2})
        append_journal_record(path, {"kind": "checkpoint", "n": 3})
        append_journal_record(path, {"kind": "event", "n": 4})
        append_journal_record(path, {"kind": "event", "n": 5})
        removed = trim_journal_to_last_checkpoint(path)
        assert removed > 0
        assert [record["n"] for record in read_journal(path)[1:]] == [1, 2, 3]

    def test_journal_ending_on_checkpoint_untouched(self, tmp_path):
        from repro.core import (
            append_journal_record,
            trim_journal_to_last_checkpoint,
        )

        path = tmp_path / "j.jsonl"
        append_journal_record(path, {"kind": "header", "version": 4})
        append_journal_record(path, {"kind": "checkpoint", "n": 1})
        before = path.read_bytes()
        assert trim_journal_to_last_checkpoint(path) == 0
        assert path.read_bytes() == before

    def test_records_before_first_checkpoint_survive(self, tmp_path):
        """Metadata records (here an engine record, as journals of the
        removed process-shard engine carry) sit between header and
        first checkpoint; trimming must never drop them."""
        from repro.core import (
            append_journal_record,
            read_journal,
            trim_journal_to_last_checkpoint,
        )

        path = tmp_path / "j.jsonl"
        append_journal_record(path, {"kind": "header", "version": 4})
        append_journal_record(path, {"kind": "engine", "jobs": 3})
        append_journal_record(path, {"kind": "checkpoint", "n": 1})
        append_journal_record(path, {"kind": "event", "n": 2})
        trim_journal_to_last_checkpoint(path)
        assert [record["kind"] for record in read_journal(path)] == [
            "header",
            "engine",
            "checkpoint",
        ]
