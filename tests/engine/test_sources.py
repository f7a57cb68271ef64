"""Tests for the partition-independent keyed answer source and its
concurrent collection."""

import pickle

import pytest

from repro.core import Crowd
from repro.engine import (
    ConcurrentAnswerSource,
    KeyedExpertPanel,
    stable_worker_digest,
)

TRUTH = {fact_id: fact_id % 3 == 0 for fact_id in range(12)}


def _experts() -> Crowd:
    return Crowd.from_accuracies([0.8, 0.9, 0.95], prefix="e")


def _family_as_dict(family):
    return {
        answer_set.worker.worker_id: dict(answer_set.answers)
        for answer_set in family.answer_sets
    }


class TestStableWorkerDigest:
    def test_known_value_is_process_independent(self):
        # Frozen: a resumed run in a fresh interpreter must compute the
        # same digest regardless of PYTHONHASHSEED.
        assert stable_worker_digest("e0") == 6667833931945024209

    def test_distinct_workers_get_distinct_digests(self):
        digests = {stable_worker_digest(f"w{index}") for index in range(50)}
        assert len(digests) == 50


class TestKeyedExpertPanel:
    def test_answers_are_order_independent(self):
        experts = _experts()
        forward = KeyedExpertPanel(TRUTH, seed=3).collect(
            [0, 1, 2, 3], experts
        )
        backward = KeyedExpertPanel(TRUTH, seed=3).collect(
            [3, 2, 1, 0], experts
        )
        assert _family_as_dict(forward) == _family_as_dict(backward)

    def test_answers_are_partition_independent(self):
        experts = _experts()
        whole = _family_as_dict(
            KeyedExpertPanel(TRUTH, seed=3).collect(range(6), experts)
        )
        split_panel = KeyedExpertPanel(TRUTH, seed=3)
        first = _family_as_dict(split_panel.collect([0, 1, 2], experts))
        # A fresh panel for the other half: panels that never see each
        # other's facts must still draw the same answers.
        other_panel = KeyedExpertPanel(TRUTH, seed=3)
        second = _family_as_dict(other_panel.collect([3, 4, 5], experts))
        merged = {
            worker_id: {**first[worker_id], **second[worker_id]}
            for worker_id in whole
        }
        assert merged == whole

    def test_reasking_advances_the_stream(self):
        experts = _experts()
        panel = KeyedExpertPanel(TRUTH, seed=3)
        first = _family_as_dict(panel.collect([0], experts))
        streams = [
            _family_as_dict(panel.collect([0], experts)) for _ in range(8)
        ]
        # Not every re-ask can repeat the first answer for every worker
        # (the accuracy draws are independent per ask).
        assert any(stream != first for stream in streams)

    def test_accuracy_one_always_answers_truth(self):
        oracle = Crowd.from_accuracies([1.0], prefix="o")
        panel = KeyedExpertPanel(TRUTH, seed=0)
        family = panel.collect(list(TRUTH), oracle)
        assert _family_as_dict(family)["o0"] == TRUTH

    def test_state_round_trip_replays_future_answers(self):
        experts = _experts()
        panel = KeyedExpertPanel(TRUTH, seed=3)
        panel.collect([0, 1], experts)
        state = panel.get_state()
        reference = _family_as_dict(panel.collect([0, 2], experts))
        restored = KeyedExpertPanel(TRUTH, seed=3)
        restored.set_state(state)
        assert _family_as_dict(restored.collect([0, 2], experts)) == reference
        assert restored.answers_served == panel.answers_served

    def test_answers_served_counts(self):
        panel = KeyedExpertPanel(TRUTH, seed=0)
        panel.collect([0, 1, 2], _experts())
        assert panel.answers_served == 9


class TestConcurrentAnswerSource:
    def test_matches_one_serial_panel(self):
        experts = _experts()
        serial = KeyedExpertPanel(TRUTH, seed=3)
        concurrent = ConcurrentAnswerSource(KeyedExpertPanel(TRUTH, seed=3), 3)
        queries = [0, 4, 5, 9, 11]
        for _ in range(3):  # repeat so ask counters advance in sync
            ours = concurrent.collect(queries, experts)
            theirs = serial.collect(queries, experts)
            assert _family_as_dict(ours) == _family_as_dict(theirs)
            # And the family structure (worker order, fact order) must
            # match exactly, not just the values.
            assert [
                answer_set.worker.worker_id for answer_set in ours.answer_sets
            ] == [
                answer_set.worker.worker_id
                for answer_set in theirs.answer_sets
            ]
        assert concurrent.answers_served == serial.answers_served

    @pytest.mark.parametrize("threads", [1, 2, 3, 4, 5])
    def test_every_chunking_matches_one_serial_collect(self, threads):
        """1 to k+1 queries (k = 4) on 1 to 5 threads: fewer queries
        than threads, uneven chunks and one chunk per query all give
        the serial family byte for byte, round after round."""
        experts = _experts()
        for count in range(1, 6):
            queries = [(3 * position) % 12 for position in range(count)]
            serial = KeyedExpertPanel(TRUTH, seed=3)
            concurrent = ConcurrentAnswerSource(
                KeyedExpertPanel(TRUTH, seed=3), threads
            )
            for _ in range(3):
                ours = concurrent.collect(queries, experts)
                theirs = serial.collect(queries, experts)
                assert pickle.dumps(ours) == pickle.dumps(theirs), (
                    count, threads
                )
            assert concurrent.answers_served == serial.answers_served

    def test_metrics_count_each_thread_chunk(self):
        from repro.obs import OBS

        OBS.reset()
        OBS.enable()
        try:
            ConcurrentAnswerSource(KeyedExpertPanel(TRUTH, seed=3), 2).collect(
                [0, 4, 5, 9, 11], _experts()
            )
            metrics = OBS.registry.snapshot()["metrics"]
            spans = [
                span for span in OBS.tracer.spans()
                if span["name"] == "collect.concurrent"
            ]
        finally:
            OBS.reset()
        (queries,) = metrics["repro_collect_queries_total"]["series"]
        (sizes,) = metrics["repro_collect_chunk_size"]["series"]
        assert queries["value"] == 5
        assert (sizes["count"], sizes["sum"]) == (2, 5)  # chunks of 3 and 2
        assert [(span["queries"], span["threads"]) for span in spans] == [
            (5, 2)
        ]

    def test_repeated_fact_keeps_the_last_ask_index(self):
        experts = _experts()
        serial = KeyedExpertPanel(TRUTH, seed=3)
        concurrent = ConcurrentAnswerSource(KeyedExpertPanel(TRUTH, seed=3), 2)
        for queries in ([1, 2, 1], [2, 1, 5]):
            assert pickle.dumps(
                concurrent.collect(queries, experts)
            ) == pickle.dumps(serial.collect(queries, experts))
