"""Partition-independent answer sources and concurrent collection.

:class:`~repro.simulation.oracle.SimulatedExpertPanel` draws all
answers from one sequential RNG stream, so the answers depend on the
order facts are asked in — collecting a query set in pieces would
change every draw.  :class:`KeyedExpertPanel` removes that coupling:
the answer for ``(worker, fact, ask_index)`` is drawn from its own
``SeedSequence([seed, fact_id, ask_index, worker_digest])`` stream, so
any split of a query set collects byte-identical answers.

``latency`` models the human in the loop: ``collect`` sleeps
``latency * len(query_fact_ids)`` before answering, the wall-clock cost
of sequentially waiting on experts.  :class:`ConcurrentAnswerSource`
overlaps these waits: it owns the global per-fact ask counters, splits
each round's ``(fact_id, ask_index)`` pairs into balanced contiguous
chunks and answers every chunk with ``collect_indexed`` on its own
thread, so a round waits for its largest chunk instead of all its
queries — which is where the engine's speedup comes from on
latency-bound campaigns.
"""

from __future__ import annotations

import hashlib
import time
from typing import Mapping, Sequence

import numpy as np

from ..core.answers import AnswerFamily, AnswerSet
from ..core.workers import Crowd, Worker
from ..obs import OBS


def stable_worker_digest(worker_id: str) -> int:
    """A 64-bit integer key for a worker id, stable across processes.

    ``hash()`` is salted per interpreter (``PYTHONHASHSEED``), which
    would make a resumed run draw different answers; sha256 is not.
    """
    digest = hashlib.sha256(worker_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class KeyedExpertPanel:
    """Bernoulli answers against ground truth, keyed per (fact, ask,
    worker) so collection order and partitioning cannot change them.

    Parameters
    ----------
    ground_truth:
        ``fact_id -> bool`` true labels.
    seed:
        Campaign-level seed mixed into every answer's key.
    latency:
        Simulated seconds of expert latency *per queried fact* per
        :meth:`collect` call (0 disables sleeping).
    """

    def __init__(
        self,
        ground_truth: Mapping[int, bool],
        seed: int = 0,
        latency: float = 0.0,
    ):
        self._truth = dict(ground_truth)
        self._seed = int(seed)
        self.latency = float(latency)
        self._ask_counts: dict[int, int] = {}
        #: Total answers served (lets tests assert budget accounting).
        self.answers_served = 0

    def _answer(self, worker: Worker, fact_id: int, ask_index: int) -> bool:
        sequence = np.random.SeedSequence(
            [
                self._seed,
                int(fact_id),
                int(ask_index),
                stable_worker_digest(worker.worker_id),
            ]
        )
        correct = (
            np.random.default_rng(sequence).random() < worker.accuracy
        )
        truth = self._truth[fact_id]
        return truth if correct else not truth

    def collect(
        self, query_fact_ids: Sequence[int], experts: Crowd
    ) -> AnswerFamily:
        if self.latency > 0:
            time.sleep(self.latency * len(query_fact_ids))
        ask_index: dict[int, int] = {}
        for fact_id in query_fact_ids:
            ask_index[fact_id] = self._ask_counts.get(fact_id, 0)
            self._ask_counts[fact_id] = ask_index[fact_id] + 1
        answer_sets = []
        for worker in experts:
            answers = {
                fact_id: self._answer(worker, fact_id, ask_index[fact_id])
                for fact_id in query_fact_ids
            }
            answer_sets.append(AnswerSet(worker=worker, answers=answers))
            self.answers_served += len(answers)
        return AnswerFamily(answer_sets=tuple(answer_sets))

    def collect_indexed(
        self,
        indexed_queries: Sequence[tuple[int, int]],
        experts: Crowd,
    ) -> AnswerFamily:
        """Answer explicit ``(fact_id, ask_index)`` pairs.

        Pure with respect to the panel's own counters: the caller
        (:class:`ConcurrentAnswerSource`) owns the global ask counts, so
        neither ``_ask_counts`` nor ``answers_served`` moves here, and
        calls on disjoint chunks can run on concurrent threads.
        Latency is still paid per queried fact, as in :meth:`collect`.
        """
        if self.latency > 0:
            time.sleep(self.latency * len(indexed_queries))
        answer_sets = []
        for worker in experts:
            answers = {
                int(fact_id): self._answer(worker, fact_id, ask_index)
                for fact_id, ask_index in indexed_queries
            }
            answer_sets.append(AnswerSet(worker=worker, answers=answers))
        return AnswerFamily(answer_sets=tuple(answer_sets))

    # -- journaling hooks (same contract as SimulatedExpertPanel) ------

    def get_state(self) -> dict:
        """JSON-compatible snapshot; restoring it replays the exact
        same future answer stream."""
        return {
            "ask_counts": {
                str(fact_id): count
                for fact_id, count in self._ask_counts.items()
            },
            "answers_served": self.answers_served,
        }

    def set_state(self, state: dict) -> None:
        self._ask_counts = {
            int(fact_id): int(count)
            for fact_id, count in state.get("ask_counts", {}).items()
        }
        self.answers_served = int(state.get("answers_served", 0))


class ConcurrentAnswerSource:
    """Collects each round's queries from a keyed source on ``threads``
    threads at once.

    The wrapper advances its global per-fact ask counters exactly as
    one serial :meth:`KeyedExpertPanel.collect` call would, splits the
    round's ``(fact_id, ask_index)`` pairs into at most ``threads``
    balanced contiguous chunks, and answers each chunk with
    ``source.collect_indexed`` on its own thread of a per-round pool.
    The keyed draws depend only on ``(seed, fact, ask_index, worker)``,
    so the merged family is byte-identical to the serial panel's.  An
    exception raised in one chunk surfaces from :meth:`collect` once
    the other chunks have finished.

    The wrapper carries no journaled state, so only the plain checking
    loop uses it: a resilient session checkpoints its source.
    """

    def __init__(self, source: KeyedExpertPanel, threads: int):
        if threads < 1:
            raise ValueError("threads must be at least 1")
        self._source = source
        self._threads = int(threads)
        self._ask_counts: dict[int, int] = {}
        #: Total answers served, as the serial panel counts them.
        self.answers_served = 0

    def collect(
        self, query_fact_ids: Sequence[int], experts: Crowd
    ) -> AnswerFamily:
        # Repeats within one round keep the last index, dict-style, as
        # in the serial panel.
        ask_index: dict[int, int] = {}
        for fact_id in query_fact_ids:
            fact_id = int(fact_id)
            ask_index[fact_id] = self._ask_counts.get(fact_id, 0)
            self._ask_counts[fact_id] = ask_index[fact_id] + 1
        pairs = list(ask_index.items())
        # Contiguous chunks whose sizes differ by at most one (earlier
        # chunks take the extras).
        count = min(self._threads, len(pairs)) or 1
        base, extra = divmod(len(pairs), count)
        starts = [p * base + min(p, extra) for p in range(count + 1)]
        chunks = [pairs[starts[p]:starts[p + 1]] for p in range(count)]

        from concurrent.futures.thread import ThreadPoolExecutor

        with OBS.tracer.span(
            "collect.concurrent", queries=len(pairs), threads=count
        ):
            # Leaving the block waits for every chunk, so an error
            # raised in one surfaces only after the others finished.
            with ThreadPoolExecutor(count) as pool:
                futures = [
                    pool.submit(self._source.collect_indexed, chunk, experts)
                    for chunk in chunks
                ]
            families = [future.result() for future in futures]
        if OBS.enabled:
            queries = OBS.registry.counter(
                "repro_collect_queries_total",
                "Queries answered on collection threads",
            )
            sizes = OBS.registry.histogram(
                "repro_collect_chunk_size",
                "Per-thread chunk sizes of concurrent collection rounds",
                bounds=tuple(float(2 ** n) for n in range(0, 12)),
            )
            for chunk in chunks:
                queries.inc(len(chunk))
                sizes.observe(len(chunk))
        answer_sets = []
        for position, worker in enumerate(experts):
            answers: dict[int, bool] = {}
            for family in families:
                answers.update(family.answer_sets[position].answers)
            answer_sets.append(AnswerSet(worker=worker, answers=answers))
            self.answers_served += len(answers)
        return AnswerFamily(answer_sets=tuple(answer_sets))
