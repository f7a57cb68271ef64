"""A checking round does work only for the groups it changed.

Three caches make that so, and each must be invisible:

* the per-group round scoreboard (``core.hc.RoundScoreboard``): every
  history record's ``quality`` and ``accuracy`` equal a memo-free
  recomputation of ``total_quality`` / ``labeling_accuracy`` from the
  belief, bit for bit, in every runtime that writes records;
* the CELF seed cache and the heap kept across rounds
  (``LazyGreedySelector``): picks, gains and heap pops equal those of a
  selector whose caches are dropped before every round, also across a
  crowd change, a belief with fewer groups, partial and abandoned
  rounds and groups added mid-campaign, and the heap stays within twice
  its live entries plus one round's pushes;
* the ``BeliefState`` memos of ``H(O)`` and the MAP labels: pickles are
  the same bytes memoized or not, and a ``from_normalized`` state's
  memoized entropy is the entropy of its stored bits.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.aggregation.registry import make_aggregator
from repro.core import (
    AnswerSet,
    BeliefState,
    Crowd,
    FactoredBelief,
    FactSet,
    LazyGreedySelector,
    PartialAnswerFamily,
)
from repro.core.entropy import observation_entropy, shannon_entropy
from repro.core.hc import (
    HierarchicalCrowdsourcing,
    labeling_accuracy,
    total_quality,
)
from repro.core.kernel import SparseBeliefState
from repro.core.trust import TrustPolicy, select_gold_probes
from repro.datasets import WorkerPoolSpec, make_synthetic_dataset
from repro.datasets.grouping import initialize_belief
from repro.engine import run_parallel_hc_session
from repro.simulation import (
    DegradingExpertPanel,
    OnlineCheckingSession,
    ResilientCheckingSession,
    RetryPolicy,
    SessionConfig,
    SimulatedExpertPanel,
    run_hc_session,
)
from repro.stream import StreamingCampaign

from .stream.conftest import BUDGET, build_spec, events_for, experts_for


def _dataset(seed: int = 5, num_groups: int = 8, group_size: int = 4):
    return make_synthetic_dataset(
        num_groups=num_groups,
        group_size=group_size,
        answers_per_fact=6,
        pool=WorkerPoolSpec(num_preliminary=12, num_expert=3),
        seed=seed,
    )


# ----------------------------------------------------------------------
# scoreboard
# ----------------------------------------------------------------------


def _fresh_entropy(state) -> float:
    if isinstance(state, SparseBeliefState):
        return state.entropy_bits()
    return shannon_entropy(state.probabilities)


def _fresh_quality(belief) -> float:
    return sum(-_fresh_entropy(state) for state in belief)


def _fresh_accuracy(belief, truth) -> float:
    labels = {}
    for state in belief:
        assignment = state.map_assignment()
        for position, fact in enumerate(state.facts):
            labels[fact.fact_id] = bool(assignment[position])
    relevant = [fact_id for fact_id in labels if fact_id in truth]
    correct = sum(1 for fact_id in relevant if labels[fact_id] == truth[fact_id])
    return correct / len(relevant)


def _check_record(record, belief, truth) -> None:
    quality = _fresh_quality(belief)
    assert record.quality.hex() == quality.hex()
    assert total_quality(belief).hex() == quality.hex()
    if truth is None:
        assert record.accuracy is None
        return
    accuracy = _fresh_accuracy(belief, truth)
    assert record.accuracy.hex() == accuracy.hex()
    assert labeling_accuracy(belief, truth).hex() == accuracy.hex()


@pytest.fixture
def checked(monkeypatch):
    """Check every record the session writes — every runtime's records,
    ``HierarchicalCrowdsourcing.run``'s included — as it is written,
    against the belief it describes; yields the number of checks."""
    count = [0]
    online_record = OnlineCheckingSession._record

    def checking_online(self, *args, **kwargs):
        record = online_record(self, *args, **kwargs)
        _check_record(record, self._belief, self._ground_truth)
        count[0] += 1
        return record

    monkeypatch.setattr(OnlineCheckingSession, "_record", checking_online)
    return count


@pytest.mark.parametrize(
    "k, epsilon", [(1, 0.0), (4, 0.0), (2, 0.05)],
    ids=["dense-k1", "dense-k4", "sparse-eps0.05"],
)
def test_online_records_match_recomputation(checked, k, epsilon):
    dataset = _dataset()
    experts, _ = dataset.split_crowd(0.9)
    belief, _ = initialize_belief(
        dataset, make_aggregator("MV"), 0.9, belief_epsilon=epsilon
    )
    if epsilon:
        assert isinstance(belief[0], SparseBeliefState)
    session = OnlineCheckingSession(
        belief, experts, 40.0, k=k, ground_truth=dataset.ground_truth
    )
    panel = SimulatedExpertPanel(dataset.ground_truth, rng=3)
    while (queries := session.next_queries()) is not None:
        session.submit(panel.collect(queries, experts))
    assert len(session.history) > 3
    assert checked[0] == len(session.history)


def test_records_follow_a_truth_that_grows_over_recorded_groups(checked):
    dataset = _dataset(seed=7)
    experts, _ = dataset.split_crowd(0.9)
    belief, _ = initialize_belief(dataset, make_aggregator("MV"), 0.9)
    half = {
        fact.fact_id
        for state in list(belief)[: len(belief) // 2]
        for fact in state.facts
    }
    truth = dataset.ground_truth
    session = OnlineCheckingSession(
        belief, experts, 40.0, k=2,
        ground_truth={fact_id: truth[fact_id] for fact_id in half},
    )
    panel = SimulatedExpertPanel(truth, rng=8)
    for _ in range(2):
        session.submit(panel.collect(session.next_queries(), experts))
    session.add_groups([], ground_truth=truth)
    while (queries := session.next_queries()) is not None:
        session.submit(panel.collect(queries, experts))
    assert checked[0] == len(session.history) > 4


def test_batch_run_records_match_recomputation(checked):
    dataset = _dataset(seed=9)
    result = run_hc_session(dataset, SessionConfig(budget=30.0, k=2, seed=1))
    assert len(result.history) > 3
    assert checked[0] == len(result.history)
    # a ground-truth-free run scores quality alone
    checked[0] = 0
    runner = HierarchicalCrowdsourcing(dataset.split_crowd(0.9)[0], k=1)
    plain = runner.run(
        result.belief,
        SimulatedExpertPanel(dataset.ground_truth, rng=2),
        12.0,
    )
    assert checked[0] == len(plain.history) > 1
    assert all(record.accuracy is None for record in plain.history)


def test_streamed_records_match_recomputation(checked):
    """Groups sealed mid-campaign bring their ground truth (the truth
    map grows) and late votes are folded in between rounds."""
    dataset = make_synthetic_dataset(
        num_groups=3, group_size=3, answers_per_fact=6, seed=1
    )
    spec = build_spec()
    campaign = StreamingCampaign(
        events_for(dataset, spec), experts_for(dataset, spec), BUDGET,
        spec=spec,
    )
    stats = campaign.run()
    assert campaign.finished
    assert stats["groups_sealed"] > 1 and stats["out_of_band"] > 0
    assert checked[0] > 3


def test_engine_mirrored_records_match_recomputation(checked):
    dataset = _dataset(seed=11)
    config = SessionConfig(budget=30.0, k=3, seed=2)
    serial = run_hc_session(dataset, config)
    checked[0] = 0
    parallel = run_parallel_hc_session(dataset, config, jobs=2)
    assert checked[0] == len(parallel.history)
    assert [r.quality.hex() for r in parallel.history] == [
        r.quality.hex() for r in serial.history
    ]
    assert [r.accuracy.hex() for r in parallel.history] == [
        r.accuracy.hex() for r in serial.history
    ]


def test_resumed_records_match_recomputation(checked, tmp_path):
    dataset = _dataset(seed=13)
    experts, _ = dataset.split_crowd(0.9)

    def fresh(path):
        belief, _ = initialize_belief(dataset, make_aggregator("MV"), 0.9)
        return ResilientCheckingSession(
            belief, experts, 30.0, k=2,
            ground_truth=dataset.ground_truth, journal_path=path,
        )

    def panel():
        return SimulatedExpertPanel(dataset.ground_truth, rng=4)

    reference = fresh(tmp_path / "ref.jsonl").run(panel())
    fresh(tmp_path / "kill.jsonl").run(panel(), max_rounds=3)
    checked[0] = 0
    resumed = ResilientCheckingSession.resume(tmp_path / "kill.jsonl")
    result = resumed.run(panel())
    assert checked[0] > 1
    assert [r.quality.hex() for r in result.history] == [
        r.quality.hex() for r in reference.history
    ]
    assert [r.accuracy.hex() for r in result.history] == [
        r.accuracy.hex() for r in reference.history
    ]


# ----------------------------------------------------------------------
# CELF seed cache
# ----------------------------------------------------------------------


class _ShadowedSelector(LazyGreedySelector):
    """A lazy greedy that checks every round against a twin whose
    caches are all dropped first: same picks, same gains, same pops."""

    def __init__(self) -> None:
        super().__init__()
        self.reference = LazyGreedySelector()
        self.crowds: set[tuple[str, ...]] = set()
        self.rounds = 0

    def select_with_gains(self, belief, experts, k):
        self.reference.invalidate_groups(range(len(belief)))
        reference_pops = self.reference.stats.heap_pops
        expected = self.reference.select_with_gains(belief, experts, k)
        pops = self.stats.heap_pops
        picked = super().select_with_gains(belief, experts, k)
        assert picked == expected
        assert (
            self.stats.heap_pops - pops
            == self.reference.stats.heap_pops - reference_pops
        )
        self.crowds.add(tuple(worker.worker_id for worker in experts))
        self.rounds += 1
        return picked


def test_seed_cache_matches_fully_invalidated_selector():
    dataset = _dataset(seed=17)
    experts, _ = dataset.split_crowd(0.9)
    belief, _ = initialize_belief(dataset, make_aggregator("MV"), 0.9)
    selector = _ShadowedSelector()
    session = OnlineCheckingSession(
        belief, experts, 60.0, selector=selector, k=3,
        ground_truth=dataset.ground_truth,
    )
    panel = SimulatedExpertPanel(dataset.ground_truth, rng=5)
    while (queries := session.next_queries()) is not None:
        session.submit(panel.collect(queries, experts))
    assert selector.rounds > 3


def test_seed_cache_matches_across_a_trust_quarantine():
    truth = {fact_id: fact_id % 2 == 0 for fact_id in range(12)}
    groups = [
        BeliefState.from_marginals(
            FactSet.from_ids([2 * g, 2 * g + 1]), [0.55, 0.45]
        )
        for g in range(6)
    ]
    selector = _ShadowedSelector()
    session = ResilientCheckingSession(
        FactoredBelief(groups),
        Crowd.from_accuracies([0.95, 0.95, 0.9], prefix="e"),
        72,
        selector=selector,
        k=2,
        ground_truth=truth,
        retry_policy=RetryPolicy(max_attempts=5, max_reassignments=1),
        reserve_experts=Crowd.from_accuracies([0.93, 0.93], prefix="r"),
        trust_policy=TrustPolicy(
            probe_rate=0.8, min_observations=3.0, seed=1
        ),
        gold_facts=select_gold_probes(truth, fraction=0.25, seed=1),
    )
    result = session.run(
        DegradingExpertPanel(
            truth,
            degraded_worker_id="e0",
            degraded_accuracy=0.05,
            degrade_after_collects=1,
            rng=4,
        )
    )
    assert any(event.kind == "quarantine" for event in result.incidents)
    assert len(selector.crowds) > 1, "the panel never changed"


# The heap outlives the round: a group the round queried is retired and
# re-seeded next round, from its cached gain vector when its state did
# not change; a group past the end of the belief is retired.


def _pairs(marginals) -> FactoredBelief:
    """One two-fact group per marginal pair: group g holds facts 2g, 2g+1."""
    return FactoredBelief(
        BeliefState.from_marginals(FactSet.from_ids([2 * g, 2 * g + 1]), pair)
        for g, pair in enumerate(marginals)
    )


_PANEL = Crowd.from_accuracies([0.9, 0.85, 0.8], prefix="e")


def test_heap_follows_a_belief_with_fewer_groups():
    """Entries of groups the new belief lacks must never be picked: a
    selector that kept them live returns fact 10 here."""
    six = _pairs([(0.5, 0.5), (0.9, 0.9), (0.9, 0.9), (0.9, 0.9),
                  (0.9, 0.9), (0.52, 0.52)])
    two = _pairs([(0.5, 0.6), (0.85, 0.55)])
    selector = LazyGreedySelector()
    assert selector.select(six, _PANEL, 1) == [0]
    assert LazyGreedySelector().select(two, _PANEL, 3) == [0, 3, 1]
    assert selector.select(two, _PANEL, 3) == [0, 3, 1]
    # and back to six groups: the retired groups are seeded afresh
    assert selector.select(six, _PANEL, 3) == LazyGreedySelector().select(
        six, _PANEL, 3
    )


def _session(selector, budget=40.0, k=2, marginals=None):
    marginals = marginals or [(0.55, 0.95), (0.6, 0.9), (0.7, 0.97),
                              (0.8, 0.65), (0.75, 0.9), (0.95, 0.85)]
    belief = _pairs(marginals)
    truth = {fact_id: fact_id % 3 != 0 for fact_id in range(2 * len(belief))}
    session = OnlineCheckingSession(
        belief, _PANEL, budget, selector=selector, k=k, ground_truth=truth
    )
    return session, SimulatedExpertPanel(truth, rng=3), truth


def _finish(session, panel) -> None:
    while (queries := session.next_queries()) is not None:
        session.submit(panel.collect(queries, _PANEL))


def test_heap_reseeds_the_group_a_partial_round_left_unanswered():
    selector = _ShadowedSelector()
    session, panel, _truth = _session(selector)
    queries = session.next_queries()
    groups = [session.belief.group_index_of(fact_id) for fact_id in queries]
    assert len(set(groups)) == 2, "the round must query two groups"
    answered = queries[0]
    full = panel.collect(queries, _PANEL)
    session.submit_partial(PartialAnswerFamily(
        intended_query_fact_ids=tuple(queries),
        intended_worker_ids=tuple(w.worker_id for w in _PANEL),
        answer_sets=tuple(
            AnswerSet(worker=answer_set.worker,
                      answers={answered: answer_set.answers[answered]})
            for answer_set in full.answer_sets
        ),
    ))
    evaluations = selector.stats.batch_evaluations
    session.next_queries()
    # only the answered group's state changed
    assert selector.stats.batch_evaluations == evaluations + 1
    session.abandon_pending()
    _finish(session, panel)
    assert selector.rounds > 3


def test_heap_selects_the_same_facts_after_an_abandoned_round():
    selector = _ShadowedSelector()
    session, panel, _truth = _session(selector)
    first = session.next_queries()
    evaluations = selector.stats.batch_evaluations
    session.abandon_pending()
    assert session.next_queries() == first
    assert selector.stats.batch_evaluations == evaluations
    session.submit(panel.collect(first, _PANEL))
    _finish(session, panel)


def test_heap_seeds_groups_added_mid_campaign():
    selector = _ShadowedSelector()
    session, panel, truth = _session(selector, budget=60.0)
    for _ in range(3):
        session.submit(panel.collect(session.next_queries(), _PANEL))
    new_states = [
        BeliefState.from_marginals(
            FactSet.from_ids([100 + 2 * g, 101 + 2 * g]), [0.5, 0.9]
        )
        for g in range(2)
    ]
    new_truth = {
        fact.fact_id: True for state in new_states for fact in state.facts
    }
    session.add_groups(new_states, ground_truth=new_truth)
    panel = SimulatedExpertPanel({**truth, **new_truth}, rng=4)
    queries = session.next_queries()
    assert 100 in queries, "the new, most uncertain fact is picked"
    session.submit(panel.collect(queries, _PANEL))
    _finish(session, panel)
    assert selector.rounds > 5


class _HeapWatch(_ShadowedSelector):
    """Records, each round, the heap's size once seeded, its live entries
    and how many entries the round's seeding pushed."""

    def __init__(self) -> None:
        super().__init__()
        self.sizes: list[tuple[int, int, int]] = []

    def _seed_heap(self, belief, experts):
        epoch = self._epoch
        heap = super()._seed_heap(belief, experts)
        live = sum(
            1 for entry in heap if self._epochs.get(entry[3]) == entry[4]
        )
        pushed = sum(1 for entry in heap if entry[4] > epoch)
        self.sizes.append((len(heap), live, pushed))
        return heap


def test_heap_stays_bounded_over_a_paper_shaped_campaign():
    """200 groups x 5 facts, k = 1, 300 rounds: each round retires the
    group it picked from, so dead entries pile up until compaction."""
    dataset = make_synthetic_dataset(
        num_groups=200, group_size=5, answers_per_fact=8,
        pool=WorkerPoolSpec(num_preliminary=40, num_expert=3), seed=5,
    )
    experts, _ = dataset.split_crowd(0.9)
    belief, _ = initialize_belief(dataset, make_aggregator("MV"), 0.9)
    selector = _HeapWatch()
    session = OnlineCheckingSession(
        belief, experts, 1e6, selector=selector, k=1,
        ground_truth=dataset.ground_truth,
    )
    panel = SimulatedExpertPanel(dataset.ground_truth, rng=1)
    for _ in range(300):
        session.submit(panel.collect(session.next_queries(), experts))
    assert selector.rounds == 300
    for size, live, pushed in selector.sizes:
        assert size <= 2 * (live - pushed) + pushed
    # a compaction leaves no dead entry; otherwise only the cold first
    # round has none
    assert any(
        size == live for size, live, _pushed in selector.sizes[1:]
    ), "the heap was never compacted"


# ----------------------------------------------------------------------
# belief-state memos
# ----------------------------------------------------------------------


def _dense_state() -> BeliefState:
    rng = np.random.default_rng(0)
    return BeliefState(FactSet.from_ids([1, 2, 3]), rng.random(8))


def _sparse_state() -> SparseBeliefState:
    rng = np.random.default_rng(1)
    weights = rng.random(16)
    weights[[2, 7]] = 0.0
    return SparseBeliefState(FactSet.from_ids([4, 5, 6, 7]), weights)


@pytest.mark.parametrize("make", [_dense_state, _sparse_state])
def test_pickles_are_identical_before_and_after_the_memo(make):
    state = make()
    before = pickle.dumps(state)
    entropy = observation_entropy(state)
    labels = state.map_labels()
    assert state._entropy_memo == entropy
    assert state._labels_memo == labels
    assert pickle.dumps(state) == before
    clone = pickle.loads(before)
    assert clone._entropy_memo is None and clone._labels_memo is None
    assert observation_entropy(clone).hex() == entropy.hex()


def test_map_labels_memo_hands_out_copies():
    state = _dense_state()
    labels = state.map_labels()
    labels[1] = not labels[1]
    assert state.map_labels() != labels


def test_from_normalized_memo_is_the_entropy_of_the_stored_bits():
    # These values sum to one ulp above 1, and renormalizing them (as
    # __init__ does before from_normalized swaps them back in) changes
    # the entropy's last bit: the memo must describe the stored values.
    values = np.array([
        0.4058124082999818, 0.2545609908918319,
        0.14090566966580265, 0.19872093114238384,
    ])
    renormalized = values / values.sum()
    assert shannon_entropy(renormalized) != shannon_entropy(values)
    state = BeliefState.from_normalized(FactSet.from_ids([8, 9]), values)
    assert np.array_equal(state.probabilities, values)
    assert observation_entropy(state).hex() == shannon_entropy(values).hex()
