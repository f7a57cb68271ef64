"""The dense belief kernels against their truth-table reference.

Groups above ``TRUTH_TABLE_MAX_FACTS`` facts contract the probability
tensor over its bit axes instead of walking ``truth_table(n)``.  The
contract, checked here against the verbatim formulas in
``truth_tables.py`` at every group size from 0 to 14 facts, with
shuffled non-contiguous fact ids and query sets in any order:

* answer-set, log and family likelihoods, the posteriors of
  ``update_with_answer_set``, ``update_with_family`` and both tempered
  updates, and ``H(O)`` are bit-identical (each row multiplies or adds
  the same factors in the same order; the posterior is the same
  product, clipped, summed and divided; H(O) sums the same terms);
* marginals and pattern marginals are bit-identical up to the cut and
  within ``RTOL``/``ATOL`` above it, where the sums reassociate;
* sparse states keep their own branch;
* ``family_distribution``'s memoised einsum plan gives the bits that
  planning on every call gave.
"""

from __future__ import annotations

import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AnswerFamily,
    AnswerSet,
    BeliefState,
    Crowd,
    FactSet,
    SparseBeliefState,
    Worker,
    answer_set_likelihood,
    family_distribution,
    family_likelihood,
    observation_entropy,
    pattern_marginal,
    tempered_update_with_answer_set,
    tempered_update_with_family,
    update_with_answer_set,
    update_with_family,
    worker_response_matrix,
)
from repro.core import observations
from repro.core.answers import likelihood_table
from repro.core.observations import TRUTH_TABLE_MAX_FACTS, tensor_shape

from . import truth_tables as reference

#: Tolerance for reassociated sums of non-negative probabilities above
#: the cut, fixed before measuring: the sums are of at most 2**14
#: terms, so even sequential summation stays within ~2**13 ulps.
RTOL = 1e-12
ATOL = 1e-15

MAX_FACTS = 14


@st.composite
def dense_beliefs(draw, min_facts: int = 0):
    """A dense belief over 0..14 facts with shuffled, non-contiguous ids
    and a joint that mixes exact zeros with a wide dynamic range; about
    half the draws fall on each side of the cut.  Some are restored
    through ``from_normalized`` with entries in (-1e-12, 0], which it
    keeps verbatim and an update must clip."""
    num_facts = draw(
        st.one_of(
            st.integers(min_facts, TRUTH_TABLE_MAX_FACTS),
            st.integers(TRUTH_TABLE_MAX_FACTS + 1, MAX_FACTS),
        )
    )
    fact_ids = draw(
        st.lists(
            st.integers(0, 10_000),
            min_size=num_facts,
            max_size=num_facts,
            unique=True,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 1 << num_facts
    weights = rng.random(size) ** draw(st.sampled_from([1.0, 8.0, 40.0]))
    weights[rng.random(size) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    weights[rng.integers(size)] += 1.0  # never all zero
    facts = FactSet.from_ids(fact_ids)
    if not draw(st.booleans()):
        return BeliefState(facts, weights)
    restored = weights / weights.sum()
    signed = rng.random(size) < 0.2
    restored[signed] = rng.choice([0.0, -0.0, -1e-13, -9e-13], signed.sum())
    if not np.any(restored > 0.0):
        restored[0] = 1.0
    return BeliefState.from_normalized(facts, restored)


def query_of(draw, belief: BeliefState, min_size: int = 1) -> list[int]:
    """1..n of the belief's fact ids, in any order."""
    fact_ids = [fact.fact_id for fact in belief.facts]
    return draw(
        st.permutations(fact_ids).flatmap(
            lambda order: st.integers(min_size, len(order)).map(
                lambda size: order[:size]
            )
        )
    )


@st.composite
def beliefs_with_families(draw, accuracies=st.floats(0.0, 1.0)):
    belief = draw(dense_beliefs(min_facts=1))
    query = query_of(draw, belief)
    num_workers = draw(st.integers(1, 3))
    answer_sets = []
    for index in range(num_workers):
        worker = Worker(f"w{index}", draw(accuracies))
        # Each worker lists the queried facts in its own order.
        answers = {
            fact_id: draw(st.booleans())
            for fact_id in draw(st.permutations(query))
        }
        answer_sets.append(AnswerSet(worker=worker, answers=answers))
    return belief, AnswerFamily(answer_sets=tuple(answer_sets))


def assert_sums_match(actual: np.ndarray, expected: np.ndarray, num_facts):
    if num_facts <= TRUTH_TABLE_MAX_FACTS:
        assert np.array_equal(actual, expected)
    else:
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)


@settings(max_examples=60, deadline=None)
@given(dense_beliefs())
def test_marginals(belief):
    expected = reference.marginals(belief)
    actual = belief.marginals()
    assert actual.shape == expected.shape
    assert_sums_match(actual, expected, belief.num_facts)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pattern_marginal(data):
    belief = data.draw(dense_beliefs(min_facts=1))
    query = query_of(data.draw, belief)
    expected = reference.pattern_marginal(belief, query)
    actual = pattern_marginal(belief, query)
    assert actual.shape == expected.shape
    assert_sums_match(actual, expected, belief.num_facts)


def log_likelihood(belief, answer_sets) -> np.ndarray:
    """The log :func:`likelihood_table` written out over every
    observation."""
    table = likelihood_table(belief, answer_sets, log=True)
    return np.broadcast_to(table, tensor_shape(belief.num_facts)).reshape(-1)


@settings(max_examples=100, deadline=None)
@given(beliefs_with_families())
def test_likelihoods_bit_identical(case):
    belief, family = case
    for answer_set in family:
        assert np.array_equal(
            answer_set_likelihood(belief, answer_set),
            reference.answer_set_likelihood(belief, answer_set),
        )
        assert np.array_equal(
            log_likelihood(belief, (answer_set,)),
            reference.log_answer_set_likelihood(belief, answer_set),
        )
    assert np.array_equal(
        family_likelihood(belief, family),
        reference.family_likelihood(belief, family),
    )
    assert np.array_equal(
        log_likelihood(belief, family),
        reference.log_family_likelihood(belief, family),
    )


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal as bytes: ``array_equal`` would let ``-0.0`` pass for
    ``0.0``, which a journal writes differently."""
    assert actual.tobytes() == expected.tobytes()


def clipped_prior(belief):
    """``belief`` with its prior clipped at 0, as the kernel's log
    branch takes its log: a ``from_normalized`` entry in (-1e-12, 0)
    has no mass there, where the reference's log of it is NaN.  The
    reference's linear branch gives the same bits either way."""
    return SimpleNamespace(
        facts=belief.facts,
        num_facts=belief.num_facts,
        num_observations=belief.num_observations,
        probabilities=np.clip(belief.probabilities, 0.0, None),
    )


def crosses_guard(belief, likelihood) -> bool:
    """Whether the one intended change decides the branch: the kernel's
    evidence is its clipped product's sum, the parent's ``prior @
    likelihood``.  Only a ``from_normalized`` prior's negative entries
    (or a sum within ulps of the guard) put them on opposite sides of
    the guard; there the kernel takes the linear branch the product's
    own mass calls for."""
    parent_evidence = float(belief.probabilities @ likelihood)
    kernel_evidence = np.clip(belief.probabilities * likelihood, 0.0, None).sum()
    return kernel_evidence > reference.EVIDENCE_UNDERFLOW_GUARD >= parent_evidence


def expected_update(belief, likelihood, parent_update):
    """The parent's update, or its linear branch where
    :func:`crosses_guard`.  ``parent_update`` runs the reference on the
    :func:`clipped_prior`."""
    if crosses_guard(belief, likelihood):
        return reference.reweighted(belief, likelihood)
    return parent_update()


@settings(max_examples=60, deadline=None)
@given(beliefs_with_families(accuracies=st.floats(0.05, 0.95)))
def test_posteriors_bit_identical(case):
    belief, family = case
    clipped = clipped_prior(belief)
    posterior = update_with_family(belief, family)
    assert_same_bits(
        posterior.probabilities,
        expected_update(
            belief,
            reference.family_likelihood(belief, family),
            lambda: reference.update_with_family(clipped, family),
        ).probabilities,
    )
    for answer_set in family:
        assert_same_bits(
            update_with_answer_set(belief, answer_set).probabilities,
            expected_update(
                belief,
                reference.answer_set_likelihood(belief, answer_set),
                lambda: reference.update_with_answer_set(clipped, answer_set),
            ).probabilities,
        )
    assert observation_entropy(posterior) == reference.shannon_entropy(
        posterior.probabilities
    )


def test_posterior_of_a_prior_whose_signed_entries_outweigh_its_mass():
    """A ``from_normalized`` prior can sum below zero: here the parent's
    ``prior @ likelihood`` is negative, so its log branch logs the
    negative entry and raises, while the product's own mass, 5e-27, is
    far above the guard and the kernel answers on the linear branch."""
    belief = BeliefState.from_normalized(
        FactSet.from_ids([0, 1]), np.array([-1e-13, 1e-26, 0.0, 1e-72])
    )
    answer_set = AnswerSet(worker=Worker("w0", 0.5), answers={0: False})
    likelihood = reference.answer_set_likelihood(belief, answer_set)
    assert crosses_guard(belief, likelihood)
    expected = reference.reweighted(belief, likelihood).probabilities
    for posterior in (
        update_with_answer_set(belief, answer_set),
        update_with_family(belief, AnswerFamily(answer_sets=(answer_set,))),
    ):
        assert_same_bits(posterior.probabilities, expected)


def assert_tempered_matches(belief, update, likelihood, parent_update):
    """``update()`` gives the parent's tempered update, bit for bit (or
    its error), on the branch :func:`expected_update` picks."""
    if crosses_guard(belief, likelihood):
        expected = reference.reweighted(belief, likelihood)
        expected_tempered = False
    else:
        try:
            expected, expected_tempered = parent_update()
        except ValueError as error:
            # A floored likelihood whose product still sums to zero.
            with pytest.raises(ValueError, match=re.escape(str(error))):
                update()
            return
    posterior, tempered = update()
    assert tempered == expected_tempered
    assert_same_bits(posterior.probabilities, expected.probabilities)


@settings(max_examples=60, deadline=None)
@given(
    beliefs_with_families(
        accuracies=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    )
)
def test_tempered_posteriors_bit_identical(case):
    """Accuracies 0 and 1 contradict whole patterns, so some draws
    reach the floored branch; the flag and bits match there too."""
    belief, family = case
    clipped = clipped_prior(belief)
    assert_tempered_matches(
        belief,
        lambda: tempered_update_with_family(belief, family),
        reference.family_likelihood(belief, family),
        lambda: reference.tempered_update_with_family(clipped, family),
    )
    for answer_set in family:
        assert_tempered_matches(
            belief,
            lambda: tempered_update_with_answer_set(belief, answer_set),
            reference.answer_set_likelihood(belief, answer_set),
            lambda: reference.tempered_update_with_answer_set(
                clipped, answer_set
            ),
        )


@settings(max_examples=60, deadline=None)
@given(dense_beliefs())
def test_observation_entropy_bit_identical(belief):
    assert observation_entropy(belief) == reference.shannon_entropy(
        belief.probabilities
    )


def _wide_case(num_facts: int, positions):
    rng = np.random.default_rng(num_facts)
    facts = FactSet.from_ids(range(100, 100 + num_facts))
    belief = BeliefState(facts, rng.dirichlet(np.ones(1 << num_facts)))
    experts = Crowd.from_accuracies([0.92, 0.95], prefix="e")
    queried = [100 + position for position in positions]
    family = AnswerFamily(
        answer_sets=tuple(
            AnswerSet(
                worker=worker,
                answers={
                    fact_id: bool(rng.random() < 0.5)
                    for fact_id in (queried if index == 0 else queried[::-1])
                },
            )
            for index, worker in enumerate(experts)
        )
    )
    return belief, family


#: Query positions that put a queried axis innermost, at both ends, and
#: out of order; position -1 is the highest.
WIDE_QUERIES = [(0,), (0, 1, 2, 3), (0, -1), (13, 2, 9, 5)]


@pytest.mark.parametrize("num_facts", [16, 18])
@pytest.mark.parametrize("positions", WIDE_QUERIES, ids=str)
def test_wide_groups_bit_identical(num_facts, positions):
    belief, family = _wide_case(
        num_facts, [position % num_facts for position in positions]
    )
    posterior = update_with_family(belief, family)
    assert_same_bits(
        posterior.probabilities,
        reference.update_with_family(belief, family).probabilities,
    )
    answer_set = family.answer_sets[1]
    assert_same_bits(
        update_with_answer_set(belief, answer_set).probabilities,
        reference.update_with_answer_set(belief, answer_set).probabilities,
    )
    tempered, flag = tempered_update_with_family(belief, family)
    assert not flag
    assert_same_bits(tempered.probabilities, posterior.probabilities)
    assert observation_entropy(posterior) == reference.shannon_entropy(
        posterior.probabilities
    )


def test_log_fallback_posterior_bit_identical():
    """A 30-worker panel of near-perfect workers split 16 against 14
    over all 14 facts underflows the linear product everywhere, so the
    update takes the log-space branch; both kernels agree there too."""
    num_facts = 14
    rng = np.random.default_rng(7)
    facts = FactSet.from_ids(rng.permutation(np.arange(100, 100 + num_facts)))
    belief = BeliefState(facts, rng.dirichlet(np.ones(1 << num_facts)))
    answer_sets = tuple(
        AnswerSet(
            worker=Worker(f"w{index}", 0.9999),
            answers={fact.fact_id: index < 16 for fact in facts},
        )
        for index in range(30)
    )
    family = AnswerFamily(answer_sets=answer_sets)
    assert not np.any(reference.family_likelihood(belief, family) > 0.0)
    assert np.array_equal(
        update_with_family(belief, family).probabilities,
        reference.update_with_family(belief, family).probabilities,
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_family_distribution_plan(data):
    belief = data.draw(dense_beliefs(min_facts=1))
    query = query_of(data.draw, belief)[:4]
    accuracies = data.draw(
        st.lists(st.floats(0.5, 1.0), min_size=1, max_size=5)
    )
    experts = Crowd.from_accuracies(accuracies, prefix="e")
    if len(query) * len(experts) > 22:
        query = query[: 22 // len(experts)]
    marginal = pattern_marginal(belief, query)
    responses = [
        worker_response_matrix(len(query), accuracy) for accuracy in accuracies
    ]
    assert np.array_equal(
        family_distribution(belief, query, experts),
        reference.family_distribution(marginal, responses),
    )


@pytest.mark.parametrize("num_facts", [5, 12])
def test_sparse_states_keep_their_branch(num_facts, monkeypatch):
    """Sparse beliefs never reach the dense table or contraction."""
    rng = np.random.default_rng(num_facts)
    facts = FactSet.from_ids(range(num_facts))
    weights = rng.random(1 << num_facts)
    weights[weights < 0.5] = 0.0
    sparse = SparseBeliefState(facts, weights, epsilon=0.0)
    dense = BeliefState(facts, weights)
    expected_pattern = pattern_marginal(dense, [3, 0, 4])
    expected_marginals = dense.marginals()

    def refuse(*args, **kwargs):
        raise AssertionError("sparse belief took the dense branch")

    monkeypatch.setattr(observations, "truth_table", refuse)
    monkeypatch.setattr("repro.core.answers.truth_table", refuse)
    np.testing.assert_allclose(
        pattern_marginal(sparse, [3, 0, 4]), expected_pattern,
        rtol=RTOL, atol=ATOL,
    )
    np.testing.assert_allclose(
        sparse.marginals(), expected_marginals, rtol=RTOL, atol=ATOL
    )
    assert "_probs" not in sparse.__dict__


@pytest.mark.parametrize("num_facts", [11, 18])
def test_large_groups_never_build_the_truth_table(num_facts, monkeypatch):
    rng = np.random.default_rng(num_facts)
    facts = FactSet.from_ids(range(num_facts))
    belief = BeliefState(facts, rng.dirichlet(np.ones(1 << num_facts)))
    experts = Crowd.from_accuracies([0.92, 0.95], prefix="e")
    family = AnswerFamily(
        answer_sets=tuple(
            AnswerSet(worker=worker, answers={1: True, 7: False, 4: True})
            for worker in experts
        )
    )

    def refuse(size):
        raise AssertionError(f"truth_table({size}) called")

    monkeypatch.setattr(observations, "truth_table", refuse)
    monkeypatch.setattr("repro.core.answers.truth_table", refuse)
    belief.marginals()
    pattern_marginal(belief, [7, 1, 4])
    update_with_family(belief, family)
    belief.map_labels()


@pytest.mark.parametrize("positions", [(3, 17), (0, 1, 2, 3)], ids=str)
def test_update_allocates_only_its_output(positions, monkeypatch):
    """An 18-fact update allocates its 2 MiB posterior and small tables
    only; a fresh posterior's H(O) at most two 2 MiB work arrays.  The
    update never spreads a likelihood over all 2**18 observations."""
    belief, family = _wide_case(18, positions)

    def refuse(*args, **kwargs):
        raise AssertionError("the update built a 2**n likelihood")

    for module in ("repro.core.answers", "repro.core.update"):
        for name in ("answer_set_likelihood", "family_likelihood"):
            monkeypatch.setattr(f"{module}.{name}", refuse, raising=False)
    update_with_family(belief, family)  # warm any lazy set-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        posterior = update_with_family(belief, family)
        update_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        observation_entropy(posterior)
        entropy_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert update_peak <= 2.25 * 2**20
    assert entropy_peak <= 4.25 * 2**20
