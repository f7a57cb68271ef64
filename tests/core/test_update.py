"""Unit tests for repro.core.update (Lemma 3, Eq. 15-19)."""

import warnings

import numpy as np
import pytest

from repro.core import (
    AnswerFamily,
    AnswerSet,
    BeliefState,
    Crowd,
    FactSet,
    InconsistentEvidenceError,
    Worker,
    answer_set_likelihood,
    initialize_from_votes,
    observation_entropy,
    tempered_update_with_answer_set,
    tempered_update_with_family,
    update_with_answer_set,
    update_with_family,
)


@pytest.fixture
def worker():
    return Worker("w", 0.9)


class TestInitializeFromVotes:
    def test_eq15_product_form(self, three_facts):
        """P(o) = prod ob(o, f) with vote fractions (paper Eq. 15/16)."""
        belief = initialize_from_votes(
            three_facts, {1: 0.8, 2: 0.6, 3: 0.4}, smoothing=0.01
        )
        expected = 0.8 * 0.6 * (1 - 0.4)
        assert belief.probability_of((True, True, False)) == pytest.approx(
            expected
        )

    def test_sequence_input(self, three_facts):
        belief = initialize_from_votes(three_facts, [0.7, 0.7, 0.7])
        assert belief.marginal(1) == pytest.approx(0.7)

    def test_sequence_wrong_length(self, three_facts):
        with pytest.raises(ValueError, match="one vote fraction"):
            initialize_from_votes(three_facts, [0.5])

    def test_smoothing_avoids_point_mass(self, three_facts):
        belief = initialize_from_votes(
            three_facts, [1.0, 1.0, 1.0], smoothing=0.01
        )
        # A unanimous crowd must not create irrecoverable certainty.
        assert belief.probability_of((True, True, True)) < 1.0
        assert observation_entropy(belief) > 0.0

    @pytest.mark.parametrize("smoothing", [0.6, 0.5, 0.0, -0.1])
    def test_invalid_smoothing(self, three_facts, smoothing):
        """Smoothing must lie strictly inside (0, 0.5) — zero would keep
        an irrecoverable point mass from a unanimous crowd."""
        with pytest.raises(ValueError, match=r"smoothing must lie in"):
            initialize_from_votes(
                three_facts, [0.5] * 3, smoothing=smoothing
            )

    def test_boundary_smoothing_accepted(self, three_facts):
        belief = initialize_from_votes(
            three_facts, [1.0] * 3, smoothing=0.499
        )
        assert belief.marginal(1) == pytest.approx(0.501)

    def test_marginals_clipped(self, three_facts):
        belief = initialize_from_votes(
            three_facts, [0.0, 1.0, 0.5], smoothing=0.05
        )
        assert belief.marginal(1) == pytest.approx(0.05)
        assert belief.marginal(2) == pytest.approx(0.95)


class TestUpdateWithAnswerSet:
    def test_lemma3_bayes_rule(self, table1_belief, worker):
        """Posterior must equal P(o) P(A|o) / P(A) exactly (Eq. 19)."""
        answer_set = AnswerSet(worker=worker, answers={1: True, 3: False})
        posterior = update_with_answer_set(table1_belief, answer_set)
        likelihood = answer_set_likelihood(table1_belief, answer_set)
        expected = table1_belief.probabilities * likelihood
        expected /= expected.sum()
        assert np.allclose(posterior.probabilities, expected)

    def test_posterior_normalized(self, table1_belief, worker):
        answer_set = AnswerSet(worker=worker, answers={2: True})
        posterior = update_with_answer_set(table1_belief, answer_set)
        assert posterior.probabilities.sum() == pytest.approx(1.0)

    def test_yes_answer_raises_marginal(self, table1_belief, worker):
        answer_set = AnswerSet(worker=worker, answers={3: True})
        posterior = update_with_answer_set(table1_belief, answer_set)
        assert posterior.marginal(3) > table1_belief.marginal(3)

    def test_no_answer_lowers_marginal(self, table1_belief, worker):
        answer_set = AnswerSet(worker=worker, answers={3: False})
        posterior = update_with_answer_set(table1_belief, answer_set)
        assert posterior.marginal(3) < table1_belief.marginal(3)

    def test_coin_flip_worker_changes_nothing(self, table1_belief):
        flipper = Worker("c", 0.5)
        answer_set = AnswerSet(worker=flipper, answers={1: True, 2: False})
        posterior = update_with_answer_set(table1_belief, answer_set)
        assert np.allclose(
            posterior.probabilities, table1_belief.probabilities
        )

    def test_unqueried_fact_marginal_moves_via_correlation(
        self, table1_belief, worker
    ):
        """Correlated facts: updating f1 should shift P(f2) too, which is
        exactly what independent-per-fact methods miss."""
        answer_set = AnswerSet(worker=worker, answers={1: True})
        posterior = update_with_answer_set(table1_belief, answer_set)
        assert posterior.marginal(2) != pytest.approx(
            table1_belief.marginal(2)
        )

    def test_inconsistent_evidence_raises(self, three_facts):
        certain = BeliefState.point_mass(three_facts, (True, True, True))
        oracle = Worker("o", 1.0)
        contradiction = AnswerSet(worker=oracle, answers={1: False})
        with pytest.raises(InconsistentEvidenceError):
            update_with_answer_set(certain, contradiction)


class TestUpdateWithFamily:
    def test_family_equals_sequential_updates(self, table1_belief):
        """Workers are independent given o, so one family update equals
        updating with each answer set in turn (Eq. 23)."""
        a = AnswerSet(worker=Worker("a", 0.9), answers={1: True, 2: False})
        b = AnswerSet(worker=Worker("b", 0.8), answers={1: False, 2: False})
        family = AnswerFamily(answer_sets=(a, b))
        at_once = update_with_family(table1_belief, family)
        stepwise = update_with_answer_set(
            update_with_answer_set(table1_belief, a), b
        )
        assert np.allclose(at_once.probabilities, stepwise.probabilities)

    def test_order_invariance(self, table1_belief):
        a = AnswerSet(worker=Worker("a", 0.9), answers={1: True})
        b = AnswerSet(worker=Worker("b", 0.7), answers={1: False})
        forward = update_with_family(
            table1_belief, AnswerFamily(answer_sets=(a, b))
        )
        backward = update_with_family(
            table1_belief, AnswerFamily(answer_sets=(b, a))
        )
        assert np.allclose(forward.probabilities, backward.probabilities)

    def test_agreeing_experts_sharpen_more_than_one(self, table1_belief):
        one = update_with_family(
            table1_belief,
            AnswerFamily(
                answer_sets=(
                    AnswerSet(worker=Worker("a", 0.9), answers={3: True}),
                )
            ),
        )
        two = update_with_family(
            table1_belief,
            AnswerFamily(
                answer_sets=(
                    AnswerSet(worker=Worker("a", 0.9), answers={3: True}),
                    AnswerSet(worker=Worker("b", 0.9), answers={3: True}),
                )
            ),
        )
        assert two.marginal(3) > one.marginal(3)

    def test_disagreeing_equal_experts_cancel(self, table1_belief):
        family = AnswerFamily(
            answer_sets=(
                AnswerSet(worker=Worker("a", 0.9), answers={3: True}),
                AnswerSet(worker=Worker("b", 0.9), answers={3: False}),
            )
        )
        posterior = update_with_family(table1_belief, family)
        assert posterior.marginal(3) == pytest.approx(
            table1_belief.marginal(3)
        )

    def test_tempered_matches_exact_update_when_consistent(
        self, table1_belief, worker
    ):
        answer_set = AnswerSet(worker=worker, answers={1: True, 3: False})
        exact = update_with_answer_set(table1_belief, answer_set)
        tempered, was_tempered = tempered_update_with_answer_set(
            table1_belief, answer_set
        )
        assert not was_tempered
        assert np.array_equal(tempered.probabilities, exact.probabilities)

    def test_tempered_absorbs_zero_evidence(self, three_facts):
        certain = BeliefState.point_mass(three_facts, (True, True, True))
        oracle = Worker("o", 1.0)
        contradiction = AnswerSet(worker=oracle, answers={1: False})
        posterior, was_tempered = tempered_update_with_answer_set(
            certain, contradiction
        )
        assert was_tempered
        assert posterior.probabilities.sum() == pytest.approx(1.0)
        assert np.all(posterior.probabilities >= 0.0)
        # flooring the likelihood cannot resurrect states the prior
        # excludes: against a true point mass the update is a no-op
        assert np.array_equal(
            posterior.probabilities, certain.probabilities
        )

    def test_tempered_family_flags_zero_evidence(self, three_facts):
        certain = BeliefState.point_mass(three_facts, (True, True, True))
        family = AnswerFamily(
            answer_sets=(
                AnswerSet(worker=Worker("o", 1.0), answers={1: False}),
            )
        )
        posterior, was_tempered = tempered_update_with_family(
            certain, family
        )
        assert was_tempered
        assert posterior.probabilities.sum() == pytest.approx(1.0)

    def test_tempered_posterior_rejects_bad_floor(self, table1_belief):
        family = AnswerFamily(
            answer_sets=(
                AnswerSet(worker=Worker("w", 0.9), answers={1: True}),
            )
        )
        with pytest.raises(ValueError, match="floor"):
            tempered_update_with_family(table1_belief, family, floor=0.0)

    def test_expected_posterior_entropy_drops(self, table1_belief):
        """Averaged over the family distribution, posterior entropy must
        fall (information never hurts) — spot-check by sampling."""
        from repro.core import enumerate_answer_families, family_probability

        experts = Crowd.from_accuracies([0.85, 0.9])
        prior_entropy = observation_entropy(table1_belief)
        expected = 0.0
        for family in enumerate_answer_families([1, 2], experts):
            weight = family_probability(table1_belief, family)
            if weight == 0.0:
                continue
            posterior = update_with_family(table1_belief, family)
            expected += weight * observation_entropy(posterior)
        assert expected < prior_entropy


class TestLogSpaceUnderflow:
    """High-accuracy workers must not crash the update via float64
    underflow: 20 workers at 0.999 split into two contradicting camps
    (11 yes, 9 no) drive every linear-space likelihood product to
    exactly 0.0, yet the evidence is perfectly consistent and the
    majority camp should win."""

    NUM_FACTS = 14
    YES_CAMP = 11  # the remaining 9 of 20 answer all-No

    def _camps_family(self, facts, num_workers=20, accuracy=0.999):
        yes = {fact.fact_id: True for fact in facts}
        no = {fact.fact_id: False for fact in facts}
        return AnswerFamily(
            answer_sets=tuple(
                AnswerSet(
                    worker=Worker(f"w{i}", accuracy),
                    answers=dict(yes if i < self.YES_CAMP else no),
                )
                for i in range(num_workers)
            )
        )

    def _uniform_belief(self):
        return BeliefState.uniform(
            FactSet.from_ids(range(self.NUM_FACTS))
        )

    def test_linear_product_underflows_to_zero(self):
        from repro.core import family_likelihood

        belief = self._uniform_belief()
        family = self._camps_family(belief.facts)
        likelihood = family_likelihood(belief, family)
        assert likelihood.max() == 0.0  # the failure this guards against

    def test_update_with_family_recovers_in_log_space(self):
        belief = self._uniform_belief()
        family = self._camps_family(belief.facts)
        posterior = update_with_family(belief, family)

        probs = posterior.probabilities
        assert np.all(np.isfinite(probs))
        assert probs.sum() == pytest.approx(1.0)
        # the 11-worker yes camp outweighs the 9-worker no camp
        all_true = posterior.probability_of((True,) * self.NUM_FACTS)
        assert all_true > 0.999
        for fact in belief.facts:
            assert posterior.marginal(fact.fact_id) > 0.99

    def test_tempered_update_stays_exact_on_underflow(self):
        """Underflowed-but-consistent evidence is recomputed exactly in
        log space, not floored — the tempered flag stays False."""
        belief = self._uniform_belief()
        family = self._camps_family(belief.facts)
        posterior, tempered = tempered_update_with_family(belief, family)
        assert tempered is False
        exact = update_with_family(belief, family)
        assert np.allclose(posterior.probabilities, exact.probabilities)

    def test_single_answer_set_log_fallback(self):
        belief = self._uniform_belief()
        answers = {fact.fact_id: True for fact in belief.facts}
        # drive the per-set product below the guard with repeats
        answer_set = AnswerSet(worker=Worker("w", 1e-30), answers=answers)
        posterior = update_with_answer_set(belief, answer_set)
        assert np.all(np.isfinite(posterior.probabilities))
        assert posterior.probabilities.sum() == pytest.approx(1.0)
        # an inverter this extreme makes all-False a near-certainty
        assert posterior.probability_of(
            (False,) * self.NUM_FACTS
        ) == pytest.approx(1.0)

    def test_genuine_inconsistency_still_raises(self, three_facts):
        certain = BeliefState.point_mass(three_facts, (True, True, True))
        family = AnswerFamily(
            answer_sets=(
                AnswerSet(worker=Worker("o", 1.0), answers={1: False}),
            )
        )
        with pytest.raises(InconsistentEvidenceError):
            update_with_family(certain, family)

    def test_log_path_matches_linear_on_healthy_evidence(
        self, table1_belief
    ):
        """Same answers, healthy evidence: forcing the log path must
        agree with the linear path to float tolerance."""
        from repro.core.answers import likelihood_table

        family = AnswerFamily(
            answer_sets=(
                AnswerSet(worker=Worker("a", 0.9),
                          answers={1: True, 2: False, 3: True}),
                AnswerSet(worker=Worker("b", 0.8),
                          answers={1: False, 2: False, 3: True}),
            )
        )
        linear = update_with_family(table1_belief, family)
        logged = table1_belief.log_reweighted(
            likelihood_table(table1_belief, family, log=True)
        )
        assert np.allclose(linear.probabilities, logged.probabilities)


class TestExtremePanelLogGuard:
    """Satellite regression: a 30-worker panel at 0.9999 accuracy.

    This is the regime the log-space guard path exists for.  Each
    contrarian worker contributes ``0.0001**14 == 1e-56`` to the linear
    family product; 14 of them put the best state near ``1e-784`` —
    far below float64's ~1e-308 floor, so *every* dense linear
    likelihood is exactly 0.0.  The update must resolve entirely in log
    space (no re-exponentiate-then-renormalize round trip: that path
    would divide 0.0 by 0.0) and still return the exact posterior.
    """

    NUM_FACTS = 14
    NUM_WORKERS = 30
    YES_CAMP = 16  # the remaining 14 of 30 answer all-No
    ACCURACY = 0.9999

    def _facts(self):
        return FactSet.from_ids(range(self.NUM_FACTS))

    def _camps_family(self, facts):
        yes = {fact.fact_id: True for fact in facts}
        no = {fact.fact_id: False for fact in facts}
        return AnswerFamily(
            answer_sets=tuple(
                AnswerSet(
                    worker=Worker(f"w{i}", self.ACCURACY),
                    answers=yes if i < self.YES_CAMP else no,
                )
                for i in range(self.NUM_WORKERS)
            )
        )

    def test_dense_linear_path_fails(self):
        """The failure this pins: the linear product is identically 0."""
        from repro.core import family_likelihood

        belief = BeliefState.uniform(self._facts())
        likelihood = family_likelihood(belief, self._camps_family(belief.facts))
        assert likelihood.max() == 0.0

    def test_dense_log_guard_recovers_exactly(self):
        belief = BeliefState.uniform(self._facts())
        posterior = update_with_family(belief, self._camps_family(belief.facts))
        probs = posterior.probabilities
        assert np.all(np.isfinite(probs))
        assert probs.sum() == pytest.approx(1.0)
        # 16 near-perfect yes-workers beat 14 near-perfect no-workers
        assert posterior.probability_of((True,) * self.NUM_FACTS) > 0.9999

    def test_tempered_flag_stays_false(self):
        """Underflowed-but-consistent evidence resolves in log space and
        is never tempered (tempering would distort the posterior)."""
        belief = BeliefState.uniform(self._facts())
        posterior, tempered = tempered_update_with_family(
            belief, self._camps_family(belief.facts)
        )
        assert tempered is False
        assert posterior.probability_of((True,) * self.NUM_FACTS) > 0.9999

    def test_sparse_kernel_agrees_with_dense_log_path(self):
        """The bit-packed sparse kernel computes the same posterior
        directly in log space (it has no linear path to fall back
        from), matching the dense guard path to float tolerance."""
        from repro.core import sparse_from_marginals

        facts = self._facts()
        family = self._camps_family(facts)
        marginals = np.full(self.NUM_FACTS, 0.5)
        sparse = sparse_from_marginals(facts, marginals, 1e-12)
        dense = update_with_family(BeliefState.uniform(facts), family)
        sparse_post = update_with_family(sparse, family)
        assert np.all(np.isfinite(sparse_post.probabilities))
        assert sparse_post.probability_of((True,) * self.NUM_FACTS) == (
            pytest.approx(
                dense.probability_of((True,) * self.NUM_FACTS), rel=1e-9
            )
        )

    def test_estimated_accuracy_clamp_keeps_log_terms_finite(self):
        """estimate_accuracy can see a perfect gold record; the clamp
        must keep both log terms of the likelihood finite so the log
        kernel never sees log(0) for a merely *estimated* perfection."""
        from repro.core import estimate_accuracy

        perfect = estimate_accuracy([True] * 50, [True] * 50, smoothing=0.0)
        assert 0.0 < perfect < 1.0
        assert np.isfinite(np.log(perfect))
        assert np.isfinite(np.log1p(-perfect))
        belief = BeliefState.uniform(self._facts())
        answers = {fact.fact_id: True for fact in belief.facts}
        posterior = update_with_answer_set(
            belief, AnswerSet(worker=Worker("gold", perfect), answers=answers)
        )
        assert np.all(np.isfinite(posterior.probabilities))

    def test_log_branch_clips_a_negative_prior_entry(self):
        """``from_normalized`` keeps an entry in (-1e-12, 0); the log
        branch takes the log of the prior clipped at 0, as the linear
        branch clips its product, so the entry has no mass instead of a
        NaN log that reads as "-inf everywhere".  200 workers split
        100/100 on one fact underflow the product; the signed state
        updates to the clean state's bytes, untempered, without an
        ``invalid value encountered in log`` warning."""
        facts = FactSet.from_ids([0, 1])
        signed = BeliefState.from_normalized(facts, [0.5, 0.5, -1e-13, 0.0])
        clean = BeliefState.from_normalized(facts, [0.5, 0.5, 0.0, 0.0])
        family = AnswerFamily(
            answer_sets=tuple(
                AnswerSet(
                    worker=Worker(f"w{index}", self.ACCURACY),
                    answers={0: index < 100},
                )
                for index in range(200)
            )
        )
        expected = update_with_family(clean, family).probabilities
        np.testing.assert_allclose(expected, [0.5, 0.5, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            posterior = update_with_family(signed, family)
            tempered, flag = tempered_update_with_family(signed, family)
        assert posterior.probabilities.tobytes() == expected.tobytes()
        assert not flag
        assert tempered.probabilities.tobytes() == expected.tobytes()
