"""Unit tests for repro.core.observations."""

import numpy as np
import pytest

from repro.core import (
    BeliefState,
    FactSet,
    FactoredBelief,
    GroupTooLargeError,
    SparseBeliefState,
    observation_index,
    shannon_entropy,
    sparse_from_marginals,
    truth_table,
)


class TestTruthTable:
    def test_shape(self):
        assert truth_table(3).shape == (8, 3)

    def test_zero_facts(self):
        table = truth_table(0)
        assert table.shape == (1, 0)

    def test_little_endian_bits(self):
        table = truth_table(3)
        # observation 5 = 0b101 -> facts 0 and 2 true, fact 1 false
        assert list(table[5]) == [True, False, True]

    def test_all_rows_distinct(self):
        table = truth_table(4)
        as_ints = table @ (1 << np.arange(4))
        assert len(set(as_ints.tolist())) == 16

    def test_read_only(self):
        table = truth_table(2)
        with pytest.raises(ValueError):
            table[0, 0] = True

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            truth_table(-1)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            truth_table(25)


class TestGroupSizeCap:
    """Every state constructor refuses a group past the 24-fact cap
    before it allocates: a 25-fact dense belief would need 256 MiB."""

    CONSTRUCTORS = {
        "init": lambda facts: BeliefState(facts, np.ones(2)),
        "uniform": BeliefState.uniform,
        "point_mass": lambda facts: BeliefState.point_mass(
            facts, [True] * len(facts)
        ),
        "from_mapping": lambda facts: BeliefState.from_mapping(facts, {}),
        "from_marginals": lambda facts: BeliefState.from_marginals(
            facts, [0.5] * len(facts)
        ),
        "from_normalized": lambda facts: BeliefState.from_normalized(
            facts, np.ones(2)
        ),
        "sparse_init": lambda facts: SparseBeliefState(
            facts, np.ones(2), epsilon=0.1
        ),
        "from_support": lambda facts: SparseBeliefState.from_support(
            facts, np.array([0]), np.array([1.0]), 0.1
        ),
        "sparse_from_marginals": lambda facts: sparse_from_marginals(
            facts, [0.5] * len(facts), 0.1
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_25_facts_refused(self, name):
        facts = FactSet.from_ids(range(100, 125))
        with pytest.raises(GroupTooLargeError, match="too large") as caught:
            self.CONSTRUCTORS[name](facts)
        assert "2**25 x 8 bytes = 256 MiB" in str(caught.value)

    def test_cost_grows_with_the_group(self):
        with pytest.raises(GroupTooLargeError, match="8,192 MiB"):
            BeliefState.uniform(FactSet.from_ids(range(30)))

    def test_is_a_value_error(self):
        assert issubclass(GroupTooLargeError, ValueError)
        with pytest.raises(GroupTooLargeError):
            truth_table(25)


class TestObservationIndex:
    def test_empty(self):
        assert observation_index([]) == 0

    def test_round_trip_with_table(self):
        table = truth_table(3)
        for state in range(8):
            assert observation_index(list(table[state])) == state


class TestBeliefState:
    def test_normalizes(self, three_facts):
        belief = BeliefState(three_facts, np.ones(8) * 3.0)
        assert belief.probabilities.sum() == pytest.approx(1.0)

    def test_wrong_shape_rejected(self, three_facts):
        with pytest.raises(ValueError, match="expected 8"):
            BeliefState(three_facts, np.ones(4))

    def test_negative_rejected(self, three_facts):
        probs = np.ones(8)
        probs[0] = -0.5
        with pytest.raises(ValueError, match="non-negative"):
            BeliefState(three_facts, probs)

    def test_zero_sum_rejected(self, three_facts):
        with pytest.raises(ValueError, match="sum to zero"):
            BeliefState(three_facts, np.zeros(8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda weights: BeliefState(FactSet.from_ids([0]), weights),
            lambda weights: BeliefState.from_normalized(
                FactSet.from_ids([0]), weights
            ),
            lambda weights: SparseBeliefState(FactSet.from_ids([0]), weights),
            shannon_entropy,
        ],
        ids=["init", "from_normalized", "sparse_init", "shannon_entropy"],
    )
    def test_non_finite_rejected(self, build, bad):
        """A NaN or infinite weight would otherwise come out as a NaN
        belief whose H(O) reads as certainty (-0.0)."""
        with pytest.raises(ValueError, match="finite"):
            build(np.array([bad, 1.0]))

    def test_probabilities_read_only(self, table1_belief):
        with pytest.raises(ValueError):
            table1_belief.probabilities[0] = 0.5

    def test_uniform(self, three_facts):
        belief = BeliefState.uniform(three_facts)
        assert np.allclose(belief.probabilities, 1 / 8)

    def test_table1_marginals(self, table1_belief):
        """Paper Eq. 4: P(f1)=0.58, P(f2)=0.63, P(f3)=0.50."""
        assert table1_belief.marginal(1) == pytest.approx(0.58)
        assert table1_belief.marginal(2) == pytest.approx(0.63)
        assert table1_belief.marginal(3) == pytest.approx(0.50)

    def test_marginals_vector_matches_scalar(self, table1_belief):
        vector = table1_belief.marginals()
        for position, fact_id in enumerate((1, 2, 3)):
            assert vector[position] == pytest.approx(
                table1_belief.marginal(fact_id)
            )

    def test_table1_joint_not_product_of_marginals(self, table1_belief):
        """Paper's point after Eq. 4: the facts are correlated."""
        product = (
            (1 - table1_belief.marginal(1))
            * (1 - table1_belief.marginal(2))
            * (1 - table1_belief.marginal(3))
        )
        joint = table1_belief.probability_of((False, False, False))
        assert abs(product - joint) > 0.01

    def test_probability_of(self, table1_belief):
        assert table1_belief.probability_of(
            (True, True, False)
        ) == pytest.approx(0.20)

    def test_from_marginals_product(self, three_facts):
        belief = BeliefState.from_marginals(three_facts, [0.5, 0.5, 0.5])
        assert np.allclose(belief.probabilities, 1 / 8)

    def test_from_marginals_bad_length(self, three_facts):
        with pytest.raises(ValueError, match="one marginal"):
            BeliefState.from_marginals(three_facts, [0.5])

    def test_from_marginals_out_of_range(self, three_facts):
        with pytest.raises(ValueError, match="lie in"):
            BeliefState.from_marginals(three_facts, [0.5, 1.5, 0.5])

    def test_from_marginals_extreme_ok(self, three_facts):
        belief = BeliefState.from_marginals(three_facts, [1.0, 0.0, 1.0])
        assert belief.probability_of((True, False, True)) == pytest.approx(1.0)

    def test_from_mapping_rejects_wrong_length(self, three_facts):
        with pytest.raises(ValueError, match="length"):
            BeliefState.from_mapping(three_facts, {(True,): 1.0})

    def test_point_mass(self, three_facts):
        belief = BeliefState.point_mass(three_facts, (True, False, True))
        assert belief.probability_of((True, False, True)) == 1.0
        assert belief.map_labels() == {1: True, 2: False, 3: True}

    def test_map_observation(self, table1_belief):
        # Largest mass in Table I is o4 = (True, True, False) at 0.20.
        assert table1_belief.map_observation() == observation_index(
            (True, True, False)
        )

    def test_map_labels(self, table1_belief):
        assert table1_belief.map_labels() == {1: True, 2: True, 3: False}

    def test_with_probabilities(self, table1_belief):
        updated = table1_belief.with_probabilities(np.ones(8))
        assert np.allclose(updated.probabilities, 1 / 8)
        assert updated.facts == table1_belief.facts


class TestFactoredBelief:
    def _two_groups(self):
        group_a = BeliefState.uniform(FactSet.from_ids([0, 1]))
        group_b = BeliefState.uniform(FactSet.from_ids([2, 3, 4]))
        return FactoredBelief([group_a, group_b])

    def test_len_and_num_facts(self):
        belief = self._two_groups()
        assert len(belief) == 2
        assert belief.num_facts == 5

    def test_fact_ids_order(self):
        assert self._two_groups().fact_ids == [0, 1, 2, 3, 4]

    def test_group_lookup(self):
        belief = self._two_groups()
        assert belief.group_index_of(3) == 1
        assert belief.group_of(0) is belief[0]

    def test_duplicate_fact_across_groups_rejected(self):
        group = BeliefState.uniform(FactSet.from_ids([0]))
        with pytest.raises(ValueError, match="multiple groups"):
            FactoredBelief([group, group])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FactoredBelief([])

    def test_replace_group(self):
        belief = self._two_groups()
        new_state = BeliefState.point_mass(
            FactSet.from_ids([0, 1]), (True, True)
        )
        belief.replace_group(0, new_state)
        assert belief.marginal(0) == pytest.approx(1.0)

    def test_replace_group_wrong_facts_rejected(self):
        belief = self._two_groups()
        wrong = BeliefState.uniform(FactSet.from_ids([9, 10]))
        with pytest.raises(ValueError, match="same facts"):
            belief.replace_group(0, wrong)

    def test_map_labels_covers_all_facts(self):
        labels = self._two_groups().map_labels()
        assert set(labels) == {0, 1, 2, 3, 4}

    def test_copy_is_independent(self):
        belief = self._two_groups()
        clone = belief.copy()
        new_state = BeliefState.point_mass(
            FactSet.from_ids([0, 1]), (True, True)
        )
        clone.replace_group(0, new_state)
        assert belief.marginal(0) == pytest.approx(0.5)
        assert clone.marginal(0) == pytest.approx(1.0)


class TestLogReweighted:
    def _belief(self):
        return BeliefState.from_marginals(
            FactSet.from_ids([1, 2]), [0.6, 0.3]
        )

    def test_matches_linear_reweighting(self):
        belief = self._belief()
        likelihood = np.array([0.9, 0.05, 0.4, 0.7])
        linear = BeliefState(belief.facts, belief.probabilities * likelihood)
        logged = belief.log_reweighted(np.log(likelihood))
        assert np.allclose(linear.probabilities, logged.probabilities)

    def test_survives_extreme_log_likelihoods(self):
        belief = self._belief()
        log_likelihood = np.array([-800.0, -805.0, -900.0, -1000.0])
        posterior = belief.log_reweighted(log_likelihood)
        assert np.all(np.isfinite(posterior.probabilities))
        assert posterior.probabilities.sum() == pytest.approx(1.0)
        # only the relative weights matter: -800 vs -805 is e^5
        ratio = posterior.probabilities[0] / posterior.probabilities[1]
        expected = np.exp(5.0) * belief.probabilities[0] / belief.probabilities[1]
        assert ratio == pytest.approx(expected)

    def test_all_minus_inf_raises(self):
        belief = self._belief()
        with pytest.raises(ValueError, match="-inf"):
            belief.log_reweighted(np.full(4, -np.inf))

    def test_minus_inf_only_off_support_is_fine(self):
        facts = FactSet.from_ids([1, 2])
        belief = BeliefState.from_mapping(
            facts,
            {
                (False, False): 0.5,
                (True, False): 0.5,
                (False, True): 0.0,
                (True, True): 0.0,
            },
        )
        log_likelihood = np.array([0.0, -1.0, -np.inf, -np.inf])
        posterior = belief.log_reweighted(log_likelihood)
        assert posterior.probabilities.sum() == pytest.approx(1.0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape|length|observation"):
            self._belief().log_reweighted(np.zeros(3))
