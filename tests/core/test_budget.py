"""Unit tests for repro.core.budget (Algorithm 3 accounting)."""

import pytest

from repro.core import CheckingBudget, CostModel, Crowd, Worker


@pytest.fixture
def experts():
    return Crowd.from_accuracies([0.9, 0.95], prefix="e")


class TestCostModel:
    def test_default_unit_cost(self, experts):
        model = CostModel()
        assert model.round_cost(3, experts) == 6.0  # |T| * |CE|

    def test_answer_cost_default_and_override(self, experts):
        model = CostModel(per_worker={"e0": 2.5})
        assert model.answer_cost(experts.by_id("e0")) == 2.5
        assert model.answer_cost(experts.by_id("e1")) == 1.0

    def test_accuracy_proportional(self, experts):
        model = CostModel.accuracy_proportional(experts, rate=2.0)
        assert model.answer_cost(experts.by_id("e0")) == pytest.approx(1.8)
        assert model.answer_cost(experts.by_id("e1")) == pytest.approx(1.9)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostModel(default_cost=-1.0)
        with pytest.raises(ValueError):
            CostModel(per_worker={"w": -0.5})

    def test_round_cost_scales_with_queries(self, experts):
        model = CostModel.accuracy_proportional(experts)
        assert model.round_cost(2, experts) == pytest.approx(
            2 * (0.9 + 0.95)
        )


class TestCheckingBudget:
    def test_initial_state(self):
        budget = CheckingBudget(10)
        assert budget.total == 10
        assert budget.spent == 0
        assert budget.remaining == 10

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            CheckingBudget(-1)

    @pytest.mark.parametrize("total", [float("nan"), float("inf")])
    def test_non_finite_total_rejected(self, total):
        with pytest.raises(ValueError, match="finite"):
            CheckingBudget(total)

    def test_charge_round_paper_line7(self, experts):
        """Algorithm 3 line 7: B <- B - |T| * |CE|."""
        budget = CheckingBudget(10)
        charged = budget.charge_round(2, experts)
        assert charged == 4.0
        assert budget.remaining == 6.0

    def test_charge_beyond_remaining_rejected(self, experts):
        budget = CheckingBudget(3)
        with pytest.raises(ValueError, match="exceeds"):
            budget.charge_round(2, experts)

    def test_affordable_queries_clamps_to_k(self, experts):
        budget = CheckingBudget(100)
        assert budget.affordable_queries(experts, 3) == 3

    def test_affordable_queries_clamps_to_budget(self, experts):
        budget = CheckingBudget(5)  # one query costs 2
        assert budget.affordable_queries(experts, 10) == 2

    def test_affordable_queries_zero_when_exhausted(self, experts):
        budget = CheckingBudget(1)  # cheaper than one query (cost 2)
        assert budget.affordable_queries(experts, 5) == 0

    def test_affordable_queries_empty_crowd(self):
        budget = CheckingBudget(10)
        assert budget.affordable_queries(Crowd([]), 5) == 0

    def test_affordable_queries_k_zero(self, experts):
        assert CheckingBudget(10).affordable_queries(experts, 0) == 0

    def test_stopping_rule_matches_paper_line8(self, experts):
        """Loop in Algorithm 3 stops when B < |T| * |CE|."""
        budget = CheckingBudget(7)
        rounds = 0
        while budget.affordable_queries(experts, 1) >= 1:
            budget.charge_round(1, experts)
            rounds += 1
        assert rounds == 3  # 7 // 2
        assert budget.remaining == 1.0

    def test_cost_model_integration(self, experts):
        model = CostModel(per_worker={"e0": 3.0, "e1": 2.0})
        budget = CheckingBudget(11, cost_model=model)
        assert budget.affordable_queries(experts, 5) == 2  # 5 per query
        budget.charge_round(2, experts)
        assert budget.remaining == 1.0

    def test_free_workers_afford_everything(self):
        free = Crowd([Worker("v", 0.9)])
        model = CostModel(default_cost=0.0)
        budget = CheckingBudget(0, cost_model=model)
        assert budget.affordable_queries(free, 4) == 4
        budget.charge_round(4, free)
        assert budget.spent == 0.0


class TestPartialFamilyCharging:
    """Budget invariants for partial answer families (fault tolerance)."""

    def _partial(self, experts, answered):
        from repro.core import AnswerSet, PartialAnswerFamily

        return PartialAnswerFamily(
            intended_query_fact_ids=(0, 1),
            intended_worker_ids=experts.worker_ids,
            answer_sets=tuple(
                AnswerSet(
                    worker=experts.by_id(worker_id),
                    answers={fact_id: True for fact_id in fact_ids},
                )
                for worker_id, fact_ids in answered.items()
            ),
        )

    def test_family_cost_counts_only_received_answers(self, experts):
        model = CostModel()
        family = self._partial(experts, {"e0": [0, 1], "e1": [0]})
        assert model.family_cost(family) == 3.0
        # a no-show costs nothing
        assert model.family_cost(self._partial(experts, {"e0": [0]})) == 1.0
        assert model.family_cost(self._partial(experts, {})) == 0.0

    def test_partial_never_exceeds_full_round(self, experts):
        model = CostModel(per_worker={"e0": 2.0, "e1": 3.0})
        full = model.round_cost(2, experts)
        for answered in (
            {"e0": [0, 1], "e1": [0, 1]},
            {"e0": [0, 1], "e1": [0]},
            {"e1": [1]},
            {},
        ):
            family = self._partial(experts, answered)
            assert model.family_cost(family) <= full

    def test_charge_family_keeps_budget_non_negative(self, experts):
        budget = CheckingBudget(3)
        budget.charge_family(self._partial(experts, {"e0": [0, 1]}))
        budget.charge_family(self._partial(experts, {"e1": [0]}))
        assert budget.remaining == 0.0
        assert budget.spent == 3.0
        with pytest.raises(ValueError, match="exceeds remaining"):
            budget.charge_family(self._partial(experts, {"e0": [0]}))
        assert budget.remaining == 0.0  # the refused charge left no mark

    def test_charge_family_charges_only_answered_workers(self, experts):
        model = CostModel(per_worker={"e0": 5.0, "e1": 1.0})
        budget = CheckingBudget(10, cost_model=model)
        cost = budget.charge_family(self._partial(experts, {"e1": [0, 1]}))
        assert cost == 2.0  # e0's no-show is free
        assert budget.spent == 2.0

    def test_accuracy_proportional_composes_with_reassignment(self):
        """Section III-D pricing must extend over the union of the
        original panel and reserves swapped in mid-campaign."""
        from repro.core import AnswerSet, PartialAnswerFamily

        panel = Crowd.from_accuracies([0.9, 0.95], prefix="e")
        reserve = Crowd([Worker("r0", 0.8)])
        union = Crowd(list(panel) + list(reserve))
        model = CostModel.accuracy_proportional(union, rate=2.0)
        budget = CheckingBudget(10, cost_model=model)
        mixed = PartialAnswerFamily(
            intended_query_fact_ids=(0,),
            intended_worker_ids=union.worker_ids,
            answer_sets=(
                AnswerSet(worker=panel.by_id("e1"), answers={0: True}),
                AnswerSet(worker=reserve.by_id("r0"), answers={0: False}),
            ),
        )
        cost = budget.charge_family(mixed)
        assert cost == pytest.approx(2.0 * 0.95 + 2.0 * 0.8)
        assert budget.remaining == pytest.approx(10 - cost)
