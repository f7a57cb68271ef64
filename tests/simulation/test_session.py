"""Unit tests for the one-call HC session pipeline."""

import pytest

from repro.core import MaxMarginalEntropySelector, RandomSelector
from repro.simulation import (
    SessionConfig,
    SimulatedExpertPanel,
    run_hc_session,
)


class TestSessionConfig:
    def test_paper_defaults(self):
        config = SessionConfig()
        assert config.theta == 0.9
        assert config.k == 1
        assert config.initializer == "EBCC"

    @pytest.mark.parametrize("k", [0, -1, 1.5, True, "2"])
    def test_k_must_be_a_positive_int(self, k):
        with pytest.raises(ValueError, match="^k must be an int >= 1"):
            SessionConfig(k=k)

    @pytest.mark.parametrize(
        "budget", [float("nan"), float("inf"), -1.0, "10", None]
    )
    def test_budget_must_be_finite_and_non_negative(self, budget):
        with pytest.raises(ValueError, match="^budget must be finite"):
            SessionConfig(budget=budget)

    @pytest.mark.parametrize("theta", [float("nan"), 1.5, -0.1, "0.9"])
    def test_theta_must_lie_in_the_unit_interval(self, theta):
        with pytest.raises(ValueError, match="^theta must be a number"):
            SessionConfig(theta=theta)

    def test_boundary_values_are_accepted(self):
        import numpy as np

        config = SessionConfig(theta=1, k=np.int64(3), budget=0)
        assert (config.theta, config.k, config.budget) == (1, 3, 0)
        assert SessionConfig(theta=np.float64(0.0)).theta == 0.0


class TestRunHcSession:
    def test_end_to_end(self, small_dataset):
        config = SessionConfig(budget=30, seed=0)
        result = run_hc_session(small_dataset, config)
        assert result.history[0].budget_spent == 0
        assert result.history[-1].budget_spent <= 30
        assert result.history[-1].accuracy is not None

    def test_quality_improves(self, small_dataset):
        config = SessionConfig(budget=60, seed=1)
        result = run_hc_session(small_dataset, config)
        assert result.history[-1].quality > result.history[0].quality

    def test_custom_selector(self, small_dataset):
        config = SessionConfig(budget=24, seed=0)
        result = run_hc_session(
            small_dataset, config, selector=RandomSelector(rng=0)
        )
        assert len(result.history) > 1

    def test_custom_aggregator(self, small_dataset):
        from repro.aggregation import MajorityVote

        config = SessionConfig(budget=12, seed=0)
        result = run_hc_session(
            small_dataset, config, aggregator=MajorityVote(smoothing=1.0)
        )
        assert result.history[0].accuracy is not None

    def test_custom_answer_source(self, small_dataset):
        source = SimulatedExpertPanel(small_dataset.ground_truth, rng=9)
        config = SessionConfig(budget=12, seed=0)
        run_hc_session(small_dataset, config, answer_source=source)
        assert source.answers_served > 0

    def test_impossible_theta_rejected(self, small_dataset):
        config = SessionConfig(theta=0.999, budget=10)
        with pytest.raises(ValueError, match="no worker reaches"):
            run_hc_session(small_dataset, config)

    def test_seed_reproducibility(self, small_dataset):
        config = SessionConfig(budget=30, seed=7)
        a = run_hc_session(small_dataset, config)
        b = run_hc_session(small_dataset, config)
        assert [r.quality for r in a.history] == [
            r.quality for r in b.history
        ]
        assert a.final_labels == b.final_labels

    def test_k_greater_than_one(self, small_dataset):
        config = SessionConfig(budget=36, k=3, seed=0)
        result = run_hc_session(
            small_dataset, config, selector=MaxMarginalEntropySelector()
        )
        assert any(
            len(record.query_fact_ids) == 3
            for record in result.history[1:]
        )
