"""Unit tests for the aggregator registry."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.aggregation import (
    BASELINE_NAMES,
    Aggregator,
    MajorityVote,
    available_aggregators,
    make_aggregator,
    register_aggregator,
)


class TestRegistry:
    def test_all_baselines_available(self):
        available = available_aggregators()
        for name in BASELINE_NAMES:
            assert name in available

    def test_baseline_count_matches_paper(self):
        assert len(BASELINE_NAMES) == 8

    def test_make_returns_aggregator(self):
        for name in BASELINE_NAMES:
            aggregator = make_aggregator(name)
            assert isinstance(aggregator, Aggregator)

    def test_case_insensitive(self):
        assert type(make_aggregator("ebcc")) is type(make_aggregator("EBCC"))

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown aggregator"):
            make_aggregator("NOPE")

    def test_fresh_instance_each_call(self):
        assert make_aggregator("DS") is not make_aggregator("DS")

    def test_register_custom(self):
        register_aggregator(
            "test_custom", lambda: MajorityVote(smoothing=2.0)
        )
        try:
            aggregator = make_aggregator("test_custom")
            assert aggregator.smoothing == 2.0
        finally:
            # Clean up so repeated test runs in one session don't clash.
            register_aggregator(
                "test_custom", MajorityVote, overwrite=True
            )

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_aggregator("MV", MajorityVote)

    def test_register_overwrite_allowed(self):
        original = make_aggregator("MV")
        register_aggregator(
            "MV", lambda: MajorityVote(smoothing=9.0), overwrite=True
        )
        try:
            assert make_aggregator("MV").smoothing == 9.0
        finally:
            register_aggregator(
                "MV",
                lambda: MajorityVote(smoothing=original.smoothing),
                overwrite=True,
            )


def test_registry_import_leaves_scipy_stats_unloaded():
    """Belief initialization imports the registry; ``scipy.stats``
    (~0.6 s, ~45 MB) loads only when MV-Beta actually fits."""
    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        "import sys\n"
        "import repro.aggregation.registry, repro.datasets.grouping\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'\n"
        "from repro.aggregation import make_aggregator\n"
        "from repro.aggregation.base import AnswerMatrix\n"
        "make_aggregator('MV-Beta').fit(AnswerMatrix([(0, 0, 1)], num_classes=2))\n"
        "assert 'scipy.stats' in sys.modules\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
