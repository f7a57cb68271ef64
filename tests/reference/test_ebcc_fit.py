"""``Ebcc.fit`` against its pre-split form, bit for bit.

The production fit accumulates its confusion counts and log
responsibilities with one 1-D ``np.add.at`` per (class, subtype) cell;
``ebcc_fit.fit`` keeps the two mixed-index ``np.add.at`` calls it
replaced.  Every target element receives the same operands in the same
order, so posteriors, responsibilities, reliabilities and the iteration
count must be *equal*, not close.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.base import AnswerMatrix
from repro.aggregation.ebcc import Ebcc

from . import ebcc_fit as reference


@st.composite
def answer_matrices(draw, num_classes: int):
    """A random sparse answer matrix: every task and worker index in
    range (some may answer nothing), labels uniform over the classes."""
    num_tasks = draw(st.integers(1, 30))
    num_workers = draw(st.integers(1, 10))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_tasks - 1),
                st.integers(0, num_workers - 1),
            ),
            min_size=1,
            max_size=num_tasks * num_workers,
            unique=True,
        )
    )
    labels = draw(
        st.lists(
            st.integers(0, num_classes - 1),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    return AnswerMatrix(
        [(task, worker, label) for (task, worker), label in zip(pairs, labels)],
        num_tasks=num_tasks,
        num_workers=num_workers,
        num_classes=num_classes,
    )


def assert_same_fit(ours, theirs) -> None:
    assert np.array_equal(ours.posteriors, theirs.posteriors)
    assert np.array_equal(
        ours.extras["responsibilities"], theirs.extras["responsibilities"]
    )
    assert np.array_equal(ours.worker_reliability, theirs.worker_reliability)
    assert ours.iterations == theirs.iterations
    assert ours.converged == theirs.converged


@pytest.mark.parametrize("num_subtypes", [1, 2, 3])
@pytest.mark.parametrize("num_classes", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fit_is_bit_identical_to_the_reference(
    num_classes, num_subtypes, data
):
    matrix = data.draw(answer_matrices(num_classes))
    aggregator = Ebcc(
        num_subtypes=num_subtypes, seed=data.draw(st.integers(0, 2**16))
    )
    assert_same_fit(aggregator.fit(matrix), reference.fit(aggregator, matrix))


@pytest.mark.parametrize("max_iter", [1, 3])
def test_unconverged_fits_match(max_iter):
    """Stopping after a few iterations compares intermediate states,
    not just the fixed point both fits converge to."""
    rng = np.random.default_rng(max_iter)
    annotations = [
        (task, worker, int(rng.integers(0, 3)))
        for task in range(40)
        for worker in range(8)
        if rng.random() < 0.6
    ]
    matrix = AnswerMatrix(annotations, num_tasks=40, num_workers=8,
                          num_classes=3)
    aggregator = Ebcc(num_subtypes=2, max_iter=max_iter, seed=4)
    ours = aggregator.fit(matrix)
    assert not ours.converged
    assert_same_fit(ours, reference.fit(aggregator, matrix))


def test_initialized_belief_is_unchanged(small_dataset, monkeypatch):
    """The campaign start every session builds from an EBCC fit."""
    from repro.aggregation.registry import make_aggregator
    from repro.datasets.grouping import initialize_belief

    ours, _ = initialize_belief(small_dataset, make_aggregator("EBCC"), 0.9)
    monkeypatch.setattr(Ebcc, "fit", reference.fit)
    theirs, _ = initialize_belief(small_dataset, make_aggregator("EBCC"), 0.9)
    for mine, reference_state in zip(ours, theirs):
        assert np.array_equal(
            mine.probabilities, reference_state.probabilities
        )
