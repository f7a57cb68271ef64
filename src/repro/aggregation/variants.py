"""Majority-voting variants from the paper's related work [12], [15].

Sheng et al. ("Majority Voting and Pairing with Multiple Noisy
Labeling", TKDE) propose refinements of plain majority voting that keep
the uncertainty information the paper laments losing in Eq. 5:

* **MV-Freq** — label by vote frequency; the posterior *is* the vote
  fraction (plain MV with soft output).
* **MV-Beta** — treat the (yes, no) counts as observations of a
  Bernoulli rate with a uniform Beta prior; the label's certainty is
  the posterior probability that the rate exceeds 1/2, i.e.
  ``P(p > 0.5 | votes) = 1 - BetaCDF(0.5; yes+1, no+1)``.  This damps
  confidence on low-redundancy tasks far more than raw frequency.
* **Paired-MV** — when certainty is low, instead of committing to one
  label, emit *both* labels as weighted training examples.  As an
  aggregator it reports the frequency posterior; the weighted pairs are
  exposed via :meth:`PairedVote.paired_examples` for downstream
  learners.

These are binary-classification strategies (the setting of [15] and of
this paper's decision-making tasks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import AggregationResult, Aggregator, AnswerMatrix, check_not_empty


def _binary_vote_counts(matrix: AnswerMatrix) -> np.ndarray:
    if matrix.num_classes != 2:
        raise ValueError("majority-voting variants support binary labels")
    return matrix.vote_counts()


class MvFreq(Aggregator):
    """MV-Freq: soft majority voting by raw vote frequency."""

    name = "MV-Freq"

    def fit(self, matrix: AnswerMatrix) -> AggregationResult:
        check_not_empty(matrix)
        counts = _binary_vote_counts(matrix)
        totals = counts.sum(axis=1, keepdims=True)
        unvoted = totals[:, 0] == 0
        counts[unvoted] = 1.0
        totals = counts.sum(axis=1, keepdims=True)
        return AggregationResult(posteriors=counts / totals)


class MvBeta(Aggregator):
    """MV-Beta: Beta-posterior certainty of the majority label.

    Parameters
    ----------
    prior_alpha, prior_beta:
        Beta prior pseudo-counts (uniform prior by default).
    """

    name = "MV-Beta"

    def __init__(self, prior_alpha: float = 1.0, prior_beta: float = 1.0):
        if prior_alpha <= 0 or prior_beta <= 0:
            raise ValueError("Beta prior pseudo-counts must be positive")
        self.prior_alpha = prior_alpha
        self.prior_beta = prior_beta

    def fit(self, matrix: AnswerMatrix) -> AggregationResult:
        # scipy.stats costs ~0.6 s and ~45 MB to import; only this
        # aggregator needs it, so importing the registry must not.
        from scipy.stats import beta as beta_distribution

        check_not_empty(matrix)
        counts = _binary_vote_counts(matrix)
        positives = counts[:, 1] + self.prior_alpha
        negatives = counts[:, 0] + self.prior_beta
        # P(p > 1/2 | votes) under Beta(positives, negatives).
        certainty_positive = beta_distribution.sf(0.5, positives, negatives)
        posteriors = np.stack(
            [1.0 - certainty_positive, certainty_positive], axis=1
        )
        return AggregationResult(posteriors=posteriors)


@dataclass(frozen=True)
class PairedExample:
    """One weighted training example emitted by Paired-MV."""

    task: int
    label: int
    weight: float


class PairedVote(Aggregator):
    """Paired-MV: emit both labels of uncertain tasks as weighted pairs.

    Tasks whose MV-Beta certainty is at least ``certainty_threshold``
    are committed to the majority label with weight 1; the rest emit
    *two* examples weighted by the label frequencies, so a downstream
    learner sees the uncertainty instead of a hard (possibly wrong)
    label.

    Parameters
    ----------
    certainty_threshold:
        Certainty level above which a single hard example is emitted.
    """

    name = "Paired-MV"

    def __init__(self, certainty_threshold: float = 0.8):
        if not 0.5 <= certainty_threshold <= 1.0:
            raise ValueError(
                "certainty_threshold must lie in [0.5, 1.0]"
            )
        self.certainty_threshold = certainty_threshold
        self._last_examples: list[PairedExample] | None = None

    def fit(self, matrix: AnswerMatrix) -> AggregationResult:
        check_not_empty(matrix)
        counts = _binary_vote_counts(matrix)
        totals = counts.sum(axis=1, keepdims=True)
        unvoted = totals[:, 0] == 0
        counts[unvoted] = 1.0
        totals = counts.sum(axis=1, keepdims=True)
        frequency = counts / totals

        certainty = MvBeta().fit(matrix).posteriors.max(axis=1)
        examples: list[PairedExample] = []
        for task in range(matrix.num_tasks):
            majority = int(np.argmax(frequency[task]))
            if certainty[task] >= self.certainty_threshold:
                examples.append(
                    PairedExample(task=task, label=majority, weight=1.0)
                )
            else:
                for label in (0, 1):
                    examples.append(
                        PairedExample(
                            task=task,
                            label=label,
                            weight=float(frequency[task, label]),
                        )
                    )
        self._last_examples = examples
        return AggregationResult(
            posteriors=frequency,
            extras={"paired_examples": examples},
        )

    def paired_examples(self) -> list[PairedExample]:
        """The weighted example set of the most recent :meth:`fit`."""
        if self._last_examples is None:
            raise RuntimeError("call fit() before paired_examples()")
        return list(self._last_examples)
