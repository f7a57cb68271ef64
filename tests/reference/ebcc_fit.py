"""``Ebcc.fit`` as it was before its confusion and responsibility
updates were split into one 1-D ``np.add.at`` per (class, subtype)
cell, kept verbatim.

The two ``np.add.at`` calls below index a 4-D and a 3-D array with
mixed fancy indices and slices, numpy's slowest ``ufunc.at`` path.
Production code must not import this module: ``test_ebcc_fit.py``
checks that the production fit returns the same bits.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma

from repro.aggregation.base import AggregationResult, AnswerMatrix, check_not_empty
from repro.aggregation.majority import MajorityVote


def fit(self, matrix: AnswerMatrix) -> AggregationResult:
    """The pre-split ``Ebcc.fit``; ``self`` is an ``Ebcc`` instance."""
    check_not_empty(matrix)
    num_classes = matrix.num_classes
    num_subtypes = self.num_subtypes
    tasks = matrix.task_indices
    workers = matrix.worker_indices
    labels = matrix.label_values
    rng = np.random.default_rng(self.seed)

    confusion_prior = np.full(
        (num_classes, num_subtypes, num_classes), self.off_diagonal_prior
    )
    for klass in range(num_classes):
        confusion_prior[klass, :, klass] = self.diagonal_prior

    # Initialize responsibilities r[i, k, m] from majority vote,
    # spread over subtypes with a tiny random tilt to break symmetry.
    class_post = MajorityVote(smoothing=1.0).fit(matrix).posteriors
    tilt = rng.uniform(0.9, 1.1, size=(matrix.num_tasks, 1, num_subtypes))
    responsibilities = class_post[:, :, None] * tilt / num_subtypes
    responsibilities /= responsibilities.sum(axis=(1, 2), keepdims=True)

    converged = False
    iteration = 0
    confusion_counts = np.zeros(
        (matrix.num_workers, num_classes, num_subtypes, num_classes)
    )
    for iteration in range(1, self.max_iter + 1):
        class_marginal = responsibilities.sum(axis=2)  # (I, K)

        # q(rho)
        rho_counts = self.prior_strength + class_marginal.sum(axis=0)
        expected_log_rho = digamma(rho_counts) - digamma(rho_counts.sum())

        # q(tau_k)
        tau_counts = self.subtype_prior + responsibilities.sum(axis=0)
        expected_log_tau = digamma(tau_counts) - digamma(
            tau_counts.sum(axis=1, keepdims=True)
        )

        # q(nu_j[k, m])
        confusion_counts[:] = confusion_prior
        np.add.at(
            confusion_counts,
            (workers, slice(None), slice(None), labels),
            responsibilities[tasks],
        )
        expected_log_confusion = digamma(confusion_counts) - digamma(
            confusion_counts.sum(axis=3, keepdims=True)
        )

        # q(t_i, s_i)
        log_resp = np.tile(
            expected_log_rho[:, None] + expected_log_tau,
            (matrix.num_tasks, 1, 1),
        )
        contributions = expected_log_confusion[workers, :, :, labels]
        np.add.at(log_resp, tasks, contributions)
        log_resp -= log_resp.max(axis=(1, 2), keepdims=True)
        new_responsibilities = np.exp(log_resp)
        new_responsibilities /= new_responsibilities.sum(
            axis=(1, 2), keepdims=True
        )

        change = np.abs(
            new_responsibilities.sum(axis=2) - class_marginal
        ).max()
        responsibilities = new_responsibilities
        if change < self.tol:
            converged = True
            break

    posteriors = responsibilities.sum(axis=2)
    posteriors /= posteriors.sum(axis=1, keepdims=True)
    mean_confusion = confusion_counts / confusion_counts.sum(
        axis=3, keepdims=True
    )
    # Reliability: average diagonal over (class, subtype) cells.
    reliability = (
        np.einsum("jkmk->j", mean_confusion) / (num_classes * num_subtypes)
    )
    return AggregationResult(
        posteriors=posteriors,
        worker_reliability=reliability,
        iterations=iteration,
        converged=converged,
        extras={"responsibilities": responsibilities},
    )
