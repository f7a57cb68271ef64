"""EBCC (Li, Rubinstein & Cohn, ICML 2019) — enhanced BCC.

EBCC extends BCC with latent *subtypes*: each true class ``k`` is a
mixture of ``M`` subtypes, and a worker's confusion behaviour depends
on the (class, subtype) pair rather than the class alone.  Correlated
workers — the phenomenon BCC cannot capture — emerge because workers
that confuse the same subtype err together.

We infer the model with mean-field variational Bayes over

* ``q(t_i, s_i)`` — joint categorical over ``K x M`` (class, subtype);
* ``q(rho)``      — Dirichlet over classes;
* ``q(tau_k)``    — Dirichlet over subtypes within class ``k``;
* ``q(nu_j[k,m])`` — Dirichlet confusion row per worker and
  (class, subtype).

With ``M = 1`` the model reduces exactly to BCC, which the test suite
verifies.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma

from .base import AggregationResult, Aggregator, AnswerMatrix, check_not_empty
from .majority import MajorityVote


class Ebcc(Aggregator):
    """Subtype-aware variational BCC.

    Parameters
    ----------
    num_subtypes:
        Subtypes per class (``M``); the EBCC paper uses small values.
    prior_strength, subtype_prior:
        Dirichlet concentrations on the class prior and the per-class
        subtype mixture.
    diagonal_prior, off_diagonal_prior:
        Confusion-row pseudo-counts (diagonally dominant by default).
    max_iter, tol:
        VB iteration cap and convergence threshold.
    seed:
        Seed for the small random symmetry-breaking perturbation of the
        initial responsibilities (subtypes are exchangeable a priori).
    """

    name = "EBCC"

    def __init__(
        self,
        num_subtypes: int = 2,
        prior_strength: float = 1.0,
        subtype_prior: float = 1.0,
        diagonal_prior: float = 2.0,
        off_diagonal_prior: float = 1.0,
        max_iter: int = 200,
        tol: float = 1e-6,
        seed: int = 0,
    ):
        if num_subtypes < 1:
            raise ValueError("num_subtypes must be >= 1")
        if min(prior_strength, subtype_prior, diagonal_prior,
               off_diagonal_prior) <= 0:
            raise ValueError("Dirichlet pseudo-counts must be positive")
        self.num_subtypes = num_subtypes
        self.prior_strength = prior_strength
        self.subtype_prior = subtype_prior
        self.diagonal_prior = diagonal_prior
        self.off_diagonal_prior = off_diagonal_prior
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def fit(self, matrix: AnswerMatrix) -> AggregationResult:
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

        # The two count updates below add one (class, subtype) cell at a
        # time: a 1-D ``np.add.at`` per cell is numpy's fast indexed
        # loop, where one call over mixed fancy indices and slices is
        # its slowest path.  Each target element still receives the
        # same operands in the same (answer) order, so every bit is
        # unchanged; the cells live in (K, M, ...)-major arrays.
        num_tasks, num_workers = matrix.num_tasks, matrix.num_workers
        cells = [
            (klass, subtype)
            for klass in range(num_classes)
            for subtype in range(num_subtypes)
        ]
        answer_cells = workers * num_classes + labels  # flat (j, label)
        cell_prior = np.repeat(
            confusion_prior[:, :, None, :], num_workers, axis=2
        ).reshape(num_classes, num_subtypes, -1)
        cell_counts = np.zeros_like(cell_prior)
        counts = cell_counts.reshape(
            num_classes, num_subtypes, num_workers, num_classes
        )
        converged = False
        iteration = 0
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
            cell_counts[:] = cell_prior
            for klass, subtype in cells:
                np.add.at(
                    cell_counts[klass, subtype],
                    answer_cells,
                    responsibilities[tasks, klass, subtype],
                )
            expected_log_confusion = (
                digamma(counts) - digamma(counts.sum(axis=3, keepdims=True))
            ).reshape(num_classes, num_subtypes, -1)

            # q(t_i, s_i)
            log_cells = np.repeat(
                (expected_log_rho[:, None] + expected_log_tau)[:, :, None],
                num_tasks,
                axis=2,
            )
            for klass, subtype in cells:
                np.add.at(
                    log_cells[klass, subtype],
                    tasks,
                    expected_log_confusion[klass, subtype][answer_cells],
                )
            # Back to (I, K, M) in C order: the axis=(1, 2) sums below
            # round differently over a transposed view.
            log_resp = np.ascontiguousarray(log_cells.transpose(2, 0, 1))
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

        confusion_counts = np.ascontiguousarray(counts.transpose(2, 0, 1, 3))
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
