"""Multivariate Bayesian model fusion estimator — Eq. (31)–(32), Algorithm 1.

Given early-stage prior knowledge ``(mu_E, Sigma_E)`` and ``n`` late-stage
samples, the MAP estimates under the normal-Wishart prior are closed-form:

    mu_MAP    = (kappa0 * mu_E + n * Xbar) / (kappa0 + n)                (31)
    Sigma_MAP = [ (v0 - d) * Sigma_E
                  + S
                  + kappa0*n/(kappa0+n) * (mu_E - Xbar)(mu_E - Xbar)^T ]
                / (v0 + n - d)                                           (32)

The hyper-parameters ``(kappa0, v0)`` weight the early-stage knowledge for
the mean and covariance respectively (Sec. 3.3); by default they are chosen
by the two-dimensional Q-fold cross validation of Sec. 4.2, but callers may
pin them for ablation studies.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.crossval import TwoDimensionalCV
from repro.core.estimators import MomentEstimate, MomentEstimator
from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge
from repro.exceptions import HyperParameterError, InsufficientDataError
from repro.linalg.validation import as_samples, clip_eigenvalues, symmetrize
from repro.stats.suffstats import SufficientStats

__all__ = ["map_moments", "map_moments_from_stats", "BMFEstimator"]


def map_moments_from_stats(
    prior: PriorKnowledge,
    stats: SufficientStats,
    kappa0: float,
    v0: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """MAP mean and covariance (Eq. 31–32) from sufficient statistics.

    The posterior mode touches the late-stage data only through
    ``(n, Xbar, S)``, so the estimate can be produced from a
    :class:`~repro.stats.suffstats.SufficientStats` accumulator without
    re-visiting raw samples — this is what makes the one-shot and
    streaming (serving) paths provably identical: both funnel through
    this single arithmetic.

    ``n == 0`` is allowed and returns the prior mode ``(mu_E, Sigma_E)``
    exactly — the natural answer for a serving session that has not yet
    ingested any late-stage measurements.
    """
    d = prior.dim
    if stats.dim != d:
        raise InsufficientDataError(
            f"late-stage statistics have {stats.dim} metrics but prior has {d}"
        )
    if kappa0 <= 0.0:
        raise HyperParameterError(f"kappa0 must be > 0, got {kappa0}")
    if v0 <= d:
        raise HyperParameterError(f"v0 must exceed d = {d}, got {v0}")

    n = stats.n
    diff = prior.mean - stats.mean
    mu_map = (kappa0 * prior.mean + n * stats.mean) / (kappa0 + n)
    numerator = (
        (v0 - d) * prior.covariance
        + stats.scatter
        + (kappa0 * n / (kappa0 + n)) * np.outer(diff, diff)
    )
    sigma_map = symmetrize(numerator / (v0 + n - d))
    return mu_map, sigma_map


def map_moments(
    prior: PriorKnowledge,
    samples: np.ndarray,
    kappa0: float,
    v0: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form MAP mean and covariance (Eq. 31–32).

    Parameters
    ----------
    prior:
        Early-stage moments ``(mu_E, Sigma_E)``.
    samples:
        ``(n, d)`` late-stage sample matrix.
    kappa0, v0:
        Normal-Wishart hyper-parameters; ``kappa0 > 0`` and ``v0 > d``.

    Returns
    -------
    ``(mu_map, sigma_map)`` with ``sigma_map`` symmetric positive definite
    (it is a positively weighted sum of an SPD matrix and PSD terms).

    This is a thin wrapper over :func:`map_moments_from_stats`; the
    one-shot statistics use the same batch formulas as always, so results
    are bit-identical to earlier revisions that inlined them.
    """
    data = as_samples(samples)
    if data.shape[1] != prior.dim:
        raise InsufficientDataError(
            f"late-stage samples have {data.shape[1]} metrics but prior has {prior.dim}"
        )
    return map_moments_from_stats(
        prior, SufficientStats.from_samples(data), kappa0, v0
    )


class BMFEstimator(MomentEstimator):
    """The paper's multivariate BMF moment estimator (Algorithm 1).

    Parameters
    ----------
    prior:
        Early-stage knowledge; build with
        :meth:`repro.core.prior.PriorKnowledge.from_samples`.
    kappa0, v0:
        Fixed hyper-parameters.  Leave both ``None`` (the default) to select
        them by two-dimensional cross validation, matching the paper's flow.
        Supplying both pins them (ablation mode); supplying exactly one is
        an error because the CV search is joint.
    grid:
        Hyper-parameter search grid for the CV; defaults to
        :meth:`HyperParameterGrid.paper_default` (1…1000 in both axes,
        Sec. 5.1).
    n_folds:
        Number of cross-validation folds ``Q`` (Sec. 4.2).  Clamped to the
        sample count when ``n < Q``.
    selector:
        ``"cv"`` (the paper's two-dimensional Q-fold cross validation,
        default) or ``"evidence"`` (fold-free marginal-likelihood
        maximisation, see :mod:`repro.core.evidence`).
    """

    name = "bmf"

    def __init__(
        self,
        prior: PriorKnowledge,
        kappa0: Optional[float] = None,
        v0: Optional[float] = None,
        grid: Optional[HyperParameterGrid] = None,
        n_folds: int = 4,
        selector: str = "cv",
    ) -> None:
        if (kappa0 is None) != (v0 is None):
            raise HyperParameterError(
                "kappa0 and v0 must be supplied together or both left None"
            )
        self.prior = prior
        self.kappa0 = None if kappa0 is None else float(kappa0)
        self.v0 = None if v0 is None else float(v0)
        if self.kappa0 is not None:
            if self.kappa0 <= 0.0:
                raise HyperParameterError(f"kappa0 must be > 0, got {kappa0}")
            if self.v0 <= prior.dim:
                raise HyperParameterError(
                    f"v0 must exceed d = {prior.dim}, got {v0}"
                )
        self.grid = grid if grid is not None else HyperParameterGrid.paper_default(prior.dim)
        if n_folds < 2:
            raise ValueError(f"n_folds must be >= 2, got {n_folds}")
        self.n_folds = int(n_folds)
        if selector not in ("cv", "evidence"):
            raise HyperParameterError(
                f"selector must be 'cv' or 'evidence', got {selector!r}"
            )
        self.selector = selector
        #: Result of the last hyper-parameter search (None in pinned mode).
        self.last_cv_result = None

    # ------------------------------------------------------------------
    def estimate(
        self, samples, rng: Optional[np.random.Generator] = None
    ) -> MomentEstimate:
        """Run Algorithm 1 on the late-stage samples."""
        data = self._check(samples)
        n = data.shape[0]
        if n < 2:
            raise InsufficientDataError(f"BMF needs at least 2 late samples, got {n}")

        if self.kappa0 is not None:
            kappa0, v0 = self.kappa0, self.v0
            self.last_cv_result = None
        else:
            self.last_cv_result = self._select(data, rng)
            kappa0 = self.last_cv_result.kappa0
            v0 = self.last_cv_result.v0

        mu_map, sigma_map = map_moments(self.prior, data, kappa0, v0)
        # A tiny eigenvalue floor guards against accumulated rounding when
        # (v0 - d) is minuscule and n is tiny; it never changes results at
        # the paper's operating points.
        sigma_map = clip_eigenvalues(sigma_map, 1e-12)
        return MomentEstimate(
            mean=mu_map,
            covariance=sigma_map,
            n_samples=n,
            method=self.name,
            info={"kappa0": float(kappa0), "v0": float(v0)},
        )

    # ------------------------------------------------------------------
    def estimate_from_stats(self, stats: SufficientStats) -> MomentEstimate:
        """MAP estimate from accumulated sufficient statistics.

        The streaming entry point: no raw samples are touched, so the
        serving layer can answer ``estimate`` queries straight from a
        session's :class:`~repro.stats.suffstats.SufficientStats`.  Only
        pinned-hyper-parameter mode is supported — fold-based cross
        validation needs the raw rows to split, which an accumulator has
        deliberately discarded.
        """
        if self.kappa0 is None or self.v0 is None:
            raise HyperParameterError(
                "estimate_from_stats requires pinned (kappa0, v0); "
                "cross-validated selection needs raw samples"
            )
        mu_map, sigma_map = map_moments_from_stats(
            self.prior, stats, self.kappa0, self.v0
        )
        sigma_map = clip_eigenvalues(sigma_map, 1e-12)
        return MomentEstimate(
            mean=mu_map,
            covariance=sigma_map,
            n_samples=stats.n,
            method=self.name,
            info={"kappa0": float(self.kappa0), "v0": float(self.v0)},
        )

    # ------------------------------------------------------------------
    def posterior(self, samples, rng: Optional[np.random.Generator] = None):
        """Full normal-Wishart posterior for the selected hyper-parameters.

        Runs the same selection as :meth:`estimate` but returns the
        :class:`repro.stats.normal_wishart.NormalWishart` posterior, giving
        access to uncertainty (posterior predictive, sampling) beyond the
        point MAP estimate the paper reports.

        ``rng`` seeds the CV fold split exactly as in :meth:`estimate`;
        leaving it ``None`` draws a fresh nondeterministic split (see the
        determinism contract in :mod:`repro.core.crossval`).  Previously
        the generator could not be threaded through here at all, so
        ``posterior`` was unreproducible even for callers that seeded
        everything else.
        """
        data = self._check(samples)
        if self.kappa0 is not None:
            kappa0, v0 = self.kappa0, self.v0
        else:
            result = self._select(data, rng)
            kappa0, v0 = result.kappa0, result.v0
        return self.prior.to_normal_wishart(kappa0, v0).posterior(data)

    def _select(self, data, rng):
        """Run the configured hyper-parameter search."""
        if self.selector == "evidence":
            from repro.core.evidence import EvidenceSelector

            return EvidenceSelector(self.prior, self.grid).select(data, rng=rng)
        cv = TwoDimensionalCV(self.prior, self.grid, n_folds=self.n_folds)
        return cv.select(data, rng=rng)
