"""Multi-population BMF: fusing across corners/configurations.

Reference [7] — the univariate predecessor the paper extends — exploits
that "data under different circuit configurations and corners are strongly
correlated".  This module lifts that idea to the multivariate setting.

Model: K populations (e.g., process corners) of the *same* circuit, each
with its own early-stage moments and a few late-stage samples.  The
early-to-late discrepancy (in the shared isotropic space) is driven by the
same physical causes for every population — layout parasitics, extraction
bias — so the populations can pool their scarce late samples to estimate a
**common mean-discrepancy vector**, then run the standard per-population
normal-Wishart fusion against a *discrepancy-corrected* prior:

1. ``delta_hat = sum_k n_k (Xbar_k - mu_E_k) / sum_k n_k``  (pooled shift)
2. prior for population k: ``N W`` anchored at
   ``(mu_E_k + w * delta_hat, Sigma_E_k)`` where the pooling weight
   ``w = n_total / (n_total + tau)`` shrinks the correction when total
   data is scarce;
3. per-population MAP fusion (Eq. 31-32) with hyper-parameters selected by
   the usual cross validation on that population's samples.

``tau`` is a 1-D credibility knob selected by held-out likelihood across
populations, mirroring the paper's 2-D CV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.bmf import BMFEstimator
from repro.core.estimators import MomentEstimate
from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge
from repro.exceptions import DimensionError, InsufficientDataError
from repro.stats.multivariate_gaussian import (
    MultivariateGaussian,
    gaussian_loglik_batch,
)

__all__ = ["PopulationData", "MultiPopulationBMF"]


@dataclass(frozen=True)
class PopulationData:
    """One population's prior and late-stage samples (isotropic space)."""

    name: str
    prior: PriorKnowledge
    late_samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.atleast_2d(np.asarray(self.late_samples, dtype=float))
        if samples.shape[1] != self.prior.dim:
            raise DimensionError(
                f"population {self.name!r}: samples have {samples.shape[1]} "
                f"metrics, prior has {self.prior.dim}"
            )
        if samples.shape[0] < 2:
            raise InsufficientDataError(
                f"population {self.name!r} needs at least 2 late samples"
            )
        object.__setattr__(self, "late_samples", samples)

    @property
    def n(self) -> int:
        """Late-stage sample count."""
        return self.late_samples.shape[0]


class MultiPopulationBMF:
    """Joint fusion across K correlated populations.

    Parameters
    ----------
    populations:
        The per-population priors and late samples; all must share the
        metric dimensionality.
    tau_candidates:
        Candidates for the pooling-credibility knob ``tau``; ``tau -> inf``
        disables pooling (independent per-population BMF), ``tau -> 0``
        applies the pooled discrepancy at full strength.
    grid, n_folds:
        Forwarded to each population's :class:`BMFEstimator`.
    """

    def __init__(
        self,
        populations: Sequence[PopulationData],
        tau_candidates: Tuple[float, ...] = (1e-3, 1.0, 10.0, 100.0, 1e6),
        grid: Optional[HyperParameterGrid] = None,
        n_folds: int = 4,
    ) -> None:
        if len(populations) < 2:
            raise InsufficientDataError(
                "multi-population fusion needs at least 2 populations"
            )
        dims = {p.prior.dim for p in populations}
        if len(dims) != 1:
            raise DimensionError(f"populations disagree on dimensionality: {dims}")
        names = [p.name for p in populations]
        if len(set(names)) != len(names):
            raise DimensionError(f"duplicate population names: {names}")
        if not tau_candidates or any(t <= 0.0 for t in tau_candidates):
            raise DimensionError("tau candidates must be positive and non-empty")
        self.populations = list(populations)
        self.tau_candidates = tuple(tau_candidates)
        self.grid = grid
        self.n_folds = n_folds
        #: Selected tau after :meth:`estimate_all` (None before).
        self.selected_tau: Optional[float] = None
        #: The pooled discrepancy actually applied.
        self.pooled_delta: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @staticmethod
    def _pooled_delta(populations: Sequence[PopulationData]) -> np.ndarray:
        """Element-wise *median* of the per-population discrepancies.

        The median (rather than the n-weighted mean) keeps one corner with
        an idiosyncratic shift — a common occurrence when layout effects
        interact with the corner offsets — from contaminating the pooled
        correction applied to all the others.
        """
        deltas = np.stack(
            [p.late_samples.mean(axis=0) - p.prior.mean for p in populations]
        )
        return np.median(deltas, axis=0)

    # ------------------------------------------------------------------
    def _score_tau(
        self, tau: float, rng: Optional[np.random.Generator]
    ) -> float:
        """Leave-population-out score of one tau candidate.

        For each held-out population, the delta is pooled from the
        *others*, the held-out prior is corrected, and the held-out
        samples are scored under the corrected prior's mode Gaussian —
        no CV inside to keep the selection cheap and unbiased.
        """
        score = 0.0
        for i, held_out in enumerate(self.populations):
            others = [p for j, p in enumerate(self.populations) if j != i]
            delta = self._pooled_delta(others)
            total_others = sum(p.n for p in others)
            weight = total_others / (total_others + tau)
            corrected_mean = held_out.prior.mean + weight * delta
            gaussian = MultivariateGaussian(
                corrected_mean, held_out.prior.covariance
            )
            score += gaussian.loglik(held_out.late_samples) / held_out.n
        return score / len(self.populations)

    def select_tau(
        self, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Pick tau by leave-population-out likelihood.

        All tau candidates are scored at once per held-out population: the
        corrected prior means form a ``(|tau|, d)`` stack under a shared
        covariance, so one :func:`gaussian_loglik_batch` call replaces the
        per-candidate :class:`MultivariateGaussian` constructions.  Ties
        keep the earliest candidate, matching the scalar scan.
        """
        taus = np.asarray(self.tau_candidates, dtype=float)
        scores = np.zeros(taus.size)
        for i, held_out in enumerate(self.populations):
            others = [p for j, p in enumerate(self.populations) if j != i]
            delta = self._pooled_delta(others)
            total_others = sum(p.n for p in others)
            weights = total_others / (total_others + taus)  # (|tau|,)
            means = held_out.prior.mean + weights[:, None] * delta
            covs = np.broadcast_to(
                held_out.prior.covariance,
                (taus.size,) + held_out.prior.covariance.shape,
            )
            scores += (
                gaussian_loglik_batch(means, covs, held_out.late_samples)
                / held_out.n
            )
        scores /= len(self.populations)
        return float(taus[int(np.argmax(scores))])

    # ------------------------------------------------------------------
    def estimate_all(
        self, rng: Optional[np.random.Generator] = None
    ) -> Dict[str, MomentEstimate]:
        """Fuse every population with the pooled-discrepancy correction.

        Each population's prior is corrected with the discrepancy pooled
        from the *other* populations only (leave-one-out), so its own
        samples are never counted twice — once in the prior and once in
        the likelihood — which would overweight them and break the
        conjugate bookkeeping.
        """
        tau = self.select_tau(rng)
        self.selected_tau = tau
        total = sum(p.n for p in self.populations)
        self.pooled_delta = (
            self._pooled_delta(self.populations) * total / (total + tau)
        )

        out: Dict[str, MomentEstimate] = {}
        for i, population in enumerate(self.populations):
            others = [p for j, p in enumerate(self.populations) if j != i]
            delta = self._pooled_delta(others)
            n_others = sum(p.n for p in others)
            weight = n_others / (n_others + tau)
            corrected = PriorKnowledge(
                population.prior.mean + weight * delta,
                population.prior.covariance,
                n_samples=population.prior.n_samples,
            )
            estimator = BMFEstimator(
                corrected, grid=self.grid, n_folds=self.n_folds
            )
            estimate = estimator.estimate(population.late_samples, rng=rng)
            info = dict(estimate.info)
            info["tau"] = float(tau)
            out[population.name] = MomentEstimate(
                mean=estimate.mean,
                covariance=estimate.covariance,
                n_samples=estimate.n_samples,
                method="multipop_bmf",
                info=info,
            )
        return out

    def estimate_independent(
        self, rng: Optional[np.random.Generator] = None
    ) -> Dict[str, MomentEstimate]:
        """Baseline: per-population BMF without any pooling."""
        out: Dict[str, MomentEstimate] = {}
        for population in self.populations:
            estimator = BMFEstimator(
                population.prior, grid=self.grid, n_folds=self.n_folds
            )
            out[population.name] = estimator.estimate(
                population.late_samples, rng=rng
            )
        return out
