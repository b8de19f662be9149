"""Normal-Wishart distribution — the conjugate prior at the heart of the paper.

Implements Eq. (12)–(30):

* density and log-normaliser ``Z_0`` (Eq. 12–13),
* joint mode ``(mu_M, Lambda_M) = (mu_0, (v0 - d) * T0)`` (Eq. 15–16),
* the conjugate posterior update given ``n`` Gaussian samples (Eq. 24–28),
* posterior-mode (MAP) extraction (Eq. 29–30).

The update is exact conjugacy: the posterior of a normal-Wishart prior under
a multivariate Gaussian likelihood is again normal-Wishart, which is what
makes the paper's closed-form Eq. (31)–(32) possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import DimensionError, HyperParameterError, NotSPDError
from repro.linalg.batched import (
    as_spd_stack,
    cholesky_batched,
    logdet_batched,
    symmetrize_batched,
)
from repro.linalg.validation import SYM_TOL, as_samples, assert_spd, inv_spd, symmetrize
from repro.stats.multigamma import multigammaln
from repro.stats.multivariate_gaussian import MultivariateGaussian
from repro.stats.wishart import Wishart

__all__ = ["NormalWishart", "MapEstimate"]


@dataclass(frozen=True)
class MapEstimate:
    """Posterior-mode estimate of the Gaussian parameters (Eq. 29–32)."""

    mean: np.ndarray
    covariance: np.ndarray
    precision: np.ndarray

    @property
    def dim(self) -> int:
        """Number of metrics ``d``."""
        return self.mean.shape[0]


class NormalWishart:
    """Normal-Wishart ``NW(mu, Lambda | mu0, kappa0, v0, T0)`` (Eq. 12).

    Parameters follow the paper's notation:

    mu0:
        Location of the Gaussian component (length ``d``).
    kappa0:
        Scale of the Gaussian component; ``> 0``.
    v0:
        Degrees of freedom of the Wishart component; must satisfy
        ``v0 > d`` so the Wishart scale constraint ``T0 = Lambda_E/(v0-d)``
        (Eq. 20) and the mode (Eq. 16) are well defined.
    T0:
        ``(d, d)`` SPD Wishart scale matrix.
    """

    def __init__(self, mu0, kappa0: float, v0: float, T0) -> None:
        self.mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
        if self.mu0.ndim != 1:
            raise DimensionError(f"mu0 must be 1-D, got ndim={self.mu0.ndim}")
        self.T0 = assert_spd(T0, "T0")
        self.dim = self.mu0.shape[0]
        if self.T0.shape != (self.dim, self.dim):
            raise DimensionError(
                f"T0 shape {self.T0.shape} does not match mu0 dim {self.dim}"
            )
        self.kappa0 = float(kappa0)
        self.v0 = float(v0)
        if self.kappa0 <= 0.0:
            raise HyperParameterError(f"kappa0 must be > 0, got {kappa0}")
        if self.v0 <= self.dim:
            raise HyperParameterError(
                f"v0 must exceed d = {self.dim} for a well-defined mode, got {v0}"
            )

    # ------------------------------------------------------------------
    # construction from early-stage knowledge (Eq. 17-21)
    # ------------------------------------------------------------------
    @classmethod
    def from_early_stage(
        cls, mu_e, sigma_e, kappa0: float, v0: float
    ) -> "NormalWishart":
        """Build the prior whose mode equals the early-stage moments.

        Applies the constraints of Eq. (19)–(20): ``mu0 = mu_E`` and
        ``T0 = Lambda_E / (v0 - d)`` where ``Lambda_E = Sigma_E^{-1}``,
        so the prior peaks exactly at ``(mu_E, Lambda_E)``.
        """
        mu_e_arr = np.atleast_1d(np.asarray(mu_e, dtype=float))
        sigma_e_arr = assert_spd(sigma_e, "sigma_e")
        d = mu_e_arr.shape[0]
        if v0 <= d:
            raise HyperParameterError(f"v0 must exceed d = {d}, got {v0}")
        lambda_e = inv_spd(sigma_e_arr, "sigma_e")
        t0 = lambda_e / (v0 - d)
        return cls(mu_e_arr, kappa0, v0, t0)

    # ------------------------------------------------------------------
    # mode (Eq. 15-16) and component views
    # ------------------------------------------------------------------
    def mode(self) -> Tuple[np.ndarray, np.ndarray]:
        """Joint mode ``(mu_M, Lambda_M) = (mu0, (v0 - d) T0)`` (Eq. 15–16)."""
        return self.mu0.copy(), symmetrize((self.v0 - self.dim) * self.T0)

    def map_estimate(self) -> MapEstimate:
        """Mode expressed in covariance space (used by Eq. 31–32)."""
        mu_m, lambda_m = self.mode()
        sigma_m = inv_spd(lambda_m, "lambda_m")
        return MapEstimate(mean=mu_m, covariance=sigma_m, precision=lambda_m)

    def wishart_component(self) -> Wishart:
        """Marginal Wishart ``Wi_{v0}(Lambda | T0)`` over the precision."""
        return Wishart(self.T0, self.v0)

    def expected_covariance(self) -> Optional[np.ndarray]:
        """``E[Sigma] = T0^{-1} / (v0 - d - 1)`` when it exists (v0 > d + 1)."""
        if self.v0 <= self.dim + 1:
            return None
        return inv_spd(self.T0, "T0") / (self.v0 - self.dim - 1)

    # ------------------------------------------------------------------
    # density (Eq. 12-13)
    # ------------------------------------------------------------------
    def log_normalizer(self) -> float:
        """``log Z_0`` of Eq. (13)."""
        from repro.linalg.norms import log_det_spd

        d = self.dim
        return (
            d / 2.0 * math.log(2.0 * math.pi / self.kappa0)
            + self.v0 / 2.0 * log_det_spd(self.T0)
            + self.v0 * d / 2.0 * math.log(2.0)
            + multigammaln(self.v0 / 2.0, d)
        )

    def logpdf(self, mu, lam) -> float:
        """Joint log density at ``(mu, Lambda)`` (log of Eq. 12)."""
        from repro.linalg.norms import log_det_spd

        mu_arr = np.atleast_1d(np.asarray(mu, dtype=float))
        if mu_arr.shape != self.mu0.shape:
            raise DimensionError("mu shape does not match mu0 shape")
        lam_arr = assert_spd(lam, "lambda")
        if lam_arr.shape != self.T0.shape:
            raise DimensionError("lambda shape does not match T0 shape")
        diff = mu_arr - self.mu0
        log_det_lam = log_det_spd(lam_arr)
        t0_inv = inv_spd(self.T0, "T0")
        quad = float(diff @ lam_arr @ diff)
        trace_term = float(np.trace(t0_inv @ lam_arr))
        return (
            0.5 * log_det_lam
            - 0.5 * self.kappa0 * quad
            + (self.v0 - self.dim - 1) / 2.0 * log_det_lam
            - 0.5 * trace_term
            - self.log_normalizer()
        )

    def logpdf_batch(self, mus, lams) -> np.ndarray:
        """:meth:`logpdf` at ``B`` stacked points, shape ``(B,)``.

        ``mus`` is ``(B, d)`` and ``lams`` is ``(B, d, d)``.  Every
        ``Lambda`` passes the scalar path's SPD check (symmetric within
        ``SYM_TOL``, then Cholesky); :class:`~repro.exceptions.NotSPDError`
        names the first member that fails.
        """
        mu_arr = np.asarray(mus, dtype=float)
        lam_arr = as_spd_stack(lams, "lambda")
        b = lam_arr.shape[0]
        if mu_arr.shape != (b, self.dim) or lam_arr.shape[1:] != self.T0.shape:
            raise DimensionError(
                f"need mus (B, {self.dim}) and lams (B, {self.dim}, {self.dim}), "
                f"got {mu_arr.shape} and {lam_arr.shape}"
            )
        scale = np.maximum(1.0, np.abs(lam_arr).max(axis=(1, 2)))
        asym = np.abs(lam_arr - np.swapaxes(lam_arr, -1, -2)).max(axis=(1, 2))
        sym = symmetrize_batched(lam_arr)
        chol, ok = cholesky_batched(sym)
        ok &= asym <= SYM_TOL * scale
        if not ok.all():
            raise NotSPDError(
                f"lambda[{int(np.flatnonzero(~ok)[0])}] is not symmetric positive definite"
            )
        diff = mu_arr - self.mu0
        log_det_lam = logdet_batched(chol)
        quad = np.einsum("bi,bij,bj->b", diff, sym, diff)
        trace_term = np.einsum("ij,bji->b", inv_spd(self.T0, "T0"), sym)
        return (
            0.5 * log_det_lam
            - 0.5 * self.kappa0 * quad
            + (self.v0 - self.dim - 1) / 2.0 * log_det_lam
            - 0.5 * trace_term
            - self.log_normalizer()
        )

    def pdf(self, mu, lam) -> float:
        """Joint density (Eq. 12)."""
        return math.exp(self.logpdf(mu, lam))

    # ------------------------------------------------------------------
    # conjugate posterior update (Eq. 24-28)
    # ------------------------------------------------------------------
    def posterior(self, data) -> "NormalWishart":
        """Posterior normal-Wishart after observing Gaussian samples ``data``.

        Implements the exact updates of Eq. (24)–(28):

        * ``kappa_n = kappa0 + n``, ``v_n = v0 + n``
        * ``mu_n = (kappa0 mu0 + n Xbar) / (kappa0 + n)``
        * ``T_n^{-1} = T0^{-1} + S + kappa0 n/(kappa0+n) (mu0-Xbar)(mu0-Xbar)^T``
        """
        samples = as_samples(data)
        if samples.shape[1] != self.dim:
            raise DimensionError(
                f"data has {samples.shape[1]} columns, expected {self.dim}"
            )
        n = samples.shape[0]
        xbar = samples.mean(axis=0)
        centered = samples - xbar
        scatter = symmetrize(centered.T @ centered)

        kappa_n = self.kappa0 + n
        v_n = self.v0 + n
        mu_n = (self.kappa0 * self.mu0 + n * xbar) / kappa_n
        diff = self.mu0 - xbar
        t_n_inv = (
            inv_spd(self.T0, "T0")
            + scatter
            + (self.kappa0 * n / kappa_n) * np.outer(diff, diff)
        )
        t_n = inv_spd(symmetrize(t_n_inv), "T_n")
        return NormalWishart(mu_n, kappa_n, v_n, t_n)

    # ------------------------------------------------------------------
    # sampling & marginals
    # ------------------------------------------------------------------
    def sample(
        self, n: int = 1, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` joint samples ``(mu, Lambda)``.

        Returns arrays of shape ``(n, d)`` and ``(n, d, d)``.  Generation
        follows the factorisation in Eq. (12): ``Lambda ~ Wi_{v0}(T0)``
        then ``mu | Lambda ~ N(mu0, (kappa0 Lambda)^{-1})``.
        """
        gen = rng if rng is not None else np.random.default_rng()
        lams = self.wishart_component().sample(n, gen)
        mus = np.empty((n, self.dim))
        for k in range(n):
            cov = inv_spd(self.kappa0 * lams[k], "kappa0 * Lambda")
            mus[k] = MultivariateGaussian(self.mu0, cov).sample(1, gen)[0]
        return mus, lams

    def posterior_predictive_moments(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Mean and covariance of the (Student-t) posterior predictive.

        The predictive of a normal-Wishart is a multivariate Student-t with
        ``v0 - d + 1`` degrees of freedom; its covariance exists only when
        ``v0 - d + 1 > 2``.  Exposed for the yield-estimation module, which
        can integrate specs under the predictive instead of the plug-in MAP
        Gaussian.
        """
        dof = self.v0 - self.dim + 1.0
        scale = inv_spd(self.T0, "T0") * (self.kappa0 + 1.0) / (self.kappa0 * dof)
        if dof <= 2.0:
            return self.mu0.copy(), None
        return self.mu0.copy(), symmetrize(scale * dof / (dof - 2.0))
