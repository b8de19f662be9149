"""Stacked MAP kernel over the sufficient-statistics substrate.

The accumulator itself lives in :mod:`repro.stats.suffstats` (the stats
layer) so the batch estimators in :mod:`repro.core` can funnel through the
same arithmetic without a layering back-edge.  This module adds the
*stacked* MAP kernel the batch scorer answers grouped ``estimate`` queries
with: one vectorised pass of Eq. (31)–(32) over ``B`` sessions instead of
``B`` Python-level calls.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import DimensionError, HyperParameterError
from repro.linalg.batched import clip_eigenvalues_batched, symmetrize_batched

__all__ = ["map_moments_stack"]

#: Eigenvalue floor applied to stacked MAP covariances; identical to the
#: scalar floor in :meth:`repro.core.bmf.BMFEstimator.estimate`.
MAP_EIG_FLOOR = 1e-12


def map_moments_stack(
    prior_means: np.ndarray,
    prior_covs: np.ndarray,
    kappa0: np.ndarray,
    v0: np.ndarray,
    counts: np.ndarray,
    means: np.ndarray,
    scatters: np.ndarray,
    eig_floor_rel: float = MAP_EIG_FLOOR,
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. (31)–(32) for ``B`` independent sessions in one vectorised pass.

    Parameters
    ----------
    prior_means, prior_covs:
        ``(B, d)`` / ``(B, d, d)`` early-stage moments per session.
    kappa0, v0:
        ``(B,)`` hyper-parameters per session (``kappa0 > 0``, ``v0 > d``).
    counts, means, scatters:
        ``(B,)`` / ``(B, d)`` / ``(B, d, d)`` accumulated sufficient
        statistics per session; ``counts`` may contain zeros (sessions
        that have not ingested yet — they return the prior mode).
    eig_floor_rel:
        Relative eigenvalue floor for the returned covariances; matches
        the scalar estimator's guard.  Pass ``0`` to skip.

    Returns
    -------
    ``(mu_map, sigma_map)`` of shapes ``(B, d)`` and ``(B, d, d)``.  The
    arithmetic is the element-wise image of
    :func:`repro.core.bmf.map_moments_from_stats`, so each member agrees
    with the scalar path to floating-point rounding (the serving
    equivalence suite pins 1e-10).
    """
    mu_e = np.atleast_2d(np.asarray(prior_means, dtype=float))
    sig_e = np.asarray(prior_covs, dtype=float)
    k0 = np.atleast_1d(np.asarray(kappa0, dtype=float))
    nu0 = np.atleast_1d(np.asarray(v0, dtype=float))
    n = np.atleast_1d(np.asarray(counts, dtype=float))
    xbar = np.atleast_2d(np.asarray(means, dtype=float))
    scatter = np.asarray(scatters, dtype=float)

    b, d = mu_e.shape
    if sig_e.shape != (b, d, d) or scatter.shape != (b, d, d):
        raise DimensionError(
            f"covariance stacks must be ({b}, {d}, {d}), got "
            f"{sig_e.shape} and {scatter.shape}"
        )
    if xbar.shape != (b, d) or k0.shape != (b,) or nu0.shape != (b,) or n.shape != (b,):
        raise DimensionError("per-session arrays disagree on the batch size B")
    if np.any(k0 <= 0.0):
        raise HyperParameterError("every kappa0 must be > 0")
    if np.any(nu0 <= d):
        raise HyperParameterError(f"every v0 must exceed d = {d}")
    if np.any(n < 0):
        raise DimensionError("sample counts must be >= 0")

    kn = k0 + n
    mu_map = (k0[:, None] * mu_e + n[:, None] * xbar) / kn[:, None]
    diff = mu_e - xbar
    coef = k0 * n / kn
    numerator = (
        (nu0 - d)[:, None, None] * sig_e
        + scatter
        + coef[:, None, None] * (diff[:, :, None] * diff[:, None, :])
    )
    sigma_map = symmetrize_batched(numerator / (nu0 + n - d)[:, None, None])
    if eig_floor_rel > 0.0:
        sigma_map = clip_eigenvalues_batched(sigma_map, eig_floor_rel)
    return mu_map, sigma_map
