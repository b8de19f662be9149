"""Cost-reduction analysis: the paper's headline "16x" numbers.

The paper quantifies BMF's advantage as *cost reduction*: how many more
late-stage samples MLE needs to reach the accuracy BMF achieves with few.
"BMF achieves more than 16x cost reduction over MLE in covariance matrix
estimation" means MLE needed >16x the samples for the same Eq. (38) error.

:func:`cost_reduction` computes that ratio from a sweep result by
log-interpolating the MLE error curve at each BMF accuracy level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.sweep import SweepResult

__all__ = ["CostReduction", "cost_reduction", "samples_to_reach"]


@dataclass(frozen=True)
class CostReduction:
    """Cost-reduction ratios per BMF operating point.

    ``ratios[n]`` is (samples MLE needs to match BMF at ``n``) / ``n``.
    ``math.inf`` means MLE never reaches that accuracy within the sweep.
    """

    metric: str
    ratios: Dict[int, float]

    @property
    def best(self) -> float:
        """Largest finite ratio (the paper's "up to N x" headline)."""
        finite = [r for r in self.ratios.values() if math.isfinite(r)]
        if not finite:
            return math.inf if self.ratios else 0.0
        return max(finite)


def samples_to_reach(
    curve: Dict[int, float], target_error: float
) -> Optional[float]:
    """Samples needed for an error curve to drop to ``target_error``.

    Log-log interpolation between sweep points; ``None`` when the target
    is never reached within the sweep range.  Monotone decrease is not
    assumed — the first crossing is reported.
    """
    ns = sorted(curve)
    errs = [curve[n] for n in ns]
    if errs[0] <= target_error:
        return float(ns[0])
    for i in range(1, len(ns)):
        if errs[i] <= target_error:
            n_lo, n_hi = ns[i - 1], ns[i]
            e_lo, e_hi = errs[i - 1], errs[i]
            if e_lo == e_hi:
                return float(n_hi)
            frac = (math.log(e_lo) - math.log(target_error)) / (
                math.log(e_lo) - math.log(e_hi)
            )
            return math.exp(
                math.log(n_lo) + frac * (math.log(n_hi) - math.log(n_lo))
            )
    return None


def cost_reduction(
    result: SweepResult,
    metric: str = "covariance",
    bmf_name: str = "bmf",
    baseline_name: str = "mle",
) -> CostReduction:
    """Cost-reduction ratios of ``bmf_name`` over ``baseline_name``.

    Parameters
    ----------
    result:
        A finished sweep containing both methods.
    metric:
        ``"covariance"`` (Eq. 38, the 16x headline) or ``"mean"``
        (Eq. 37, the ~3x headline).
    """
    if metric not in ("mean", "covariance"):
        raise ValueError(f"metric must be 'mean' or 'covariance', got {metric!r}")
    get_curve = (
        result.mean_error_curve if metric == "mean" else result.cov_error_curve
    )
    bmf_curve = get_curve(bmf_name)
    mle_curve = get_curve(baseline_name)

    ratios: Dict[int, float] = {}
    for n, err in sorted(bmf_curve.items()):
        needed = samples_to_reach(mle_curve, err)
        ratios[n] = math.inf if needed is None else needed / n
    return CostReduction(metric=metric, ratios=ratios)
