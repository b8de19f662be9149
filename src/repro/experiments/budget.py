"""Sample-budget planning: how many late-stage samples do I need?

The practical question behind the paper's cost-reduction numbers, asked in
the forward direction: *given* an accuracy target (or a bench-time budget),
how many post-layout simulations / silicon measurements should be planned?

:class:`BudgetPlanner` answers it from a pilot sweep: it fits the decay
laws of both estimators (:mod:`repro.experiments.convergence`) and inverts
them, reporting for each accuracy target the required sample counts and
the implied saving.  The pilot sweep can be run on a *cheap proxy bank*
(a reduced Monte-Carlo population), because only the decay shape is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.exceptions import DimensionError
from repro.experiments.convergence import DecayFit, fit_decay
from repro.experiments.sweep import SweepResult

__all__ = ["BudgetPlan", "BudgetPlanner"]


@dataclass(frozen=True)
class BudgetPlan:
    """Sample counts required to reach one accuracy target."""

    target_error: float
    n_mle: Optional[float]
    n_bmf: Optional[float]

    @property
    def saving(self) -> Optional[float]:
        """``n_mle / n_bmf`` when both are defined and finite."""
        if self.n_mle is None or self.n_bmf is None or self.n_bmf <= 0.0:
            return None
        return self.n_mle / self.n_bmf


class BudgetPlanner:
    """Inverts fitted error-decay laws into sample requirements.

    Parameters
    ----------
    result:
        A pilot sweep containing ``"mle"`` and ``"bmf"`` methods.
    metric:
        ``"covariance"`` or ``"mean"``.
    """

    def __init__(self, result: SweepResult, metric: str = "covariance") -> None:
        if metric not in ("mean", "covariance"):
            raise ValueError(f"metric must be 'mean' or 'covariance', got {metric!r}")
        self.metric = metric
        missing = {"mle", "bmf"} - set(result.methods)
        if missing:
            raise DimensionError(f"pilot sweep is missing methods: {sorted(missing)}")
        get = result.mean_error_curve if metric == "mean" else result.cov_error_curve
        self._curves = {m: get(m) for m in ("mle", "bmf")}
        self.fits: Dict[str, DecayFit] = {
            m: fit_decay(c) for m, c in self._curves.items()
        }
        #: BMF's smallest observed error: targets below it are unreachable
        #: by fusion alone (the prior-bias plateau).
        self.bmf_floor = min(self._curves["bmf"].values())

    # ------------------------------------------------------------------
    def _invert(self, fit: DecayFit, target: float) -> Optional[float]:
        if target <= 0.0:
            raise DimensionError(f"target error must be > 0, got {target}")
        if fit.slope >= 0.0:
            return None
        n = math.exp((math.log(target) - fit.log_intercept) / fit.slope)
        return max(n, 2.0)

    def plan(self, target_error: float) -> BudgetPlan:
        """Sample counts needed by each estimator for ``target_error``.

        ``n_bmf`` is ``None`` when the target sits below the observed BMF
        floor — more samples will not get fusion there; improve the prior
        (tighter early-stage model) instead.
        """
        n_mle = self._invert(self.fits["mle"], target_error)
        if target_error < self.bmf_floor:
            n_bmf = None
        else:
            n_bmf = self._invert(self.fits["bmf"], target_error)
            # The fitted BMF decay is shallow; never report more samples
            # than MLE would need (fusion can always fall back to MLE).
            if n_bmf is not None and n_mle is not None:
                n_bmf = min(n_bmf, n_mle)
        return BudgetPlan(target_error=target_error, n_mle=n_mle, n_bmf=n_bmf)

    def plan_table(self, targets: Sequence[float]) -> list:
        """Plans for several targets, sorted loosest-first."""
        if not targets:
            raise DimensionError("need at least one target error")
        return [self.plan(t) for t in sorted(targets, reverse=True)]

    def max_error_for_budget(self, n_samples: int, method: str = "bmf") -> float:
        """Expected error when only ``n_samples`` can be afforded."""
        if n_samples < 2:
            raise DimensionError(f"n_samples must be >= 2, got {n_samples}")
        if method not in self.fits:
            raise DimensionError(f"unknown method {method!r}")
        predicted = self.fits[method].predict(float(n_samples))
        if method == "bmf":
            return max(predicted, self.bmf_floor * 0.8)
        return predicted
