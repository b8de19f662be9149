"""Performance specifications: the pass/fail boxes that define parametric yield.

The paper motivates multivariate moment estimation with yield: "the
parametric yield value of an AMS circuit is often defined by multiple
correlated performance metrics" (Sec. 1).  A :class:`Specification` is one
metric's acceptance interval; a :class:`SpecificationSet` is the full
(axis-aligned) acceptance region whose probability under the fused Gaussian
is the parametric yield.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SpecificationError

__all__ = ["Specification", "SpecificationSet"]


@dataclass(frozen=True)
class Specification:
    """Acceptance interval for one performance metric.

    At least one bound must be finite.  ``lower <= x <= upper`` passes.
    """

    name: str
    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("specification name must be non-empty")
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise SpecificationError(f"{self.name}: bounds must not be NaN")
        if self.lower >= self.upper:
            raise SpecificationError(
                f"{self.name}: lower bound {self.lower} must be below upper {self.upper}"
            )
        if math.isinf(self.lower) and math.isinf(self.upper):
            raise SpecificationError(f"{self.name}: at least one bound must be finite")

    def passes(self, values) -> np.ndarray:
        """Element-wise pass/fail of metric values."""
        arr = np.asarray(values, dtype=float)
        return (arr >= self.lower) & (arr <= self.upper)

    @classmethod
    def minimum(cls, name: str, bound: float) -> "Specification":
        """Spec of the form ``x >= bound`` (e.g. gain, SNR)."""
        return cls(name=name, lower=bound)

    @classmethod
    def maximum(cls, name: str, bound: float) -> "Specification":
        """Spec of the form ``x <= bound`` (e.g. power, offset magnitude)."""
        return cls(name=name, upper=bound)

    @classmethod
    def window(cls, name: str, lower: float, upper: float) -> "Specification":
        """Two-sided spec ``lower <= x <= upper``."""
        return cls(name=name, lower=lower, upper=upper)


@dataclass(frozen=True)
class SpecificationSet:
    """An ordered set of specs matching a metric vector's columns."""

    specs: Tuple[Specification, ...]

    def __post_init__(self) -> None:
        if not self.specs:
            raise SpecificationError("specification set must be non-empty")
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise SpecificationError(f"duplicate spec names: {names}")
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def from_dict(
        cls, bounds: Dict[str, Tuple[float, float]], order: Optional[Sequence[str]] = None
    ) -> "SpecificationSet":
        """Build from ``{name: (lower, upper)}``; ``order`` fixes columns."""
        names = list(order) if order is not None else list(bounds)
        missing = [n for n in names if n not in bounds]
        if missing:
            raise SpecificationError(f"bounds missing for metrics: {missing}")
        return cls(
            tuple(Specification(n, bounds[n][0], bounds[n][1]) for n in names)
        )

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of constrained metrics."""
        return len(self.specs)

    @property
    def names(self) -> Tuple[str, ...]:
        """Metric names in column order."""
        return tuple(s.name for s in self.specs)

    @property
    def lower_bounds(self) -> np.ndarray:
        """Vector of lower bounds (−inf where one-sided)."""
        return np.array([s.lower for s in self.specs])

    @property
    def upper_bounds(self) -> np.ndarray:
        """Vector of upper bounds (+inf where one-sided)."""
        return np.array([s.upper for s in self.specs])

    def passes(self, samples) -> np.ndarray:
        """Row-wise joint pass/fail of an ``(n, d)`` metric matrix."""
        arr = np.asarray(samples, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.shape[1] != self.dim:
            raise SpecificationError(
                f"samples have {arr.shape[1]} metrics, specs expect {self.dim}"
            )
        ok = np.ones(arr.shape[0], dtype=bool)
        for j, spec in enumerate(self.specs):
            ok &= spec.passes(arr[:, j])
        return ok

    def empirical_yield(self, samples) -> float:
        """Fraction of rows passing every spec."""
        return float(np.mean(self.passes(samples)))
