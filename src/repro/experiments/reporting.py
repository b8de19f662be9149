"""Plain-text reporting: the figure series and headline rows as the paper prints them.

All benchmark harnesses funnel through these helpers so `pytest
benchmarks/ --benchmark-only` output contains, for every reproduced figure,
the same rows/series the paper reports (error vs sample count per method,
selected hyper-parameters, cost-reduction headline).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

from repro.experiments.cost import CostReduction
from repro.experiments.sweep import SweepResult

__all__ = [
    "format_table",
    "format_error_series",
    "format_cost_reduction",
    "format_hyperparams",
]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width ASCII table."""
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, header has {len(headers)}"
            )
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return ">range"
        if value != 0.0 and (abs(value) < 1e-3 or abs(value) >= 1e5):
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def format_error_series(
    result: SweepResult, metric: str, title: str
) -> str:
    """One figure's series: sample count vs per-method average error."""
    if metric not in ("mean", "covariance"):
        raise ValueError(f"metric must be 'mean' or 'covariance', got {metric!r}")
    curves = {
        m: (
            result.mean_error_curve(m)
            if metric == "mean"
            else result.cov_error_curve(m)
        )
        for m in result.methods
    }
    ns = sorted(result.config.sample_sizes)
    headers = ["n_late"] + [f"{m}_error" for m in result.methods]
    rows = [[n] + [curves[m][n] for m in result.methods] for n in ns]
    return format_table(headers, rows, title=title)


def format_cost_reduction(reduction: CostReduction, title: str) -> str:
    """Headline table: per-operating-point and best cost-reduction ratio."""
    headers = ["bmf_n", "mle_equivalent_ratio"]
    rows = [[n, r] for n, r in sorted(reduction.ratios.items())]
    table = format_table(headers, rows, title=title)
    best = reduction.best
    best_str = "beyond sweep range (>max)" if math.isinf(best) else f"{best:.1f}x"
    return f"{table}\nbest cost reduction ({reduction.metric}): {best_str}"


def format_hyperparams(result: SweepResult, title: str) -> str:
    """Median CV-selected ``(kappa0, v0)`` per sample count."""
    headers = ["n_late", "median_kappa0", "median_v0"]
    rows = []
    for n in sorted(result.config.sample_sizes):
        if result.hyperparams.get(n):
            k0, v0 = result.hyperparam_medians(n)
            rows.append([n, k0, v0])
    return format_table(headers, rows, title=title)
