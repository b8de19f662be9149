"""MNA solve-strategy choice and the sparse numeric core.

:meth:`repro.circuits.mna.StampPlan.solve_batched` solves its stacked
systems either densely (batched LAPACK, closed-form Cramer for m <= 3) or
with the factorized sparse LU of :mod:`repro.linalg.backends.sparse_mna`.
The numeric core lives down here; the stamp-plan glue lives up in
``circuits``.  :func:`resolve_mna_backend` picks one from the one thing the
caller can observe, the reduced system size.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import BackendUnavailableError, ConfigError
from repro.linalg.backends import sparse_mna

__all__ = ["DENSE_AUTO_MAX_REDUCED_SIZE", "resolve_mna_backend"]

#: ``auto`` MNA resolution: largest reduced system kept on the dense
#: path.  Below this the stacked dense solves (and the closed-form
#: Cramer path for m <= 3) beat per-system sparse LU by a wide margin;
#: above it the dense ``O(m^2)`` per-(sample, frequency) memory starts
#: to dominate and factorized sparse LU scales instead.
DENSE_AUTO_MAX_REDUCED_SIZE = 64

_MNA_BACKENDS = ("dense", "sparse")


def resolve_mna_backend(name: Optional[str], reduced_size: int) -> str:
    """Resolve an MNA backend request against the reduced system size.

    ``None``/``"auto"`` keeps small cores dense (closed-form/stacked
    LAPACK territory) and switches to sparse above
    :data:`DENSE_AUTO_MAX_REDUCED_SIZE` when scipy is importable —
    falling back to dense, never raising, when it is not.  An explicit
    ``"sparse"`` without scipy raises
    :class:`~repro.exceptions.BackendUnavailableError`; any other name
    raises :class:`~repro.exceptions.ConfigError`.
    """
    if name is None or name == "auto":
        if reduced_size > DENSE_AUTO_MAX_REDUCED_SIZE and sparse_mna.is_available():
            return "sparse"
        return "dense"
    if name not in _MNA_BACKENDS:
        raise ConfigError(
            f"unknown mna backend {name!r}; expected one of: "
            f"{', '.join(_MNA_BACKENDS)} (or 'auto')"
        )
    if name == "sparse" and not sparse_mna.is_available():
        raise BackendUnavailableError(
            "MNA backend 'sparse' needs scipy, which is not installed"
        )
    return name
