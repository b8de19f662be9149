"""Exact, mergeable Gaussian sufficient statistics.

The normal-Wishart update (Eq. 24–28) touches the data only through the
triple ``(n, Xbar, S)`` — count, sample mean, and centered scatter matrix.
That triple is *additive*: two shards' statistics combine exactly into the
statistics of the concatenated sample, so late-stage measurements can be
ingested one die at a time (or shard by shard, in any split/merge order)
with ``O(d^2)`` work per update and no raw-sample retention.

:class:`SufficientStats` stores the triple in *centered* form — ``(n,
mean, scatter)`` rather than ``(n, sum x, sum x x^T)`` — updated with the
Welford/Chan recurrences.  Centering matters numerically: the raw
outer-product sum loses half the mantissa when the mean is large relative
to the spread (``E[x]^2 >> Var[x]``, routine for circuit metrics like a
60 dB gain), while the centered recurrence keeps the scatter accurate.

:meth:`SufficientStats.from_samples` uses the same batch formulas as
:func:`repro.stats.moments.sample_mean` / ``scatter_matrix``, so a
one-shot build is bit-identical to what the batch estimators always
computed; the incremental paths agree with it to floating-point rounding
(the serving equivalence suite pins 1e-10).
"""

from __future__ import annotations

import json
import math
import operator
from typing import Any, Dict, List, Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.exceptions import DimensionError
from repro.linalg.validation import as_samples, symmetrize
from repro.schemas import SUFFSTATS_WIRE_SCHEMA, canonical_json
from repro.stats.moments import sample_mean, scatter_matrix

__all__ = ["SufficientStats", "merge_all", "WIRE_SCHEMA"]

#: Format marker of the stable wire encoding (:meth:`SufficientStats.to_wire`);
#: defined in :mod:`repro.schemas`, the version-string source of truth.
WIRE_SCHEMA = SUFFSTATS_WIRE_SCHEMA

#: Relative tolerance (against the largest ``|S_ij|``) for the scatter's
#: asymmetry and most negative eigenvalue in :meth:`SufficientStats.from_dict`;
#: Welford/Chan rounding stays orders of magnitude below it.
SCATTER_RTOL = 1e-9


class SufficientStats:
    """Running ``(n, mean, scatter)`` of a stream of ``d``-vectors.

    Attributes
    ----------
    n:
        Number of samples folded in so far.
    mean:
        Sample mean ``Xbar`` (the zero vector while ``n == 0``).
    scatter:
        Centered scatter matrix ``S = sum_i (x_i - Xbar)(x_i - Xbar)^T``
        (Eq. 26); symmetric PSD by construction, zero while ``n < 2``.

    Instances are mutable accumulators; use :meth:`copy` before forking a
    stream.  All update paths cost ``O(d^2)`` per sample and never store
    the raw samples.
    """

    __slots__ = ("n", "mean", "scatter")

    def __init__(self, dim: int) -> None:
        if int(dim) < 1:
            raise DimensionError(f"dim must be >= 1, got {dim}")
        self.n: int = 0
        self.mean: np.ndarray = np.zeros(int(dim))
        self.scatter: np.ndarray = np.zeros((int(dim), int(dim)))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, dim: int) -> "SufficientStats":
        """A fresh accumulator for ``d = dim`` metrics."""
        return cls(dim)

    @classmethod
    def from_samples(cls, samples: ArrayLike) -> "SufficientStats":
        """One-shot statistics of an ``(n, d)`` sample matrix.

        Uses the exact batch formulas of :mod:`repro.stats.moments`, so the
        result is bit-identical to what :func:`sample_mean` /
        :func:`scatter_matrix` return on the same array — this is the
        reference the incremental paths are tested against.
        """
        data = as_samples(samples)
        stats = cls(data.shape[1])
        stats.n = data.shape[0]
        stats.mean = sample_mean(data)
        stats.scatter = scatter_matrix(data)
        return stats

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of metrics ``d``."""
        return int(self.mean.shape[0])

    def copy(self) -> "SufficientStats":
        """Independent deep copy of the accumulator state."""
        out = SufficientStats(self.dim)
        out.n = self.n
        out.mean = self.mean.copy()
        out.scatter = self.scatter.copy()
        return out

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def push(self, x: ArrayLike) -> "SufficientStats":
        """Fold in one sample vector (Welford's centered update).

        ``mean_{n} = mean_{n-1} + delta / n`` and
        ``S_n = S_{n-1} + delta (x - mean_n)^T`` — the rank-one form whose
        error stays bounded even when ``|mean| >> spread``.  Returns
        ``self`` for chaining.
        """
        row = np.atleast_1d(np.asarray(x, dtype=float))
        if row.ndim != 1 or row.shape[0] != self.dim:
            raise DimensionError(
                f"observation must be a length-{self.dim} vector, "
                f"got shape {row.shape}"
            )
        if not np.all(np.isfinite(row)):
            raise DimensionError("observation contains non-finite values")
        self.n += 1
        delta = row - self.mean
        self.mean = self.mean + delta / self.n
        self.scatter = symmetrize(self.scatter + np.outer(delta, row - self.mean))
        return self

    def push_batch(self, samples: ArrayLike) -> "SufficientStats":
        """Fold in an ``(n, d)`` block via one Chan merge.

        Computes the block's statistics with the batch formulas and merges
        them in; ingesting a single block into an *empty* accumulator is
        therefore bit-identical to :meth:`from_samples`.
        """
        return self.merge(SufficientStats.from_samples(samples))

    def merge(self, other: "SufficientStats") -> "SufficientStats":
        """Combine another accumulator into this one (Chan's formula).

        Exact in exact arithmetic and associative/commutative up to
        floating-point rounding, so shard-local statistics can be merged
        in any split order.  Returns ``self``.
        """
        if not isinstance(other, SufficientStats):
            raise DimensionError(
                f"can only merge SufficientStats, got {type(other).__name__}"
            )
        if other.dim != self.dim:
            raise DimensionError(
                f"cannot merge dim-{other.dim} stats into dim-{self.dim} stats"
            )
        if other.n == 0:
            return self
        if self.n == 0:
            self.n = other.n
            self.mean = other.mean.copy()
            self.scatter = other.scatter.copy()
            return self
        n_total = self.n + other.n
        delta = other.mean - self.mean
        self.mean = self.mean + delta * (other.n / n_total)
        cross = np.outer(delta, delta) * (self.n * other.n / n_total)
        self.scatter = symmetrize(self.scatter + other.scatter + cross)
        self.n = n_total
        return self

    # ------------------------------------------------------------------
    # serialization (exact: float64 round-trips losslessly through JSON)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload; ``float.__repr__`` round-trips bit-exactly."""
        return {
            "n": int(self.n),
            "mean": self.mean.tolist(),
            "scatter": self.scatter.tolist(),
        }

    def to_payload(self) -> Dict[str, Any]:
        """Array-valued payload for binary sinks (write-ahead-log v2).

        Same keys as :meth:`to_dict` but ``mean``/``scatter`` stay
        ``float64`` ndarrays, so a binary log can write their raw buffers
        instead of formatting every float.  :meth:`from_dict` accepts the
        result unchanged (``np.asarray`` on an ndarray is a no-copy pass),
        so both payload shapes replay through one code path.
        """
        return {"n": int(self.n), "mean": self.mean, "scatter": self.scatter}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SufficientStats":
        """Inverse of :meth:`to_dict` (bit-exact restore), validated.

        The one entry point for statistics that cross a trust boundary —
        the wire protocol, write-ahead-log replay, and checkpoint load —
        so it refuses anything the accumulators could never produce: a
        non-integer or negative count, non-finite values, a non-zero mean
        or scatter for zero samples, and a scatter that is not symmetric
        PSD within :data:`SCATTER_RTOL`.
        """
        try:
            mean = np.asarray(payload["mean"], dtype=float)
            scatter = np.asarray(payload["scatter"], dtype=float)
            n = operator.index(payload["n"])
        except (KeyError, TypeError) as exc:
            raise DimensionError(f"malformed suffstats payload: {exc}") from exc
        if mean.ndim != 1:
            raise DimensionError("suffstats mean must be 1-D")
        d = mean.shape[0]
        if scatter.shape != (d, d):
            raise DimensionError(
                f"suffstats scatter shape {scatter.shape} does not match dim {d}"
            )
        if n < 0:
            raise DimensionError(f"suffstats count must be >= 0, got {n}")
        # NaN and inf propagate into the max, so it doubles as the
        # scatter's finiteness check
        scale = float(np.abs(scatter).max()) if d else 0.0
        if not (math.isfinite(scale) and np.isfinite(mean).all()):
            raise DimensionError("suffstats mean and scatter must be finite")
        if n == 0 and (scale > 0.0 or mean.any()):
            raise DimensionError("suffstats of zero samples must have zero mean and scatter")
        if scale > 0.0:
            if np.abs(scatter - scatter.T).max() > SCATTER_RTOL * scale:
                raise DimensionError("suffstats scatter must be symmetric")
            if np.linalg.eigvalsh(scatter)[0] < -SCATTER_RTOL * scale:
                raise DimensionError("suffstats scatter must be positive semi-definite")
        stats = cls(d)
        stats.n = n
        stats.mean = mean
        stats.scatter = scatter
        return stats

    def to_wire(self) -> bytes:
        """Stable wire encoding: canonical JSON (sorted keys, compact,
        ``repr``-round-tripped floats) inside a versioned envelope.

        This is the *contract* encoding for accumulators that cross a
        process or machine boundary — shard workers answering a router,
        tester-side accumulators posted over the JSON-lines protocol, and
        write-ahead-log records.  Unlike pickle it is schema-checked,
        inspectable, and identical bytes for identical values regardless
        of dict insertion order, so it can be sha256-chained.
        """
        envelope = {"schema": WIRE_SCHEMA, **self.to_dict()}
        return canonical_json(envelope).encode("utf-8")

    @classmethod
    def from_wire(cls, data: bytes) -> "SufficientStats":
        """Decode :meth:`to_wire` bytes (bit-exact inverse); schema-checked."""
        try:
            envelope = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DimensionError(f"malformed suffstats wire payload: {exc}") from exc
        if not isinstance(envelope, dict) or envelope.get("schema") != WIRE_SCHEMA:
            declared = envelope.get("schema") if isinstance(envelope, dict) else None
            raise DimensionError(
                f"suffstats wire payload declares schema {declared!r} "
                f"(expected {WIRE_SCHEMA!r})"
            )
        return cls.from_dict(envelope)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SufficientStats):
            return NotImplemented
        return (
            self.n == other.n
            and bool(np.array_equal(self.mean, other.mean))
            and bool(np.array_equal(self.scatter, other.scatter))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SufficientStats(n={self.n}, dim={self.dim})"


def merge_all(stats: Sequence[SufficientStats]) -> SufficientStats:
    """Merge a sequence of shard-local accumulators into one (left fold).

    The sequence must be non-empty and dimension-consistent; inputs are
    not mutated.
    """
    items: List[SufficientStats] = list(stats)
    if not items:
        raise DimensionError("merge_all requires at least one accumulator")
    out = items[0].copy()
    for item in items[1:]:
        out.merge(item)
    return out
