"""Static ADC linearity analysis: INL/DNL from transfer levels or histograms.

Dynamic metrics (SNR/SINAD/SFDR/THD) are what the paper fuses, but every
ADC validation lab also reports the static linearity of the transfer curve.
This module completes the ADC substrate with the two standard procedures:

* :func:`inl_dnl_from_levels` — direct computation from the measured
  comparator trip points (what our simulator knows exactly);
* :func:`inl_dnl_from_histogram` — the IEEE 1241 sine-wave code-density
  (histogram) test, which estimates the same quantities from conversion
  records only — the method a bench uses on real silicon.

Both use the end-point-fit convention: DNL_k is the deviation of code-bin
``k``'s width from 1 LSB; INL_k is the cumulative deviation of transition
level ``k`` from the end-point-fit line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SimulationError

__all__ = [
    "LinearityResult",
    "inl_dnl_from_levels",
    "inl_dnl_from_dac_levels",
    "inl_dnl_from_histogram",
]


@dataclass(frozen=True)
class LinearityResult:
    """Static linearity of one converter transfer curve.

    ``dnl``/``inl`` are in LSB.  ``dnl[k]`` refers to the bin between
    transition ``k`` and ``k+1``; ``inl[k]`` to transition ``k``.
    """

    dnl: np.ndarray
    inl: np.ndarray

    @property
    def dnl_max(self) -> float:
        """Worst-case |DNL| (LSB)."""
        return float(np.max(np.abs(self.dnl)))

    @property
    def inl_max(self) -> float:
        """Worst-case |INL| (LSB)."""
        return float(np.max(np.abs(self.inl)))

    @property
    def monotonic(self) -> bool:
        """True when no code bin has collapsed (DNL > -1 everywhere)."""
        return bool(np.all(self.dnl > -1.0 + 1e-12))


def inl_dnl_from_levels(levels) -> LinearityResult:
    """INL/DNL from measured transition levels (end-point fit).

    Parameters
    ----------
    levels:
        Sorted 1-D array of the converter's ``2^b - 1`` transition voltages.
    """
    lv = np.asarray(levels, dtype=float).ravel()
    if lv.size < 3:
        raise SimulationError(f"need at least 3 transition levels, got {lv.size}")
    if np.any(np.diff(lv) <= 0.0):
        # A non-monotonic raw ladder is physically possible (large offsets)
        # but the standard procedure measures the *sorted* transitions.
        lv = np.sort(lv)
    n_trans = lv.size
    # End-point fit: the ideal line passes through the first and last
    # transitions, so INL[0] = INL[-1] = 0 by construction.
    lsb = (lv[-1] - lv[0]) / (n_trans - 1)
    if lsb <= 0.0:
        raise SimulationError("degenerate transfer curve: zero full-scale range")
    ideal = lv[0] + lsb * np.arange(n_trans)
    inl = (lv - ideal) / lsb
    dnl = np.diff(lv) / lsb - 1.0
    return LinearityResult(dnl=dnl, inl=inl)


def inl_dnl_from_dac_levels(levels) -> LinearityResult:
    """INL/DNL of a DAC transfer curve (end-point fit, *no sorting*).

    Parameters
    ----------
    levels:
        1-D array of the converter's output level per input code, in code
        order (``2^b`` entries for a ``b``-bit DAC).

    Unlike :func:`inl_dnl_from_levels` — which measures the sorted
    transition set of an ADC ladder — a DAC's transfer curve is indexed by
    the digital input code, so the level order *is* the measurement:
    sorting would erase exactly the non-monotonicity a DAC linearity test
    exists to catch.  A decreasing step shows up as ``DNL < -1`` and the
    :attr:`LinearityResult.monotonic` flag reports it.
    """
    lv = np.asarray(levels, dtype=float).ravel()
    if lv.size < 3:
        raise SimulationError(f"need at least 3 DAC levels, got {lv.size}")
    n_levels = lv.size
    lsb = (lv[-1] - lv[0]) / (n_levels - 1)
    if lsb <= 0.0:
        raise SimulationError("degenerate transfer curve: non-positive full scale")
    ideal = lv[0] + lsb * np.arange(n_levels)
    inl = (lv - ideal) / lsb
    dnl = np.diff(lv) / lsb - 1.0
    return LinearityResult(dnl=dnl, inl=inl)


def inl_dnl_from_histogram(
    codes,
    n_codes: int,
    sine_amplitude_rel: float = 0.98,
    min_hits_per_code: int = 8,
) -> LinearityResult:
    """IEEE 1241 sine-wave histogram (code-density) test.

    Parameters
    ----------
    codes:
        Conversion record (integer output codes) of a sine that overdrives
        the converter slightly, so every code is exercised.
    n_codes:
        Total number of output codes (``2^b``).
    sine_amplitude_rel:
        Unused by the classical estimator (the arcsine correction is
        derived from the record itself); kept for API compatibility with
        lab scripts that log it.
    min_hits_per_code:
        Minimum average hits per interior code; fewer raises, because the
        estimate would be statistically meaningless.

    Notes
    -----
    The code-density method inverts the arcsine distribution of a sampled
    sine: the estimated transition level for code ``k`` is
    ``T(k) = -A * cos(pi * CDF(k))`` where ``CDF`` is the cumulative hit
    fraction below code ``k``.  The end bins absorb the clipped tails and
    are excluded, as in the standard.
    """
    arr = np.asarray(codes).ravel().astype(int)
    if arr.size == 0:
        raise SimulationError("empty conversion record")
    if n_codes < 4:
        raise SimulationError(f"n_codes must be >= 4, got {n_codes}")
    if np.any(arr < 0) or np.any(arr >= n_codes):
        raise SimulationError("codes outside [0, n_codes)")
    interior = n_codes - 2
    if arr.size < min_hits_per_code * interior:
        raise SimulationError(
            f"record too short: {arr.size} samples for {interior} interior codes"
        )
    hist = np.bincount(arr, minlength=n_codes).astype(float)
    if hist[1:-1].min() == 0.0:
        raise SimulationError(
            "an interior code received no hits; increase the record length "
            "or the sine amplitude"
        )
    total = hist.sum()
    # Cumulative fraction strictly below each transition k (between code
    # k-1 and k), for k = 1 .. n_codes - 1.
    cumulative = np.cumsum(hist)[:-1] / total
    cumulative = np.clip(cumulative, 1e-12, 1.0 - 1e-12)
    transitions = -np.cos(np.pi * cumulative)
    return inl_dnl_from_levels(transitions)
