"""Behavioural MOSFET device model (square-law, strong inversion).

The paper's circuits are simulated at transistor level in SPICE with
"device-level variations of all transistors" (Sec. 5.1).  Our substitute
maps each transistor's varied process parameters to the small-signal
quantities the MNA macromodels consume:

* transconductance      ``gm  = sqrt(2 * kp * (W/L) * Id)``
* output conductance    ``gds = lambda_ * Id``
* overdrive voltage     ``Vov = sqrt(2 * Id / (kp * W/L))``
* gate capacitance      ``cgg ~= (2/3) * W * L * cox + W * cov``

Threshold-voltage shifts and mobility (``kp``) fluctuations are the two
variation channels, consistent with the classical Pelgrom mismatch model
where ``sigma(dVth) ~ Avt / sqrt(W L)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import SimulationError

__all__ = ["MosfetGeometry", "MosfetProcess", "SmallSignal", "Mosfet"]


@dataclass(frozen=True)
class MosfetGeometry:
    """Drawn geometry of one transistor (metres)."""

    width: float
    length: float

    def __post_init__(self) -> None:
        if self.width <= 0.0 or self.length <= 0.0:
            raise SimulationError(
                f"transistor geometry must be positive, got W={self.width}, L={self.length}"
            )

    @property
    def ratio(self) -> float:
        """Aspect ratio ``W / L``."""
        return self.width / self.length

    @property
    def area(self) -> float:
        """Gate area ``W * L`` (drives Pelgrom mismatch)."""
        return self.width * self.length


@dataclass(frozen=True)
class MosfetProcess:
    """Nominal process parameters of one device type.

    Attributes
    ----------
    vth:
        Threshold voltage magnitude (V).
    kp:
        Process transconductance ``mu * Cox`` (A/V^2).
    lambda_:
        Channel-length modulation (1/V).
    cox:
        Gate-oxide capacitance per area (F/m^2).
    cov:
        Overlap capacitance per width (F/m).
    avt:
        Pelgrom threshold-mismatch coefficient (V*m).
    akp:
        Pelgrom relative-``kp``-mismatch coefficient (m).
    """

    vth: float
    kp: float
    lambda_: float
    cox: float = 9e-3
    cov: float = 3e-10
    avt: float = 3.5e-9
    akp: float = 1.0e-8

    def __post_init__(self) -> None:
        if self.kp <= 0.0:
            raise SimulationError(f"kp must be > 0, got {self.kp}")
        if self.lambda_ < 0.0:
            raise SimulationError(f"lambda must be >= 0, got {self.lambda_}")


@dataclass(frozen=True)
class SmallSignal:
    """Small-signal operating point of one biased transistor."""

    gm: float
    gds: float
    vov: float
    cgg: float
    id_: float

    @property
    def intrinsic_gain(self) -> float:
        """``gm / gds``; infinite for an ideal (lambda=0) device."""
        if self.gds == 0.0:
            return math.inf
        return self.gm / self.gds


class Mosfet:
    """A biased MOSFET combining geometry, process and variations.

    Parameters
    ----------
    name:
        Instance name (``"M1"``...), used in error messages.
    geometry, process:
        Drawn geometry and nominal process parameters.
    dvth:
        Additive threshold shift (V) sampled by the process model.
    dkp_rel:
        Relative ``kp`` deviation (e.g. ``0.03`` for +3 %).
    """

    def __init__(
        self,
        name: str,
        geometry: MosfetGeometry,
        process: MosfetProcess,
        dvth: float = 0.0,
        dkp_rel: float = 0.0,
    ) -> None:
        self.name = name
        self.geometry = geometry
        self.process = process
        self.dvth = float(dvth)
        self.dkp_rel = float(dkp_rel)
        if self.kp_effective <= 0.0:
            raise SimulationError(
                f"{name}: kp variation {dkp_rel} drives kp non-positive"
            )

    # ------------------------------------------------------------------
    @property
    def vth_effective(self) -> float:
        """Threshold including the sampled variation."""
        return self.process.vth + self.dvth

    @property
    def kp_effective(self) -> float:
        """``kp`` including the sampled relative variation."""
        return self.process.kp * (1.0 + self.dkp_rel)

    @property
    def beta(self) -> float:
        """Current factor ``kp_eff * W / L``."""
        return self.kp_effective * self.geometry.ratio

    def with_variation(self, dvth: float, dkp_rel: float) -> "Mosfet":
        """A copy of this device with different sampled variations."""
        return Mosfet(self.name, self.geometry, self.process, dvth, dkp_rel)

    # ------------------------------------------------------------------
    def small_signal(self, bias_current: float) -> SmallSignal:
        """Small-signal parameters at drain current ``bias_current`` (A).

        The bias current is assumed to be enforced by the surrounding bias
        network (current mirrors), which is how the two-stage op-amp is
        biased; the device parameters then determine ``gm`` and ``gds``.
        """
        if bias_current <= 0.0:
            raise SimulationError(
                f"{self.name}: bias current must be > 0, got {bias_current}"
            )
        beta = self.beta
        gm = math.sqrt(2.0 * beta * bias_current)
        vov = math.sqrt(2.0 * bias_current / beta)
        gds = self.process.lambda_ * bias_current
        geom = self.geometry
        cgg = (2.0 / 3.0) * geom.area * self.process.cox + geom.width * self.process.cov
        return SmallSignal(gm=gm, gds=gds, vov=vov, cgg=cgg, id_=bias_current)

    def saturation_current(self, vgs: float) -> float:
        """Square-law drain current at gate-source voltage ``vgs`` (V).

        Returns 0 below threshold (no subthreshold model — the op-amp and
        ADC operate their devices in strong inversion).
        """
        vov = vgs - self.vth_effective
        if vov <= 0.0:
            return 0.0
        return 0.5 * self.beta * vov * vov

    # ------------------------------------------------------------------
    def mismatch_sigma(self) -> tuple:
        """Pelgrom standard deviations ``(sigma_dvth, sigma_dkp_rel)``.

        ``sigma(dVth) = Avt / sqrt(W L)`` and
        ``sigma(dkp/kp) = Akp / sqrt(W L)``.
        """
        root_area = math.sqrt(self.geometry.area)
        return (self.process.avt / root_area, self.process.akp / root_area)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Mosfet({self.name!r}, W/L={self.geometry.ratio:.1f}, "
            f"dvth={self.dvth:+.3e})"
        )
