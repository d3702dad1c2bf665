"""Finite-squeezing GKP noise model and the added noise of loss + amplification.

Conventions: hbar = 1, vacuum variance 1/2 per quadrature, GKP lattice spacing
sqrt(pi). A finitely squeezed GKP state is summarized by the Gaussian variance
sigma^2 of each grid tooth; the squeezing level in dB is -10*log10(2*sigma^2),
so 0 dB corresponds to vacuum-width teeth (sigma^2 = 1/2).

There is no wavefunction or Fock-space object anywhere in this package: loss,
amplification and error correction are bookkept as per-quadrature displacement
variances plus mod-sqrt(pi) binning of Gaussian displacements. Every
amplification strategy undoes the amplitude damping of the loss channel and
leaves only additive Gaussian noise, so :func:`amplifier_added_variance` is the
one place where a channel-noise formula is written; the protocol variance
budgets of :mod:`gkp_repeater.protocols` are built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

SQRT_PI = math.sqrt(math.pi)

#: Fiber attenuation length in km (transmittance eta = exp(-L/L_att)).
DEFAULT_ATTENUATION_KM = 22.0


def _require(name: str, value, rule: str, ok: bool) -> None:
    """Raise ``ValueError("<name> must <rule>, got <value>")`` unless ok.

    ok is the condition that must hold, so a NaN, which fails every
    comparison, is rejected by construction.
    """
    if not ok:
        raise ValueError(f"{name} must {rule}, got {value}")


class AmplifierMode(str, Enum):
    """How channel loss is converted into additive Gaussian displacement noise.

    The combined loss + amplification channel adds, per quadrature:

    ==========  =====================  ==========================================
    mode        added variance         amplifier placement
    ==========  =====================  ==========================================
    POST        (1-eta)/eta            phase-insensitive amplifier after loss
    PRE         1-eta                  phase-insensitive amplifier before loss
    CC_PAIR     (1-eta)/(2*eta)        homodyne-outcome rescaling by 1/eta,
                                       noise split over both modes of an EPR
                                       measurement
    ==========  =====================  ==========================================
    """

    POST = "post"
    PRE = "pre"
    CC_PAIR = "cc_pair"


@dataclass(frozen=True)
class SqueezingSpec:
    """Squeezing level of the GKP teeth as the tooth variance sigma2.

    Sweep configs are written in dB (:meth:`from_db`); the math runs on
    sigma2. sigma2 = 0 (infinite dB) is the ideal infinite-squeezing limit.
    """

    sigma2: float

    def __post_init__(self) -> None:
        _require("sigma2", self.sigma2, "be nonnegative", self.sigma2 >= 0)

    @classmethod
    def from_db(cls, db: float) -> "SqueezingSpec":
        return cls(squeezing_db_to_sigma2(db))


def eta_from_distance(l_km: float, latt_km: float = DEFAULT_ATTENUATION_KM) -> float:
    """Transmittance of a fiber of length l_km: eta = exp(-l_km / latt_km)."""
    _require("l_km", l_km, "be nonnegative", l_km >= 0)
    _require("latt_km", latt_km, "be positive", latt_km > 0)
    return math.exp(-l_km / latt_km)


def amplifier_added_variance(eta: float, mode: AmplifierMode) -> float:
    """Additive noise of the combined loss + amplification channel.

    See :class:`AmplifierMode` for the per-mode expressions. All three
    strategies remove the amplitude rescaling of the loss channel and leave
    behind only this additive Gaussian displacement noise.
    """
    _require("eta", eta, "be in (0, 1]", 0.0 < eta <= 1.0)
    mode = AmplifierMode(mode)
    if mode is AmplifierMode.POST:
        return (1 - eta) / eta
    if mode is AmplifierMode.PRE:
        return 1 - eta
    return (1 - eta) / (2 * eta)  # CC_PAIR


def squeezing_db_to_sigma2(db: float) -> float:
    """Tooth variance for a squeezing level in dB: sigma2 = 10**(-db/10) / 2."""
    try:
        return 10.0 ** (-db / 10.0) / 2.0
    except OverflowError:  # below about -3,082 dB
        raise ValueError(f"squeezing of {db} dB is out of range: its tooth variance overflows") from None


def sigma2_to_db(sigma2: float) -> float:
    """Squeezing level in dB for a tooth variance: -10*log10(2*sigma2).

    sigma2 = 0 maps to +inf (ideal code states).
    """
    _require("sigma2", sigma2, "be nonnegative", sigma2 >= 0)
    if sigma2 == 0:
        return math.inf
    return -10.0 * math.log10(2.0 * sigma2)
