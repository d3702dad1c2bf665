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
    """Squeezing level of the GKP teeth, kept in both dB and variance form.

    The two fields are redundant on purpose (sweep configs are written in dB,
    the math runs on sigma2) and must satisfy db = -10*log10(2*sigma2).
    sigma2 = 0 (db = inf) is the ideal infinite-squeezing limit.
    """

    db: float
    sigma2: float

    def __post_init__(self) -> None:
        if self.sigma2 < 0:
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2}")
        expected = squeezing_db_to_sigma2(self.db)
        if abs(expected - self.sigma2) > 1e-12 * max(expected, self.sigma2):
            raise ValueError(
                f"inconsistent squeezing: {self.db} dB implies sigma2={expected!r}, "
                f"got {self.sigma2!r}"
            )

    @classmethod
    def from_db(cls, db: float) -> "SqueezingSpec":
        return cls(db, squeezing_db_to_sigma2(db))

    @classmethod
    def from_sigma2(cls, sigma2: float) -> "SqueezingSpec":
        return cls(sigma2_to_db(sigma2), sigma2)


#: log(DBL_MAX): beyond |x| = sqrt(MAXLOG), exp(-x*x) underflows.
_MAXLOG = 7.09782712893383996843e2


def _erfc(a: float) -> float:
    """Complementary error function, bit-identical to the compiled Cephes erfc.

    Cephes ndtr.c (S. L. Moshier): 1 - erf(a) for |a| < 1, with erf an odd
    rational function; otherwise exp(-a*a) times a rational function of |a|
    (one for |a| < 8, one beyond), reflected as 2 - erfc(|a|) for negative a.
    Where exp(-a*a) would underflow it returns 0 or 2. NaN propagates.

    The rational functions are Cephes' polevl/p1evl Horner loops written out
    with literal coefficients, operation for operation: erf's T/U, and
    erfc's P/Q below 8 and R/S beyond. The denominators U, Q and S are monic,
    so p1evl starts at x + c[1]. The port thus reproduces the compiled erfc
    bit for bit (the tests compare the two); math.erfc differs from it in the
    last bit on most inputs, which would change printed 17-digit rows.
    """
    x = abs(a)
    if x < 1.0:
        z = a * a
        t = ((((9.60497373987051638749e0 * z + 9.00260197203842689217e1) * z
               + 2.23200534594684319226e3) * z + 7.00332514112805075473e3) * z
             + 5.55923013010394962768e4)
        u = (((((z + 3.35617141647503099647e1) * z + 5.21357949780152679795e2) * z
               + 4.59432382970980127987e3) * z + 2.26290000613890934246e4) * z
             + 4.92673942608635921086e4)
        return 1.0 - a * t / u
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p = ((((((((2.46196981473530512524e-10 * x + 5.64189564831068821977e-1) * x
                   + 7.46321056442269912687e0) * x + 4.86371970985681366614e1) * x
                 + 1.96520832956077098242e2) * x + 5.26445194995477358631e2) * x
               + 9.34528527171957607540e2) * x + 1.02755188689515710272e3) * x
             + 5.57535335369399327526e2)
        q = ((((((((x + 1.32281951154744992508e1) * x + 8.67072140885989742329e1) * x
                  + 3.54937778887819891062e2) * x + 9.75708501743205489753e2) * x
                + 1.82390916687909736289e3) * x + 2.24633760818710981792e3) * x
              + 1.65666309194161350182e3) * x + 5.57535340817727675546e2)
    else:
        p = (((((5.64189583547755073984e-1 * x + 1.27536670759978104416e0) * x
                + 5.01905042251180477414e0) * x + 6.16021097993053585195e0) * x
              + 7.40974269950448939160e0) * x + 2.97886665372100240670e0)
        q = ((((((x + 2.26052863220117276590e0) * x + 9.39603524938001434673e0) * x
                + 1.20489539808096656605e1) * x + 1.70814450747565897222e1) * x
              + 9.60896809063285878198e0) * x + 3.36907645100081516050e0)
    y = (z * p) / q
    return 2.0 - y if a < 0 else y


def eta_from_distance(l_km: float, latt_km: float = DEFAULT_ATTENUATION_KM) -> float:
    """Transmittance of a fiber of length l_km: eta = exp(-l_km / latt_km)."""
    if l_km < 0:
        raise ValueError(f"l_km must be nonnegative, got {l_km}")
    if latt_km <= 0:
        raise ValueError(f"latt_km must be positive, got {latt_km}")
    return math.exp(-l_km / latt_km)


def amplifier_added_variance(eta: float, mode: AmplifierMode) -> float:
    """Additive noise of the combined loss + amplification channel.

    See :class:`AmplifierMode` for the per-mode expressions. All three
    strategies remove the amplitude rescaling of the loss channel and leave
    behind only this additive Gaussian displacement noise.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    mode = AmplifierMode(mode)
    if mode is AmplifierMode.POST:
        return (1 - eta) / eta
    if mode is AmplifierMode.PRE:
        return 1 - eta
    return (1 - eta) / (2 * eta)  # CC_PAIR


def squeezing_db_to_sigma2(db: float) -> float:
    """Tooth variance for a squeezing level in dB: sigma2 = 10**(-db/10) / 2."""
    return 10.0 ** (-db / 10.0) / 2.0


def sigma2_to_db(sigma2: float) -> float:
    """Squeezing level in dB for a tooth variance: -10*log10(2*sigma2).

    sigma2 = 0 maps to +inf (ideal code states).
    """
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    if sigma2 == 0:
        return math.inf
    return -10.0 * math.log10(2.0 * sigma2)
