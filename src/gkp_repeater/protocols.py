"""Per-segment variance budgets, logical error rates, and secure key rates
for the bare-GKP repeater chain variants.

Every variant follows the same template: GKP qubits (tooth variance sigma2)
cross a fiber segment, loss is converted to additive Gaussian noise by one of
the amplification strategies, and teleportation-based error correction at each
repeater station performs a homodyne Bell measurement whose outcomes carry the
accumulated deviation. The per-measurement variance just before the ideal
mod-sqrt(pi) correction is what sets the logical error rate.

Pre-correction variance per measurement (eta = segment transmittance, each
half-segment of a two-way variant sees sqrt(eta)):

    one-way, postamplification        2*sigma2 + (1-eta)/eta
    one-way, preamplification         2*sigma2 + (1-eta)
    two-way, postamplification        2*sigma2 + 2*(1-sqrt(eta))/sqrt(eta)
    two-way, preamplification         2*sigma2 + 2 - 2*sqrt(eta)
    two-way, CC amplification         2*sigma2 + (1-sqrt(eta))/sqrt(eta)
    two-way post, second round        2*sigma2 + (1-sqrt(eta))/sqrt(eta)  per round
    two-way pre, second round         2*sigma2 + 1 - sqrt(eta)            per round

The 2*sigma2 is the input tooth plus the error-correction ancilla tooth; the
channel term follows the amplification strategy, doubled in plain two-way
variants because both Bell-measurement inputs have been transmitted. The
second-round variants insert an extra, locally prepared Bell pair at each
station so only one input per measurement is noisy, at the cost of two error
opportunities per station.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import hrm as hrm_mod
from .noise_core import (
    DEFAULT_ATTENUATION_KM,
    QuadVariance,
    SqueezingSpec,
    eta_from_distance,
)


class Variant(Enum):
    """Protocol variant tags; values double as CLI spellings."""

    ONE_WAY_POST = "one-way-post"
    ONE_WAY_PRE = "one-way-pre"
    TWO_WAY_POST = "two-way-post"
    TWO_WAY_PRE = "two-way-pre"
    TWO_WAY_CC = "two-way-cc"
    TWO_WAY_POST_SECOND_SQEC = "two-way-post-2sqec"
    TWO_WAY_PRE_SECOND_SQEC = "two-way-pre-2sqec"

    @property
    def two_way(self) -> bool:
        return self is not Variant.ONE_WAY_POST and self is not Variant.ONE_WAY_PRE

    @property
    def second_sqec(self) -> bool:
        return self in (Variant.TWO_WAY_POST_SECOND_SQEC, Variant.TWO_WAY_PRE_SECOND_SQEC)

    @classmethod
    def from_label(cls, label: str) -> "Variant":
        for variant in cls:
            if variant.value == label:
                return variant
        raise ValueError(
            f"unknown protocol {label!r}; choose from "
            + ", ".join(v.value for v in cls)
        )


ALL_VARIANTS = tuple(Variant)


class NoCrossingError(ValueError):
    """Raised when two variants' error curves do not cross inside (0, 1)."""


@dataclass(frozen=True)
class ProtocolSpec:
    """Full parameterization of one repeater-chain configuration.

    n_qr is the number of repeater stations between the end points; the total
    distance is (n_qr + 1) * l0_km. There is no CC variant with a second
    error-correction round: the extra round makes the Bell-measurement inputs
    asymmetric, which the outcome-rescaling trick cannot handle, and the
    Variant enum encodes exactly the seven valid combinations.
    """

    variant: Variant
    n_qr: int
    l0_km: float
    squeezing: SqueezingSpec
    hrm: hrm_mod.HrmPolicy = hrm_mod.HrmPolicy(0.0)
    latt_km: float = DEFAULT_ATTENUATION_KM

    def __post_init__(self) -> None:
        if self.n_qr < 0:
            raise ValueError(f"n_qr must be nonnegative, got {self.n_qr}")
        if self.l0_km < 0:
            raise ValueError(f"l0_km must be nonnegative, got {self.l0_km}")
        if self.latt_km <= 0:
            raise ValueError(f"latt_km must be positive, got {self.latt_km}")

    @property
    def l_ab_km(self) -> float:
        """End-to-end distance (n_qr + 1) * l0_km."""
        return (self.n_qr + 1) * self.l0_km

    @property
    def eta(self) -> float:
        """Transmittance of one full segment."""
        return eta_from_distance(self.l0_km, self.latt_km)


@dataclass(frozen=True)
class SegmentErrors:
    """Per-segment logical error probabilities and HRM acceptance.

    ex and ez are equal for every implemented variant (the noise is symmetric
    in q and p); p_accept is the probability that one Bell measurement passes
    postselection, i.e. that both of its homodyne outcomes do.
    """

    ex: float
    ez: float
    p_accept: float

    def __post_init__(self) -> None:
        for name, value in (("ex", self.ex), ("ez", self.ez), ("p_accept", self.p_accept)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")


def segment_noise_variance(variant: Variant, eta: float) -> float:
    """Channel-noise part of the pre-correction variance (excludes teeth)."""
    if eta <= 0.0 or eta > 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    root = math.sqrt(eta)
    if variant is Variant.ONE_WAY_POST:
        return (1 - eta) / eta
    if variant is Variant.ONE_WAY_PRE:
        return 1 - eta
    if variant is Variant.TWO_WAY_POST:
        return 2 * (1 - root) / root
    if variant is Variant.TWO_WAY_PRE:
        return 2 - 2 * root
    if variant is Variant.TWO_WAY_CC:
        return (1 - root) / root
    if variant is Variant.TWO_WAY_POST_SECOND_SQEC:
        return (1 - root) / root
    return 1 - root  # TWO_WAY_PRE_SECOND_SQEC


def segment_variance(spec: ProtocolSpec) -> QuadVariance:
    """Pre-correction variance per measurement (per round if two rounds)."""
    total = 2 * spec.squeezing.sigma2 + segment_noise_variance(spec.variant, spec.eta)
    return QuadVariance.symmetric(total)


def segment_errors(spec: ProtocolSpec) -> SegmentErrors:
    """Logical error probabilities and acceptance for one repeater segment.

    Single-round variants fail with the postselected misidentification
    probability at the segment variance. Second-round variants fail when
    exactly one of the two (independent, equal-variance) correction rounds
    flips: 2*e*(1-e).
    """
    v = segment_variance(spec).sq
    delta = spec.hrm.delta
    e = hrm_mod.e_hrm(v, delta)
    accept = hrm_mod.p_suc(v, delta) ** 2
    if spec.variant.second_sqec:
        e = min(0.5, 2 * e * (1 - e))
    return SegmentErrors(ex=e, ez=e, p_accept=accept)


def chain_error(e_segment: float, n_qr: int) -> float:
    """Accumulated end-to-end flip probability over n_qr independent segments.

    An odd number of flips among n_qr segments survives:
        E_AB = (1 - (1 - 2*e)**n_qr) / 2.
    n_qr = 0 gives 0: the end points' own preparation and measurement are
    absorbed into the segment budget, so a repeaterless hop contributes no
    chain error under this convention.
    """
    if not 0.0 <= e_segment <= 0.5:
        raise ValueError(f"e_segment must be in [0, 1/2], got {e_segment}")
    if n_qr < 0:
        raise ValueError(f"n_qr must be nonnegative, got {n_qr}")
    return 0.5 * (1.0 - (1.0 - 2.0 * e_segment) ** n_qr)


def success_probability(spec: ProtocolSpec) -> float:
    """Probability that every postselected measurement in the chain passes.

    Each station consumes one Bell measurement (two homodyne outcomes), or two
    Bell measurements for the second-round variants, all at the segment's
    pre-correction variance: p_suc**(2*n_qr) or p_suc**(4*n_qr).
    """
    v = segment_variance(spec).sq
    per_outcome = hrm_mod.p_suc(v, spec.hrm.delta)
    exponent = (4 if spec.variant.second_sqec else 2) * spec.n_qr
    return per_outcome**exponent


def binary_entropy(x: float) -> float:
    """Binary entropy h(x) in bits, with h(0) = h(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def plob_bound(l_km: float, latt_km: float = DEFAULT_ATTENUATION_KM) -> float:
    """Repeaterless secret-key capacity -log2(1 - eta) at eta = exp(-L/L_att)."""
    eta = eta_from_distance(l_km, latt_km)
    if eta >= 1.0:
        return math.inf
    return max(0.0, -math.log2(1.0 - eta))


@dataclass(frozen=True)
class RatePoint:
    """End-to-end performance of one configuration."""

    distance_km: float
    ex_ab: float
    ez_ab: float
    p_suc: float
    rate: float
    plob: float


def secure_key_rate(spec: ProtocolSpec) -> RatePoint:
    """Secure key rate R = max(0, P_suc * (1 - h(E_AB^X) - h(E_AB^Z))).

    E_AB^X = E_AB^Z accumulate over the chain; P_suc is the all-measurements-
    accepted probability (1 when delta = 0). The PLOB repeaterless bound at
    the same total distance is attached for comparison.
    """
    return _rate_point(spec, segment_errors(spec))


def _rate_point(spec: ProtocolSpec, errs: SegmentErrors) -> RatePoint:
    """secure_key_rate for a caller that already holds segment_errors(spec)."""
    e_ab = chain_error(errs.ex, spec.n_qr)
    ps = success_probability(spec)
    rate = ps * (1.0 - binary_entropy(e_ab) - binary_entropy(e_ab))
    return RatePoint(
        distance_km=spec.l_ab_km,
        ex_ab=e_ab,
        ez_ab=e_ab,
        p_suc=ps,
        rate=max(0.0, rate),
        plob=plob_bound(spec.l_ab_km, spec.latt_km),
    )


def crossover_eta(
    variant_a: Variant,
    variant_b: Variant,
    sigma2: float = 0.0,
    tol: float = 1e-10,
) -> float:
    """Transmittance at which two single-round variants' error curves cross.

    Because the postselected error is strictly increasing in the
    pre-correction variance, the error curves cross exactly where the
    variances do, so the root is found by bisecting the variance gap; this
    avoids root-finding through quadrature noise. Both variances share the
    same 2*sigma2 tooth term, so the crossing point does not depend on
    sigma2.

    Raises NoCrossingError if the gap has constant sign on (0, 1).
    """
    if variant_a.second_sqec or variant_b.second_sqec:
        raise ValueError("crossover_eta compares single-round variants only")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")

    def gap(eta: float) -> float:
        return segment_noise_variance(variant_a, eta) - segment_noise_variance(
            variant_b, eta
        )

    lo, hi = 1e-9, 1.0 - 1e-12
    grid = [lo + (hi - lo) * i / 4096 for i in range(4097)]
    bracket = None
    prev_eta, prev_gap = grid[0], gap(grid[0])
    for eta in grid[1:]:
        g = gap(eta)
        if g == 0.0:
            return eta
        if prev_gap * g < 0:
            bracket = (prev_eta, eta)
            break
        prev_eta, prev_gap = eta, g
    if bracket is None:
        raise NoCrossingError(
            f"no crossing: {variant_a.value} vs {variant_b.value} variance gap "
            "has constant sign on (0, 1)"
        )
    a, b = bracket
    ga = gap(a)
    while b - a > tol:
        mid = 0.5 * (a + b)
        gm = gap(mid)
        if gm == 0.0:
            return mid
        if ga * gm < 0:
            b = mid
        else:
            a, ga = mid, gm
    return 0.5 * (a + b)
