"""Per-segment variance budgets, logical error rates, and secure key rates
for the bare-GKP repeater chain variants.

Every variant follows the same template: GKP qubits (tooth variance sigma2)
cross a fiber segment, loss is converted to additive Gaussian noise by one of
the amplification strategies, and teleportation-based error correction at each
repeater station performs a homodyne Bell measurement whose outcomes carry the
accumulated deviation. The per-measurement variance just before the ideal
mod-sqrt(pi) correction is what sets the logical error rate.

The variants differ only in one row of data (:class:`Variant`): the
amplification mode, whether each Bell-measurement input crosses the full
segment (transmittance eta) or half of it (sqrt(eta)), how many of the two
inputs carry channel noise, and how many correction rounds a station runs.
The pre-correction variance per measurement (per round if two rounds) is

    2*sigma2 + noisy_inputs * amplifier_added_variance(eta_in, mode)

with eta_in = sqrt(eta) for a half segment and eta otherwise:

    variant             mode     segment  inputs  rounds  channel noise
    one-way-post        POST     full     1       1       (1-eta)/eta
    one-way-pre         PRE      full     1       1       1-eta
    two-way-post        POST     half     2       1       2*(1-sqrt(eta))/sqrt(eta)
    two-way-pre         PRE      half     2       1       2 - 2*sqrt(eta)
    two-way-cc          CC_PAIR  half     2       1       (1-sqrt(eta))/sqrt(eta)
    two-way-post-2sqec  POST     half     1       2       (1-sqrt(eta))/sqrt(eta)
    two-way-pre-2sqec   PRE      half     1       2       1 - sqrt(eta)

The 2*sigma2 is the input tooth plus the error-correction ancilla tooth. In
plain two-way variants both Bell-measurement inputs have been transmitted, so
the channel term counts twice. The second-round variants insert an extra,
locally prepared Bell pair at each station so only one input per measurement
is noisy, at the cost of two error opportunities per station.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import hrm as hrm_mod
from .noise_core import (
    DEFAULT_ATTENUATION_KM,
    AmplifierMode,
    SqueezingSpec,
    amplifier_added_variance,
    eta_from_distance,
)


class Variant(Enum):
    """Protocol variants, one row of the variance table each.

    ``value`` is the CLI spelling. The rest of the row: the amplification
    ``mode``, whether each input crosses only ``half_segment`` of fiber, how
    many Bell-measurement inputs carry channel noise (``noisy_inputs``) and
    how many correction ``rounds`` a station runs.
    """

    ONE_WAY_POST = ("one-way-post", AmplifierMode.POST, False, 1, 1)
    ONE_WAY_PRE = ("one-way-pre", AmplifierMode.PRE, False, 1, 1)
    TWO_WAY_POST = ("two-way-post", AmplifierMode.POST, True, 2, 1)
    TWO_WAY_PRE = ("two-way-pre", AmplifierMode.PRE, True, 2, 1)
    TWO_WAY_CC = ("two-way-cc", AmplifierMode.CC_PAIR, True, 2, 1)
    TWO_WAY_POST_SECOND_SQEC = ("two-way-post-2sqec", AmplifierMode.POST, True, 1, 2)
    TWO_WAY_PRE_SECOND_SQEC = ("two-way-pre-2sqec", AmplifierMode.PRE, True, 1, 2)

    def __new__(cls, label, mode, half_segment, noisy_inputs, rounds):
        member = object.__new__(cls)
        member._value_ = label
        member.mode = mode
        member.half_segment = half_segment
        member.noisy_inputs = noisy_inputs
        member.rounds = rounds
        return member

    @property
    def second_sqec(self) -> bool:
        return self.rounds == 2

    def input_noise(self, eta: float) -> float:
        """Channel noise carried by one noisy input, for segment transmittance eta."""
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {eta}")
        return amplifier_added_variance(math.sqrt(eta) if self.half_segment else eta, self.mode)


ALL_VARIANTS = tuple(Variant)

#: Construction margin used for the HRM-checked fusions when assembling the
#: tree code's encoded cluster (:mod:`gkp_repeater.tree_code`). sqrt(pi)/6
#: keeps the construction error floor a few 1e-6 per cluster at 15 dB,
#: matching the regime the encoded protocol targets. It is defined here so
#: that the command-line defaults do not load the tree module.
DEFAULT_PREP_DELTA = math.sqrt(math.pi) / 6


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
    in q and p); p_suc is the probability that one homodyne outcome passes
    postselection.
    """

    ex: float
    ez: float
    p_suc: float

    def __post_init__(self) -> None:
        for name, value in (("ex", self.ex), ("ez", self.ez), ("p_suc", self.p_suc)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")

    @property
    def p_accept(self) -> float:
        """Probability that one Bell measurement passes: both outcomes do."""
        return self.p_suc**2


def segment_noise_variance(variant: Variant, eta: float) -> float:
    """Channel-noise part of the pre-correction variance (excludes teeth)."""
    return variant.noisy_inputs * variant.input_noise(eta)


def segment_variance(spec: ProtocolSpec) -> float:
    """Pre-correction variance per measurement (per round if two rounds)."""
    return 2 * spec.squeezing.sigma2 + segment_noise_variance(spec.variant, spec.eta)


def segment_errors(spec: ProtocolSpec) -> SegmentErrors:
    """Logical error probabilities and acceptance for one repeater segment.

    Single-round variants fail with the postselected misidentification
    probability at the segment variance. Second-round variants fail when
    exactly one of the two (independent, equal-variance) correction rounds
    flips: 2*e*(1-e).
    """
    v = segment_variance(spec)
    delta = spec.hrm.delta
    e = hrm_mod.e_hrm(v, delta)
    if spec.variant.second_sqec:
        e = min(0.5, 2 * e * (1 - e))
    return SegmentErrors(ex=e, ez=e, p_suc=hrm_mod.p_suc(v, delta))


def chain_error(e_segment: float, n_qr: int) -> float:
    """Accumulated end-to-end flip probability over n_qr independent segments.

    An odd number of flips among n_qr segments survives:
        E_AB = (1 - (1 - 2*e)**n_qr) / 2,
    evaluated as -expm1(n_qr * log1p(-2e)) / 2 so that small e does not cancel.
    n_qr = 0 gives 0: the end points' own preparation and measurement are
    absorbed into the segment budget, so a repeaterless hop contributes no
    chain error under this convention.
    """
    if not 0.0 <= e_segment <= 0.5:
        raise ValueError(f"e_segment must be in [0, 1/2], got {e_segment}")
    if n_qr < 0:
        raise ValueError(f"n_qr must be nonnegative, got {n_qr}")
    if n_qr == 0 or e_segment == 0.0:
        return 0.0  # the log form would give -0.0
    if e_segment == 0.5:
        return 0.5  # log1p(-1) is a domain error
    return -0.5 * math.expm1(n_qr * math.log1p(-2.0 * e_segment))


def binary_entropy(x: float) -> float:
    """Binary entropy h(x) in bits, with h(0) = h(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def plob_bound(l_km: float, latt_km: float = DEFAULT_ATTENUATION_KM) -> float:
    """Repeaterless secret-key capacity -log2(1 - eta) at eta = exp(-L/L_att),
    evaluated as -log1p(-eta) / ln 2 so that it does not round to 0 at long
    distances."""
    eta = eta_from_distance(l_km, latt_km)
    if eta >= 1.0:
        return math.inf
    return -math.log1p(-eta) / math.log(2.0)


@dataclass(frozen=True)
class RatePoint:
    """End-to-end performance of one configuration.

    e_segment is the error one segment (bare chains) or one station (tree
    chains) contributes to the chain error ex_ab = ez_ab.
    """

    distance_km: float
    e_segment: float
    ex_ab: float
    ez_ab: float
    p_suc: float
    rate: float
    plob: float


def secure_key_rate(spec: ProtocolSpec) -> RatePoint:
    """Secure key rate R = max(0, P_suc * (1 - h(E_AB^X) - h(E_AB^Z))).

    E_AB^X = E_AB^Z accumulate over the chain. P_suc is the probability that
    every postselected outcome of the chain is accepted: each station runs
    one Bell measurement (two outcomes) per correction round, so
    P_suc = p_suc**(2 * rounds * n_qr), which is 1 when delta = 0. The PLOB
    repeaterless bound at the same total distance is attached for comparison.
    """
    errs = segment_errors(spec)
    e_ab = chain_error(errs.ex, spec.n_qr)
    ps = errs.p_suc ** (2 * spec.variant.rounds * spec.n_qr)
    rate = ps * (1.0 - binary_entropy(e_ab) - binary_entropy(e_ab))
    return RatePoint(
        distance_km=spec.l_ab_km,
        e_segment=errs.ex,
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
