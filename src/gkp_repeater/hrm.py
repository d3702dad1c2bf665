"""Postselected homodyne binning statistics (highly reliable measurement).

A homodyne outcome is reduced to its nearest multiple of sqrt(pi); the parity
of that multiple is the decoded bit, and the signed residue Delta_m is the
measured deviation. Postselection keeps only outcomes with
|Delta_m| < v_up = sqrt(pi)/2 - delta, discarding the unreliable band of width
delta on each side of every bin boundary.

For a true deviation distributed as N(0, sigma2), the accepted-and-correct and
accepted-but-incorrect masses are lattice sums over the even- and odd-centered
windows:

    p_cor = sum_k  mass( [2k*sqrt(pi) - w, 2k*sqrt(pi) + w] )
    p_in  = sum_k  mass( [(2k+1)*sqrt(pi) - w, (2k+1)*sqrt(pi) + w] )

with half-width w = sqrt(pi)/2 - delta. The conditional misidentification
probability is e_hrm = 1 - p_cor/(p_cor + p_in) and the acceptance probability
is p_suc = p_cor + p_in. At delta = 0 the windows tile the line, p_suc = 1,
and e_hrm reduces to the unpostselected lattice-sum error.

Both sums come from one pass over the right half-line: the window at
-k*sqrt(pi) mirrors the one at +k*sqrt(pi), so the central window is taken
once and each other window k*sqrt(pi) +- w counts twice in the sum of its
parity. The one image rule, in :func:`residue_law`, keeps k while
k(k - 1) pi / (2 sigma2) <= 150: a window left out holds below e**-150 of
its parity's nearest one. Off-center window masses are erfc tail differences
rather than erf differences, so that probabilities down to ~1e-300 survive
without catastrophic cancellation.

The module needs only the standard library: the tails come from
:func:`math.erfc`, and :func:`math.fsum` adds the window masses with a single
rounding. A tail that falls below 2.2e-308 survives as a subnormal, with
fewer significant bits. Windows narrower than ~1e-8 cancel to masses of a few
bits, and a few ulps wide keep only an absolute accuracy of ~1e-16. The
rule's e**-150 keeps even those sums equal to the full-line sum bit for bit;
at e**-50, ~0.7% of them at sigma2 from 0.2 to 2 would be an ulp off. The
tests check the sums against a 60-digit mpmath form of the same windows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .noise_core import SQRT_PI, _require

@dataclass(frozen=True)
class HrmPolicy:
    """Postselection margin delta and the derived acceptance cutoff v_up."""

    delta: float = 0.0

    def __post_init__(self) -> None:
        _validate(0.0, self.delta)

    @property
    def v_up(self) -> float:
        """Acceptance cutoff; v_up + delta = sqrt(pi)/2 by construction."""
        return SQRT_PI / 2 - self.delta


def _validate(sigma2: float, delta: float) -> None:
    _require("sigma2", sigma2, "be nonnegative", sigma2 >= 0)
    _require("delta", delta, "lie in [0, sqrt(pi)/2)", 0.0 <= delta < SQRT_PI / 2)


# Distinct (sigma2, delta) pairs kept per command, and at most as many
# variances. The recipes need 1,020 (bare key rates), 102 (segment errors)
# and 5 (tree key rates), and `resources --mode path-selection` 4.
_LATTICE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def residue_law(sigma2: float):
    """(inside, tail, densities) of an N(0, sigma2) outcome's residue x in
    [0, sqrt(pi)/2], its distance from the nearest k*sqrt(pi), of k's parity.
    Over the same images k*sqrt(pi), for sigma2 > 0:

    * ``inside(y)``: the (even, odd) masses of x <= y, by :func:`math.fsum`;
    * ``tail(y)``: U(y) = P(x > y), erfc tail masses of the windows' sides,
      never 1 minus a CDF, so that it keeps its relative accuracy when tiny;
    * ``densities(x)``: (e(x), o(x)), sums of Gaussians at k*sqrt(pi) +- x,
      both 1/sqrt(pi) from the uniform limit on.
    """
    a = SQRT_PI / 2
    # From this uniform limit on, the wrapped Gaussian is uniform on the
    # 2*sqrt(pi) period to double precision (theta-function tail below
    # exp(-pi * 400 / 2)). Below it the image rule keeps at most 195 images.
    if sigma2 >= 400.0:
        flat = 1.0 / SQRT_PI
        return (lambda y: (y / SQRT_PI, y / SQRT_PI)), (lambda y: (a - y) / a), (lambda x: (flat, flat))
    erfc, exp, fsum = math.erfc, math.exp, math.fsum
    # The image rule of the module docstring, solved for k; where rounding
    # tips k_max on its boundary, the image it moves is below e**-150.
    k_max = int(0.5 + math.sqrt(0.25 + 300.0 * sigma2 / math.pi))
    centers = [k * SQRT_PI for k in range(1, k_max + 1)]
    # The masses scale by sigma * sqrt(2) and the tail by sqrt(2 sigma2); the
    # two differ in the last bit, and each is the one its printed rows pin.
    mass_scale = math.sqrt(sigma2) * math.sqrt(2.0)
    scale = math.sqrt(2.0 * sigma2)

    def inside(y: float) -> tuple[float, float]:
        outside = 0.5 * erfc(y / mass_scale)
        masses = ([1.0 - outside - outside], [])
        for k, c in enumerate(centers, 1):
            mass = 0.5 * (erfc((c - y) / mass_scale) - erfc((c + y) / mass_scale))
            # The window at -c has the same mass: count it twice.
            masses[k % 2].append(mass + mass)
        return min(1.0, fsum(masses[0])), min(1.0, fsum(masses[1]))

    # Window k*sqrt(pi) +- a holds the outcomes whose residue is measured
    # from k*sqrt(pi); x > y on its two sides (c - a, c - y) and (c + y, c + a).
    central = erfc(a / scale)
    windows = []  # filled by the first tail call: mass-only callers skip it

    def tail(y: float) -> float:
        if not windows:
            windows[:] = [(c / scale, erfc((c - a) / scale), erfc((c + a) / scale)) for c in centers]
        y = y / scale
        total = erfc(y) - central
        for c, inner, outer in windows:
            total += (inner - erfc(c - y)) + (erfc(c + y) - outer)
        return total

    # The images at -k*sqrt(pi) mirror those at +k*sqrt(pi), hence the 2.
    norm = 2.0 / math.sqrt(2.0 * math.pi * sigma2)
    rate = -0.5 / sigma2
    even, odd = centers[1::2], centers[::2]

    def densities(x: float) -> tuple[float, float]:
        e = exp(rate * x * x)
        for c in even:
            d, u = c - x, c + x
            e += exp(rate * d * d) + exp(rate * u * u)
        o = 0.0
        for c in odd:
            d, u = c - x, c + x
            o += exp(rate * d * d) + exp(rate * u * u)
        return norm * e, norm * o

    return inside, tail, densities


@functools.lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def _lattice_masses(sigma2: float, delta: float) -> tuple[float, float]:
    """(p_cor, p_in) at one variance and margin, validated before caching."""
    _validate(sigma2, delta)
    if sigma2 == 0.0:
        # Degenerate point mass at the origin: always inside the central
        # correct window (half-width > 0), never in an odd window.
        return 1.0, 0.0
    inside, _, _ = residue_law(sigma2)
    return inside(SQRT_PI / 2 - delta)


#: Memoized kernels that live for one command: cli.main clears each at the
#: start of a command, so an in-process command does the same work as a cold
#: one. A module that loads later appends its own (tree_code's leaf error).
COMMAND_CACHES = [residue_law, _lattice_masses]


def p_cor(sigma2: float, delta: float = 0.0) -> float:
    """Probability that the true deviation falls in a correct-parity window."""
    return _lattice_masses(sigma2, delta)[0]


def p_in(sigma2: float, delta: float = 0.0) -> float:
    """Probability that the true deviation falls in a wrong-parity window."""
    return _lattice_masses(sigma2, delta)[1]


def e_hrm(sigma2: float, delta: float = 0.0) -> float:
    """Misidentification probability conditioned on acceptance.

    e_hrm = p_in / (p_cor + p_in), one memo read: the unpostselected error at
    delta = 0, falling as delta grows. Each correct window sits nearer the
    origin than its incorrect one: e_hrm <= 1/2, huge-sigma2 roundoff clamped.
    """
    pc, pi_ = _lattice_masses(sigma2, delta)
    total = pc + pi_
    if total == 0.0:
        return 0.0
    return min(0.5, pi_ / total)


def p_suc(sigma2: float, delta: float = 0.0) -> float:
    """Acceptance probability p_cor + p_in, from one validated memo read.

    Exactly 1 at delta = 0, where the windows tile the real line.
    """
    pc, pi_ = _lattice_masses(sigma2, delta)
    if delta == 0.0:
        return 1.0
    return min(1.0, pc + pi_)
