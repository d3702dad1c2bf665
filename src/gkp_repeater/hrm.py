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

The sums run over |k| <= ceil(10*sigma/sqrt(pi)) + 2, which keeps every
omitted term below 1e-18 of the total mass. Interval masses are evaluated
from erfc tail differences rather than erf differences so that probabilities
down to ~1e-300 survive without catastrophic cancellation.

The module needs only the standard library. erfc is the Cephes ndtr.c port in
:mod:`gkp_repeater.noise_core`. The window masses fall into three groups:
windows right of the origin, left of it, and the one containing it. Each
group is summed in NumPy's float64 pairwise order (see :func:`_pairwise_sum`),
so every lattice sum equals the NumPy array form bit for bit; the tests keep
that form as the reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .noise_core import SQRT_PI, _erfc

# Beyond this tooth variance the wrapped Gaussian is uniform on the 2*sqrt(pi)
# period to double precision (theta-function tail < exp(-pi * 400 / 2)).
# Below it kmax <= ceil(10*20/sqrt(pi)) + 2 = 115, so a window group holds at
# most 116 terms and _pairwise_sum never needs NumPy's recursive branch.
_UNIFORM_LIMIT_SIGMA2 = 400.0


@dataclass(frozen=True)
class HrmPolicy:
    """Postselection margin delta and the derived acceptance cutoff v_up."""

    delta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < SQRT_PI / 2:
            raise ValueError(
                f"delta must lie in [0, sqrt(pi)/2), got {self.delta}"
            )

    @property
    def v_up(self) -> float:
        """Acceptance cutoff; v_up + delta = sqrt(pi)/2 by construction."""
        return SQRT_PI / 2 - self.delta


def _validate(sigma2: float, delta: float) -> None:
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    if not 0.0 <= delta < SQRT_PI / 2:
        raise ValueError(f"delta must lie in [0, sqrt(pi)/2), got {delta}")


def _pairwise_sum(terms: list[float]) -> float:
    """Sum up to 128 floats in the order of NumPy's float64 ``np.sum``.

    Fewer than 8 terms add in sequence; otherwise eight strided accumulators
    combine as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and the remainder follows,
    all added to the reduction's starting 0.0. Beyond 128 terms NumPy would
    split the array in halves; this loop keeps going, so it is still a sum,
    just in another order.
    """
    n = len(terms)
    if n < 8:
        total = 0.0
        for t in terms:
            total += t
        return total
    r = terms[:8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        for j in range(8):
            r[j] += terms[i + j]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for t in terms[tail:]:
        total += t
    return 0.0 + total


def _window_mass(centers: list[float], half_width: float, sigma: float) -> float:
    """Total N(0, sigma^2) mass of the windows centers[i] +- half_width.

    Intervals not containing the origin are computed as differences of erfc
    tails, which stay accurate for masses far below double epsilon of 1.
    """
    erfc = _erfc
    scale = sigma * math.sqrt(2.0)
    pos, neg, mid = [], [], []
    for c in centers:
        lo = (c - half_width) / scale
        hi = (c + half_width) / scale
        if lo >= 0:
            pos.append(erfc(lo) - erfc(hi))
        elif hi <= 0:
            neg.append(erfc(-hi) - erfc(-lo))
        else:
            mid.append(1.0 - 0.5 * erfc(hi) - 0.5 * erfc(-lo))
    total = 0.0
    if pos:
        total += 0.5 * _pairwise_sum(pos)
    if neg:
        total += 0.5 * _pairwise_sum(neg)
    if mid:
        total += _pairwise_sum(mid)
    return total


# Distinct (sigma2, delta, parity) lattice sums kept per command; the bare
# key-rate recipe needs 2,040.
_LATTICE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def _lattice_mass(sigma2: float, delta: float, odd: bool) -> float:
    half_width = SQRT_PI / 2 - delta
    if sigma2 == 0.0:
        # Degenerate point mass at the origin: always inside the central
        # correct window (half_width > 0), never in an odd window.
        return 0.0 if odd else 1.0
    if sigma2 >= _UNIFORM_LIMIT_SIGMA2:
        return half_width / SQRT_PI
    sigma = math.sqrt(sigma2)
    kmax = math.ceil(10.0 * sigma / SQRT_PI) + 2
    ks = range(-kmax, kmax + 1)
    centers = [(2.0 * k + 1.0) * SQRT_PI if odd else 2.0 * k * SQRT_PI for k in ks]
    return min(1.0, _window_mass(centers, half_width, sigma))


#: Memoized kernels that live for one command: cli.main clears each at the
#: start of a command, so an in-process command does the same work as a cold
#: one. A module that loads later appends its own (tree_code's leaf error).
COMMAND_CACHES = [_lattice_mass]


def p_cor(sigma2: float, delta: float = 0.0) -> float:
    """Probability that the true deviation falls in a correct-parity window."""
    _validate(sigma2, delta)
    return _lattice_mass(sigma2, delta, odd=False)


def p_in(sigma2: float, delta: float = 0.0) -> float:
    """Probability that the true deviation falls in a wrong-parity window."""
    _validate(sigma2, delta)
    return _lattice_mass(sigma2, delta, odd=True)


def e_hrm(sigma2: float, delta: float = 0.0) -> float:
    """Misidentification probability conditioned on acceptance.

    e_hrm = 1 - p_cor / (p_cor + p_in). Equals the unpostselected lattice-sum
    error at delta = 0 and decreases as the margin delta grows. The correct
    windows sit nearer the origin than the incorrect ones bin for bin, so the
    value never exceeds 1/2; roundoff at enormous variances is clamped.
    """
    pc = p_cor(sigma2, delta)
    pi_ = p_in(sigma2, delta)
    total = pc + pi_
    if total == 0.0:
        return 0.0
    return min(0.5, pi_ / total)


def p_suc(sigma2: float, delta: float = 0.0) -> float:
    """Acceptance probability of the postselected measurement, p_cor + p_in.

    Exactly 1 at delta = 0, where the windows tile the real line.
    """
    _validate(sigma2, delta)
    if delta == 0.0:
        return 1.0
    return min(1.0, p_cor(sigma2, delta) + p_in(sigma2, delta))
