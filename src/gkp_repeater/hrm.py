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

Both sums come from one pass over the right half-line. The window centered
at -j*sqrt(pi) mirrors the one at +j*sqrt(pi), so the central window is
taken once and each window j*sqrt(pi) +- w, for j = 1 ... 2*kmax + 1 with
kmax = ceil(10*sigma/sqrt(pi)) + 2, is counted twice in the sum of the
parity of j. Every omitted window, and the one extra odd window at
-(2*kmax + 1)*sqrt(pi), is below 1e-18 of the total mass. Off-center window
masses are erfc tail differences rather than erf differences, so that
probabilities down to ~1e-300 survive without catastrophic cancellation.

The module needs only the standard library: the tails come from
:func:`math.erfc`, and :func:`math.fsum` adds the window masses with a single
rounding. A tail that falls below 2.2e-308 survives as a subnormal, with
fewer significant bits. With delta within a few ulps of sqrt(pi)/2 each
window is that narrow, and its erfc difference keeps only an absolute
accuracy of ~1e-16. The tests check the sums against a 60-digit mpmath form
of the same windows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .noise_core import SQRT_PI, _require

# Beyond this tooth variance the wrapped Gaussian is uniform on the 2*sqrt(pi)
# period to double precision (theta-function tail < exp(-pi * 400 / 2)).
# Below it kmax <= ceil(10*20/sqrt(pi)) + 2 = 115, so a sum has at most 231
# windows.
_UNIFORM_LIMIT_SIGMA2 = 400.0


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


# Distinct (sigma2, delta) pairs kept per command. The recipes need 1,020
# (bare key rates), 102 (segment errors) and 5 (tree key rates), and
# `resources --mode path-selection` 4.
_LATTICE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_LATTICE_CACHE_SIZE)
def _lattice_masses(sigma2: float, delta: float) -> tuple[float, float]:
    """(p_cor, p_in): the even- and odd-window sums at one variance and margin."""
    half_width = SQRT_PI / 2 - delta
    if sigma2 == 0.0:
        # Degenerate point mass at the origin: always inside the central
        # correct window (half_width > 0), never in an odd window.
        return 1.0, 0.0
    if sigma2 >= _UNIFORM_LIMIT_SIGMA2:
        return half_width / SQRT_PI, half_width / SQRT_PI
    erfc = math.erfc
    sigma = math.sqrt(sigma2)
    scale = sigma * math.sqrt(2.0)
    kmax = math.ceil(10.0 * sigma / SQRT_PI) + 2
    tail = 0.5 * erfc(half_width / scale)
    masses = ([1.0 - tail - tail], [])
    for j in range(1, 2 * kmax + 2):
        center = j * SQRT_PI
        mass = 0.5 * (erfc((center - half_width) / scale) - erfc((center + half_width) / scale))
        # The window at -center has the same mass: count it twice.
        masses[j % 2].append(mass + mass)
    return min(1.0, math.fsum(masses[0])), min(1.0, math.fsum(masses[1]))


#: Memoized kernels that live for one command: cli.main clears each at the
#: start of a command, so an in-process command does the same work as a cold
#: one. A module that loads later appends its own (tree_code's leaf error).
COMMAND_CACHES = [_lattice_masses]


def p_cor(sigma2: float, delta: float = 0.0) -> float:
    """Probability that the true deviation falls in a correct-parity window."""
    _validate(sigma2, delta)
    return _lattice_masses(sigma2, delta)[0]


def p_in(sigma2: float, delta: float = 0.0) -> float:
    """Probability that the true deviation falls in a wrong-parity window."""
    _validate(sigma2, delta)
    return _lattice_masses(sigma2, delta)[1]


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
