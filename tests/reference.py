"""Reference implementations used only by the tests.

The package computes neither the single-interval error nor a majority vote by
enumeration on any path: the lattice sums of :mod:`gkp_repeater.hrm` replace
the former, and the tree code evaluates majority votes in closed form. Both
stay here as independent oracles for the code that does. The lattice sums
themselves are checked against :func:`lattice_mass_mp`, the same windows
summed at 60 digits with mpmath, which is imported only when it is called.
The ``*_mp`` composition forms below write each 1 - product of independent
survivals literally, as the docstrings of :mod:`gkp_repeater.tree_code` and
``protocols.chain_error`` state it, and return mpmath numbers good to at
least 60 significant digits.
"""

import math
from itertools import product

from gkp_repeater.noise_core import SQRT_PI


def pfail(sigma2: float) -> float:
    """Probability of misidentifying the bit value of a GKP qubit.

    This is the mass of a centered Gaussian of variance sigma2 lying outside
    the central bin [-sqrt(pi)/2, +sqrt(pi)/2]:

        pfail = 1 - integral_{-sqrt(pi)/2}^{+sqrt(pi)/2} N(0, sigma2)
              = erfc( sqrt(pi) / (2 * sqrt(2 * sigma2)) )

    This single-interval form counts any excursion past the first bin
    boundary as an error; the mod-sqrt(pi) lattice sums of
    :mod:`gkp_repeater.hrm` credit displacements landing in a farther even
    bin. The two agree to double precision for small variance and diverge
    for sigma2 approaching 1/2.
    """
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    if sigma2 == 0:
        return 0.0
    p = math.erfc(SQRT_PI / (2.0 * math.sqrt(2.0 * sigma2)))
    return min(1.0, max(0.0, p))


def lattice_mass_mp(sigma2: float, delta: float, odd: bool) -> float:
    """Lattice sum of :mod:`gkp_repeater.hrm` at 60 significant digits.

    The same windows, centered on the multiples of the package's SQRT_PI with
    half-width SQRT_PI/2 - delta, and the same erfc-tail forms, summed over
    |k| <= ceil(12*sigma/sqrt(pi)) + 3 with mpmath. erfc tails, not erf
    differences, keep the far windows' masses exact at small variance.
    """
    import mpmath

    with mpmath.workdps(60):
        spacing = mpmath.mpf(SQRT_PI)
        half_width = spacing / 2 - mpmath.mpf(delta)
        scale = mpmath.sqrt(2 * mpmath.mpf(sigma2))
        kmax = math.ceil(12.0 * math.sqrt(sigma2) / SQRT_PI) + 3
        total = mpmath.mpf(0)
        for k in range(-kmax, kmax + 1):
            center = (2 * k + 1) * spacing if odd else 2 * k * spacing
            lo = (center - half_width) / scale
            hi = (center + half_width) / scale
            if lo >= 0:
                total += (mpmath.erfc(lo) - mpmath.erfc(hi)) / 2
            elif hi <= 0:
                total += (mpmath.erfc(-hi) - mpmath.erfc(-lo)) / 2
            else:
                total += 1 - mpmath.erfc(hi) / 2 - mpmath.erfc(-lo) / 2
        return float(total)


def enumerate_majority3(e: float) -> float:
    """Exact majority-vote failure by summing all 2**3 flip patterns."""
    total = 0.0
    for pattern in product((0, 1), repeat=3):
        if sum(pattern) >= 2:
            prob = 1.0
            for bit in pattern:
                prob *= e if bit else (1.0 - e)
            total += prob
    return total


#: Working digits of the composition forms. 1 - x then resolves every x down
#: to 1e-640, so inputs down to 1e-300, whose quadratic terms reach 1e-600,
#: keep 60 significant digits through the literal, cancelling forms.
COMPOSITION_DPS = 700


def majority3_mp(e):
    """Majority-of-three failure 3 e**2 (1 - e) + e**3."""
    import mpmath

    with mpmath.workdps(COMPOSITION_DPS):
        e = mpmath.mpf(e)
        return 3 * e**2 * (1 - e) + e**3


def encoded_x_error_mp(e_single):
    """E_X = 1 - (1 - majority3(e_single))**3."""
    import mpmath

    with mpmath.workdps(COMPOSITION_DPS):
        return 1 - (1 - majority3_mp(e_single)) ** 3


def encoded_z_error_mp(e_single):
    """E_Z = majority3(p_block), p_block = 1 - (1 - e_single)**4."""
    import mpmath

    with mpmath.workdps(COMPOSITION_DPS):
        return majority3_mp(1 - (1 - mpmath.mpf(e_single)) ** 4)


def repeater_error_mp(components):
    """E_QR = 1 - (1 - e_leaf)(1 - e_prep)(1 - E_X)(1 - E_Z)**4 of a
    ``tree_code.ComponentErrors``."""
    import mpmath

    with mpmath.workdps(COMPOSITION_DPS):
        e_x = encoded_x_error_mp(components.e_single)
        e_z = encoded_z_error_mp(components.e_single)
        survive = (1 - mpmath.mpf(components.e_leaf)) * (1 - mpmath.mpf(components.e_prep))
        return 1 - survive * (1 - e_x) * (1 - e_z) ** 4


def station_acceptance_mp(p_pair, n_pairs):
    """At least one of n_pairs pairs passes: 1 - (1 - p_pair)**n_pairs."""
    import mpmath

    with mpmath.workdps(COMPOSITION_DPS):
        return 1 - (1 - mpmath.mpf(p_pair)) ** n_pairs


def chain_error_mp(e, n_qr):
    """Odd number of flips over n_qr segments: (1 - (1 - 2e)**n_qr) / 2."""
    import mpmath

    with mpmath.workdps(COMPOSITION_DPS):
        return (1 - (1 - 2 * mpmath.mpf(e)) ** n_qr) / 2
