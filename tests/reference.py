"""Reference implementations used only by the tests.

The package computes neither of these quantities on any path: the lattice
sums of :mod:`gkp_repeater.hrm` replace the single-interval error, and the
tree code evaluates majority votes in closed form. Both stay here as
independent oracles for the code that does.
"""

import math
from itertools import product

from gkp_repeater.noise_core import SQRT_PI, _erfc


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
    p = _erfc(SQRT_PI / (2.0 * math.sqrt(2.0 * sigma2)))
    return min(1.0, max(0.0, p))


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
