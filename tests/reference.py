"""Reference implementations used only by the tests.

The package computes neither the single-interval error nor a majority vote by
enumeration on any path: the lattice sums of :mod:`gkp_repeater.hrm` replace
the former, and the tree code evaluates majority votes and the encoded
bit-flip-protected error in closed form. The enumerations stay here as
independent oracles for the code that does. The lattice sums
themselves are checked bit for bit against :func:`reference_lattice_mass`,
the former full-line float sum of every window, and to 1e-12 against
:func:`lattice_mass_mp`, the same windows summed at 60 digits with mpmath,
which is imported only when it is called; :func:`residue_tail_mp` takes the
residue tail from the same sums. :func:`segment_errors_mp` builds a
segment's error and acceptance from those 60-digit sums, and
:func:`key_rate_mp` a bare chain's P_suc and R from a segment's;
:func:`plob_mp` is the repeaterless bound at 60 digits.
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


def reference_lattice_mass(sigma2: float, delta: float, odd: bool) -> float:
    """Lattice sum of :mod:`gkp_repeater.hrm` as one float pass over the whole
    line: every window of one parity on either side of the origin, each
    through the erfc form of its side, added by :func:`math.fsum`."""
    half_width = SQRT_PI / 2 - delta
    if sigma2 == 0.0:
        return 0.0 if odd else 1.0
    if sigma2 >= 400.0:
        return half_width / SQRT_PI
    sigma = math.sqrt(sigma2)
    kmax = math.ceil(10.0 * sigma / SQRT_PI) + 2
    ks = range(-kmax, kmax + 1)
    centers = [(2.0 * k + 1.0) * SQRT_PI if odd else 2.0 * k * SQRT_PI for k in ks]
    erfc = math.erfc
    scale = sigma * math.sqrt(2.0)
    masses = []
    for c in centers:
        lo = (c - half_width) / scale
        hi = (c + half_width) / scale
        if lo >= 0:
            masses.append(0.5 * (erfc(lo) - erfc(hi)))
        elif hi <= 0:
            masses.append(0.5 * (erfc(-hi) - erfc(-lo)))
        else:
            masses.append(1.0 - 0.5 * erfc(hi) - 0.5 * erfc(-lo))
    return min(1.0, math.fsum(masses))


def normal_window_mass(lo: float, hi: float) -> float:
    """P(lo <= |z| < hi) of a standard normal z, for 0 <= lo <= hi <= inf,
    in the erfc form of the windows right of the origin above."""
    return math.erfc(lo / math.sqrt(2.0)) - math.erfc(hi / math.sqrt(2.0))


def lattice_sum_mp(sigma2: float, delta: float, odd: bool):
    """Lattice sum of :mod:`gkp_repeater.hrm` as an mpmath number good to 60
    significant digits.

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
        return total


def lattice_mass_mp(sigma2: float, delta: float, odd: bool) -> float:
    """:func:`lattice_sum_mp` rounded to a double."""
    return float(lattice_sum_mp(sigma2, delta, odd))


def residue_tail_mp(sigma2: float, y: float):
    """U(y) = P(x > y) of an N(0, sigma2) outcome's residue magnitude x, as an
    mpmath number: 1 minus the even and odd :func:`lattice_sum_mp` at
    half-width y, i.e. margin sqrt(pi)/2 - y taken at 60 digits. The
    subtraction cancels, so a tail of 1e-40 keeps ~20 significant digits."""
    import mpmath

    with mpmath.workdps(60):
        delta = mpmath.mpf(SQRT_PI) / 2 - mpmath.mpf(y)
        return 1 - lattice_sum_mp(sigma2, delta, False) - lattice_sum_mp(sigma2, delta, True)


def segment_errors_mp(sigma2: float, delta: float, rounds: int):
    """(E_segment, p_suc) of ``protocols.segment_errors`` at segment variance
    sigma2, as mpmath numbers: e = p_in / (p_cor + p_in) of the 60-digit
    lattice sums, 2 e (1 - e) for two correction rounds, and
    p_suc = p_cor + p_in."""
    import mpmath

    with mpmath.workdps(60):
        p_cor = lattice_sum_mp(sigma2, delta, False)
        p_in = lattice_sum_mp(sigma2, delta, True)
        e = p_in / (p_cor + p_in)
        if rounds == 2:
            e = 2 * e * (1 - e)
        return e, p_cor + p_in


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


def enumerate_encoded_x_error(e_single: float) -> float:
    """Exact bit-flip-protected encoded error by summing all 2**9 patterns.

    Nine ancilla outcomes, three per node; the encoded measurement fails when
    any node's majority vote fails.
    """
    total = 0.0
    for pattern in product((0, 1), repeat=9):
        if any(sum(pattern[3 * i : 3 * i + 3]) >= 2 for i in range(3)):
            prob = 1.0
            for bit in pattern:
                prob *= e_single if bit else (1.0 - e_single)
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


def binary_entropy_mp(x):
    """h(x) = -x log2(x) - (1 - x) log2(1 - x), with h(0) = 0; log1p keeps
    the second term exact for tiny x."""
    import mpmath

    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        if x == 0:
            return mpmath.mpf(0)
        return -(x * mpmath.log(x) + (1 - x) * mpmath.log1p(-x)) / mpmath.log(2)


def key_rate_mp(e_segment, p_accept, rounds, n_qr):
    """(P_suc, R) of ``protocols.secure_key_rate`` from a segment's error and
    per-outcome acceptance: P_suc = p_accept**(2 rounds n_qr), E_AB =
    chain_error_mp(min(e_segment, 1/2), n_qr) and
    R = max(0, P_suc (1 - 2 h(E_AB)))."""
    import mpmath

    with mpmath.workdps(60):
        p_suc = mpmath.mpf(p_accept) ** (2 * rounds * n_qr)
        e_ab = chain_error_mp(min(mpmath.mpf(e_segment), mpmath.mpf(0.5)), n_qr)
        return p_suc, max(mpmath.mpf(0), p_suc * (1 - 2 * binary_entropy_mp(e_ab)))


def plob_mp(l_km, latt_km):
    """Repeaterless bound -log2(1 - eta) at eta = exp(-l_km / latt_km),
    written with log1p so that it keeps its digits where eta is tiny."""
    import mpmath

    with mpmath.workdps(60):
        eta = mpmath.exp(-mpmath.mpf(l_km) / mpmath.mpf(latt_km))
        return -mpmath.log1p(-eta) / mpmath.log(2)
