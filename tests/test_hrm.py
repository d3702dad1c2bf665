"""Postselected-binning statistics against quadrature and sampling oracles."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from gkp_repeater import cli, hrm, tree_code
from gkp_repeater.hrm import HrmPolicy, e_hrm, p_cor, p_in, p_suc
from reference import lattice_mass_mp, pfail, reference_lattice_mass, residue_tail_mp

SQRT_PI = math.sqrt(math.pi)
DELTA_GRID = [k * SQRT_PI / 20 for k in range(10)]


def lattice_mass_quad(sigma2: float, delta: float, odd: bool, kmax: int = 30) -> float:
    """Independent oracle: adaptive quadrature of the defining window sums."""

    def density(x):
        return math.exp(-(x**2) / (2 * sigma2)) / math.sqrt(2 * math.pi * sigma2)

    total = 0.0
    for k in range(-kmax, kmax + 1):
        center = (2 * k + 1) * SQRT_PI if odd else 2 * k * SQRT_PI
        lo, hi = center - SQRT_PI / 2 + delta, center + SQRT_PI / 2 - delta
        value, _ = integrate.quad(density, lo, hi, epsabs=1e-15, epsrel=1e-13)
        total += value
    return total


def sample_hrm(sigma2: float, delta: float, n: int, seed: int):
    """Independent oracle: bin n Gaussian samples into the lattice windows."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, math.sqrt(sigma2), n)
    k = np.rint(x / SQRT_PI)
    accepted = np.abs(x - k * SQRT_PI) < SQRT_PI / 2 - delta
    wrong = accepted & (np.abs(k) % 2 == 1)
    return int(accepted.sum()), int(wrong.sum())


class TestPolicy:
    def test_cutoff_identity(self):
        for delta in DELTA_GRID:
            policy = HrmPolicy(delta)
            assert policy.v_up + policy.delta == SQRT_PI / 2

    def test_bounds(self):
        HrmPolicy(0.0)
        with pytest.raises(ValueError) as excinfo:
            HrmPolicy(-0.01)
        assert str(excinfo.value) == "delta must lie in [0, sqrt(pi)/2), got -0.01"
        with pytest.raises(ValueError):
            HrmPolicy(SQRT_PI / 2)


class TestLatticeSums:
    @pytest.mark.parametrize("sigma2", [0.01, 0.1, 0.5, 2.0, 5.0])
    def test_windows_tile_line_at_zero_margin(self, sigma2):
        assert p_cor(sigma2, 0.0) + p_in(sigma2, 0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "sigma2,delta",
        [(0.25, SQRT_PI / 6), (0.1, SQRT_PI / 10), (1.5, 0.3), (4.0, 0.0)],
    )
    def test_against_quadrature_oracle(self, sigma2, delta):
        assert p_cor(sigma2, delta) == pytest.approx(
            lattice_mass_quad(sigma2, delta, odd=False), abs=1e-12
        )
        assert p_in(sigma2, delta) == pytest.approx(
            lattice_mass_quad(sigma2, delta, odd=True), abs=1e-12
        )

    def test_quarter_variance_frozen(self):
        # Frozen from the quadrature oracle above.
        assert p_cor(0.25, SQRT_PI / 6) == pytest.approx(0.7626498012707281, abs=1e-12)
        assert p_suc(0.25, SQRT_PI / 6) == pytest.approx(0.7807618963092906, abs=1e-12)

    def test_monte_carlo_agreement(self):
        sigma2, delta, n = 0.25, SQRT_PI / 6, 10_000_000
        accepted, wrong = sample_hrm(sigma2, delta, n, seed=20240518)
        ps = p_suc(sigma2, delta)
        assert abs(accepted - n * ps) < 4 * math.sqrt(n * ps * (1 - ps))
        e = e_hrm(sigma2, delta)
        assert abs(wrong - accepted * e) < 4 * math.sqrt(accepted * e * (1 - e))

    def test_uniform_wrap_limit(self):
        for delta in (0.0, SQRT_PI / 6):
            assert e_hrm(1e6, delta) == pytest.approx(0.5, abs=1e-12)
            assert p_suc(1e6, delta) == pytest.approx(1 - 2 * delta / SQRT_PI, abs=1e-12)

    def test_degenerate_zero_variance(self):
        for delta in (0.0, SQRT_PI / 10, SQRT_PI / 3):
            assert e_hrm(0.0, delta) == 0.0
            assert p_suc(0.0, delta) == 1.0

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            p_cor(-0.1, 0.0)
        with pytest.raises(ValueError):
            p_in(0.1, SQRT_PI)
        with pytest.raises(ValueError):
            e_hrm(0.1, -0.2)


class TestErrorProbability:
    def test_matches_single_interval_form_at_small_variance(self):
        # The lattice sum and the central-interval formula agree to 1e-12
        # while the mass beyond the first even bin is negligible
        # (sigma2 <~ 0.14); they then diverge as variance grows.
        for sigma2 in np.linspace(0.005, 0.13, 26):
            assert e_hrm(sigma2, 0.0) == pytest.approx(pfail(sigma2), abs=1e-12)
        assert abs(e_hrm(0.5, 0.0) - pfail(0.5)) > 1e-4

    def test_fifteen_db_margin_strictly_helps(self):
        assert 0.0 < e_hrm(0.0158, SQRT_PI / 10) < e_hrm(0.0158, 0.0)

    def test_nonincreasing_in_delta(self):
        for sigma2 in (0.0158, 0.1, 0.3, 1.0):
            values = [e_hrm(sigma2, d) for d in DELTA_GRID]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_nondecreasing_in_variance(self):
        for delta in (0.0, SQRT_PI / 10, SQRT_PI / 6):
            values = [e_hrm(s2, delta) for s2 in np.linspace(0.01, 2.0, 80)]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_acceptance_strictly_decreasing_in_delta(self):
        for sigma2 in (0.05, 0.25, 1.0):
            values = [p_suc(sigma2, d) for d in DELTA_GRID]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_incorrect_mass_below_correct_mass(self):
        for sigma2 in np.linspace(0.01, 0.5, 20):
            for delta in (0.0, SQRT_PI / 10, SQRT_PI / 4):
                assert 0.0 <= p_in(sigma2, delta) <= p_cor(sigma2, delta)


class TestLatticeMemo:
    """The lattice-sum cache returns the uncached value bit for bit."""

    GRID = [
        (sigma2, delta)
        for sigma2 in (0.0, 0.0158, 0.25, 3.0, 400.0, 1e6)
        for delta in (0.0, SQRT_PI / 6, math.nextafter(SQRT_PI / 2, 0.0))
    ]

    @pytest.mark.parametrize("sigma2,delta", GRID)
    def test_cold_and_warm_values_are_identical(self, sigma2, delta):
        for fn in (p_cor, p_in, e_hrm, p_suc):
            hrm._lattice_masses.cache_clear()
            cold = fn(sigma2, delta)
            warm = fn(sigma2, delta)
            assert warm.hex() == cold.hex()
        uncached = hrm._lattice_masses.__wrapped__
        assert p_cor(sigma2, delta).hex() == uncached(sigma2, delta)[False].hex()
        assert p_in(sigma2, delta).hex() == uncached(sigma2, delta)[True].hex()

    @pytest.mark.parametrize(
        "sigma2,delta",
        [
            (-1e-3, 0.0),
            (0.1, SQRT_PI / 2),
            (0.1, 1.0),
            (0.1, -0.2),
            # A dict lookup matches this NaN object by identity, so only
            # validating before caching keeps it from being served back.
            (math.nan, 0.0),
            (0.1, math.nan),
        ],
    )
    def test_invalid_input_raises_on_every_call(self, sigma2, delta):
        p_cor(0.1, 0.0)  # a warm cache must not let invalid input through
        for _ in range(3):
            for fn in (p_cor, p_in, e_hrm, p_suc):
                with pytest.raises(ValueError):
                    fn(sigma2, delta)

    def test_bare_recipe_computes_each_distinct_sum_once(self, capsys):
        recipe = Path(__file__).resolve().parents[1] / "recipes" / "bare_key_rates.cfg"
        assert cli.main(["sweep", "--config", str(recipe)]) == 0
        capsys.readouterr()
        info = hrm._lattice_masses.cache_info()
        # One entry per distinct (variance, margin) holds both sums.
        assert info.misses == 1_020
        # 1,540 rows, each reading its (variance, margin) once for e_hrm and
        # once for p_suc; at delta = 0 the p_suc read hits e_hrm's entry.
        assert info.hits + info.misses == 3_080


class TestMpmathReference:
    """The lattice sum against its 60-digit mpmath form (reference.py)."""

    SIGMA2 = [1e-6, 1e-3, 0.0158, 0.05, 0.25, 0.5, 1.0, 3.0, 17.0, 120.0, 399.0]
    DELTAS = [0.0, SQRT_PI / 14, SQRT_PI / 6, SQRT_PI / 4]
    _rng = np.random.default_rng(21)
    RANDOM = list(
        zip(
            (10.0 ** _rng.uniform(-4.0, 2.0, 40)).tolist(),
            _rng.uniform(0.0, SQRT_PI / 2, 40).tolist(),
            (_rng.uniform(0.0, 1.0, 40) < 0.5).tolist(),
        )
    )

    @staticmethod
    def check(sigma2, delta, odd):
        want = lattice_mass_mp(sigma2, delta, odd)
        got = hrm._lattice_masses.__wrapped__(sigma2, delta)[odd]
        if want > 1e-300:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (sigma2, delta, odd)
        else:
            assert got <= 1e-300, (sigma2, delta, odd)

    @pytest.mark.parametrize("sigma2", SIGMA2)
    def test_grid(self, sigma2):
        pytest.importorskip("mpmath")
        for delta in self.DELTAS:
            for odd in (False, True):
                self.check(sigma2, delta, odd)

    @pytest.mark.parametrize("sigma2,delta,odd", RANDOM)
    def test_random(self, sigma2, delta, odd):
        pytest.importorskip("mpmath")
        self.check(sigma2, delta, odd)

    def test_ulp_wide_windows_are_accurate_to_absolute_roundoff(self):
        # At delta one ulp below sqrt(pi)/2 each window is one ulp wide and
        # its erfc difference cancels, so only an absolute bound holds.
        pytest.importorskip("mpmath")
        delta = math.nextafter(SQRT_PI / 2, 0.0)
        for sigma2 in self.SIGMA2:
            for odd in (False, True):
                want = lattice_mass_mp(sigma2, delta, odd)
                got = hrm._lattice_masses.__wrapped__(sigma2, delta)[odd]
                assert abs(got - want) <= 2 * sys.float_info.epsilon, (sigma2, odd)

    def test_subnormal_tail_survives(self):
        pytest.importorskip("mpmath")
        sigma2, delta = 0.001045576543089023, 0.34246312461662776
        want = lattice_mass_mp(sigma2, delta, True)
        assert 0.0 < want < sys.float_info.min
        got = hrm._lattice_masses.__wrapped__(sigma2, delta)[True]
        assert got == pytest.approx(want, rel=1e-8, abs=0.0)


def window_mass_arrays(centers, half_width: float, sigma: float) -> tuple[float, float]:
    """The array form of a window sum (scipy erfc, numpy sum) and its error scale.

    The scale weights each erfc tail by 1 + x^2: an erfc evaluation carries a
    few ulp of its tail, and Cephes, which scipy uses, loses up to x^2 ulp more
    in exp(-x^2) deep in the tail. Windows containing the origin add their 1.
    """
    c = np.asarray(centers, dtype=float)
    lo = (c - half_width) / (sigma * math.sqrt(2.0))
    hi = (c + half_width) / (sigma * math.sqrt(2.0))
    pos = lo >= 0
    neg = hi <= 0
    mid = ~(pos | neg)
    erfc = special.erfc
    masses = np.concatenate(
        [
            0.5 * (erfc(lo[pos]) - erfc(hi[pos])),
            0.5 * (erfc(-hi[neg]) - erfc(-lo[neg])),
            1.0 - 0.5 * erfc(hi[mid]) - 0.5 * erfc(-lo[mid]),
        ]
    )

    def tail(x):
        return float(np.sum(0.5 * (1.0 + x * x) * erfc(x)))

    scale = (
        tail(lo[pos]) + tail(hi[pos]) + tail(-hi[neg]) + tail(-lo[neg])
        + float(np.count_nonzero(mid)) + tail(hi[mid]) + tail(-lo[mid])
    )
    return float(np.sum(masses)), scale


def lattice_mass_arrays(sigma2: float, delta: float, odd: bool) -> tuple[float, float]:
    """The array form of the lattice sum (numpy windows, scipy erfc)."""
    sigma = math.sqrt(sigma2)
    kmax = math.ceil(10.0 * sigma / SQRT_PI) + 2
    k = np.arange(-kmax, kmax + 1, dtype=float)
    centers = (2.0 * k + 1.0) * SQRT_PI if odd else 2.0 * k * SQRT_PI
    total, scale = window_mass_arrays(centers, SQRT_PI / 2 - delta, sigma)
    return min(1.0, total), scale


class TestStdlibLatticeSum:
    """The math.erfc/math.fsum window sums agree with the numpy/scipy array
    form to within the two erfc implementations' rounding."""

    EPS = sys.float_info.epsilon
    DELTAS = TestMpmathReference.DELTAS + [math.nextafter(SQRT_PI / 2, 0.0)]

    def check(self, sigma2, delta):
        # scipy's erfc underflows to 0 below the smallest normal double,
        # where math.erfc keeps a subnormal tail.
        got = hrm._lattice_masses.__wrapped__(sigma2, delta)
        for odd in (False, True):
            want, scale = lattice_mass_arrays(sigma2, delta, odd)
            tol = 8 * self.EPS * scale + sys.float_info.min
            assert abs(got[odd] - want) <= tol, (sigma2, delta, odd, got[odd], want)

    @pytest.mark.parametrize("n", range(1, 129))
    def test_pairwise_sum_matches_numpy_sum(self, n):
        # Three random (variance, margin) points per seed, with variances
        # from 1e-3 to 1e3, against numpy's pairwise sum of the same windows.
        rng = np.random.default_rng(n)
        for _ in range(3):
            self.check(10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(0.0, SQRT_PI / 2))

    @pytest.mark.parametrize("sigma2", TestMpmathReference.SIGMA2)
    def test_lattice_mass_matches_array_form(self, sigma2):
        for delta in self.DELTAS:
            self.check(sigma2, delta)


class TestMirroredWindows:
    """The half-line kernel, which counts each window right of the origin for
    its mirror image too, equals the full-line sum (reference.py) bit for bit:
    math.fsum rounds once, and a mirrored window is the same float expression
    as its partner."""

    @staticmethod
    def check(sigma2, delta):
        got = hrm._lattice_masses.__wrapped__(sigma2, delta)
        for odd in (False, True):
            want = reference_lattice_mass(sigma2, delta, odd)
            assert got[odd].hex() == want.hex(), (sigma2, delta, odd)

    @pytest.mark.parametrize("sigma2", [0.0, *TestMpmathReference.SIGMA2, 400.0])
    def test_grid(self, sigma2):
        for delta in TestStdlibLatticeSum.DELTAS:
            self.check(sigma2, delta)

    @settings(max_examples=500, deadline=None)
    @given(
        sigma2=st.floats(min_value=1e-6, max_value=1e3),
        delta=st.floats(min_value=0.0, max_value=SQRT_PI / 2, exclude_max=True),
    )
    def test_random(self, sigma2, delta):
        self.check(sigma2, delta)


class TestResidueLaw:
    """hrm.residue_law: the masses, tail and densities of one residue law."""

    SIGMA2 = [1e-3, 0.01, 0.0158, 0.05, 0.25, 1.0, 3.0, 17.0, 120.0, 399.0]
    YS = [0.05, 0.3, 0.6, 0.8]

    @pytest.mark.parametrize("sigma2", SIGMA2)
    def test_tail_matches_mpmath(self, sigma2):
        # Below 1e-40 the 60-digit reference has cancelled too far to tell.
        # At sigma2 = 0.01, y = 0.8 the tail is 1.2442e-15, and
        # 1 - p_suc(0.01, sqrt(pi)/2 - 0.8) would read it 7.1% high.
        pytest.importorskip("mpmath")
        _, tail, _ = hrm.residue_law(sigma2)
        for y in self.YS:
            want = residue_tail_mp(sigma2, y)
            if want > 1e-40:
                assert tail(y) == pytest.approx(float(want), rel=1e-12, abs=0.0), y

    @pytest.mark.parametrize("sigma2", [0.0158, 0.25, 3.0, 399.0, 400.0, 1e4])
    def test_densities_integrate_to_the_masses(self, sigma2):
        inside, _, densities = hrm.residue_law(sigma2)
        for y in (0.1, *self.YS, SQRT_PI / 2):
            # The even density is a Gaussian of width sqrt(sigma2) at 0; the
            # odd one rises toward y by e over sigma2 / (sqrt(pi) - y).
            width = min(math.sqrt(sigma2), 4.0 * sigma2 / (SQRT_PI - y))
            even = odd = 0.0
            for x, weight in tree_code._leaf_nodes(0.0, y, width, width):
                e, o = densities(x)
                even += weight * e
                odd += weight * o
            want = inside(y)
            assert even == pytest.approx(want[0], rel=1e-12, abs=0.0), y
            assert odd == pytest.approx(want[1], rel=1e-12, abs=0.0), y

    def test_narrow_windows_equal_the_full_line_sum(self):
        # Windows narrower than ~1e-8 cancel to masses of a few bits, whose
        # sum can fall on a rounding tie that only the left-out images break.
        # An image rule of e**-50 misses ~0.7% of these sums by an ulp.
        rng = np.random.default_rng(16)
        sigma2s = 10.0 ** rng.uniform(-0.7, 0.3, 2000)
        half_widths = 10.0 ** rng.uniform(-15.0, -8.0, 2000)
        for sigma2, half_width in zip(sigma2s.tolist(), half_widths.tolist()):
            delta = SQRT_PI / 2 - half_width
            got = hrm._lattice_masses.__wrapped__(sigma2, delta)
            for odd in (False, True):
                want = reference_lattice_mass(sigma2, delta, odd)
                assert got[odd].hex() == want.hex(), (sigma2, delta, odd)
