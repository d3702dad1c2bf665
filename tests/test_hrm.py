"""Postselected-binning statistics against quadrature and sampling oracles."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from gkp_repeater import cli, hrm
from gkp_repeater.hrm import HrmPolicy, e_hrm, p_cor, p_in, p_suc
from reference import pfail

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
        with pytest.raises(ValueError):
            HrmPolicy(-0.01)
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
            hrm._lattice_mass.cache_clear()
            cold = fn(sigma2, delta)
            warm = fn(sigma2, delta)
            assert warm.hex() == cold.hex()
        uncached = hrm._lattice_mass.__wrapped__
        assert p_cor(sigma2, delta).hex() == uncached(sigma2, delta, False).hex()
        assert p_in(sigma2, delta).hex() == uncached(sigma2, delta, True).hex()

    @pytest.mark.parametrize(
        "sigma2,delta", [(-1e-3, 0.0), (0.1, SQRT_PI / 2), (0.1, 1.0), (0.1, -0.2)]
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
        info = hrm._lattice_mass.cache_info()
        assert info.misses == 2_040
        # 1,540 rows, each evaluating its segment once: e_hrm (2 sums) per
        # row plus p_suc (2 sums) once per postselected row.
        assert info.hits + info.misses == 5_544


def lattice_mass_arrays(sigma2: float, delta: float, odd: bool) -> float:
    """The array form of the lattice sum (numpy windows, scipy erfc), kept as
    the reference that the list-based sum must equal bit for bit."""
    half_width = SQRT_PI / 2 - delta
    sigma = math.sqrt(sigma2)
    kmax = math.ceil(10.0 * sigma / SQRT_PI) + 2
    k = np.arange(-kmax, kmax + 1, dtype=float)
    centers = (2.0 * k + 1.0) * SQRT_PI if odd else 2.0 * k * SQRT_PI
    lo = (centers - half_width) / (sigma * math.sqrt(2.0))
    hi = (centers + half_width) / (sigma * math.sqrt(2.0))
    total = 0.0
    pos = lo >= 0
    neg = hi <= 0
    mid = ~(pos | neg)
    if np.any(pos):
        total += 0.5 * float(np.sum(special.erfc(lo[pos]) - special.erfc(hi[pos])))
    if np.any(neg):
        total += 0.5 * float(np.sum(special.erfc(-hi[neg]) - special.erfc(-lo[neg])))
    if np.any(mid):
        total += float(
            np.sum(1.0 - 0.5 * special.erfc(hi[mid]) - 0.5 * special.erfc(-lo[mid]))
        )
    return min(1.0, total)


class TestStdlibLatticeSum:
    """The list-based lattice sum reproduces the array form bit for bit."""

    @pytest.mark.parametrize("n", range(1, 129))
    def test_pairwise_sum_matches_numpy_sum(self, n):
        rng = np.random.default_rng(n)
        for scale in (1.0, 1e-150, 1e150):
            values = scale * np.copysign(
                10.0 ** rng.uniform(-20.0, 20.0, n), rng.uniform(-1.0, 1.0, n)
            )
            positive = 10.0 ** rng.uniform(-300.0, 0.0, n)
            for array in (values, positive, np.full(n, -0.0)):
                got = hrm._pairwise_sum(array.tolist())
                assert got.hex() == float(np.sum(array)).hex()

    SIGMA2 = [1e-6, 1e-3, 0.0158, 0.05, 0.25, 0.5, 1.0, 3.0, 17.0, 120.0, 399.0]
    DELTAS = [0.0, SQRT_PI / 14, SQRT_PI / 6, SQRT_PI / 4, math.nextafter(SQRT_PI / 2, 0.0)]

    @pytest.mark.parametrize("sigma2", SIGMA2)
    def test_lattice_mass_matches_array_form(self, sigma2):
        uncached = hrm._lattice_mass.__wrapped__
        for delta in self.DELTAS:
            for odd in (False, True):
                want = lattice_mass_arrays(sigma2, delta, odd)
                assert uncached(sigma2, delta, odd).hex() == want.hex()

    def test_largest_window_group_fits_one_pairwise_block(self):
        sigma = math.sqrt(math.nextafter(hrm._UNIFORM_LIMIT_SIGMA2, 0.0))
        kmax = math.ceil(10.0 * sigma / SQRT_PI) + 2
        assert kmax + 1 <= 128
