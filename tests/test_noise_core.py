"""Noise-model unit tests: the single-interval misidentification reference,
the added noise of each amplification strategy, and squeezing conversions
against independent oracles."""

import math

import numpy as np
import pytest

from gkp_repeater.noise_core import (
    AmplifierMode,
    SqueezingSpec,
    amplifier_added_variance,
    eta_from_distance,
    sigma2_to_db,
    squeezing_db_to_sigma2,
)
from reference import pfail

SQRT_PI = math.sqrt(math.pi)


def loss(v: float, eta: float) -> float:
    """Reference variance map of the pure-loss channel: a beamsplitter of
    transmittance eta mixes in vacuum (variance 1/2)."""
    return eta * v + (1 - eta) / 2


def amplify(v: float, eta: float) -> float:
    """Reference variance map of phase-insensitive amplification, the
    conjugate of loss at the same eta."""
    return v / eta + (1 - eta) / (2 * eta)


def pfail_trapezoid(sigma2: float, n: int = 2_000_001) -> float:
    """Independent oracle: high-resolution trapezoid rule for the central-bin
    mass of N(0, sigma2)."""
    x = np.linspace(-SQRT_PI / 2, SQRT_PI / 2, n)
    density = np.exp(-(x**2) / (2 * sigma2)) / math.sqrt(2 * math.pi * sigma2)
    return 1.0 - float(np.trapezoid(density, x))


class TestPfail:
    def test_zero_variance(self):
        assert pfail(0.0) == 0.0

    def test_large_variance_limit(self):
        assert pfail(1e12) > 1 - 1e-6

    def test_quarter_variance_frozen(self):
        # Frozen from the trapezoid oracle below.
        assert pfail(0.25) == pytest.approx(0.0763192494570547, abs=1e-13)

    @pytest.mark.parametrize("sigma2", [0.05, 0.25, 0.5, 1.0])
    def test_against_trapezoid_oracle(self, sigma2):
        assert pfail(sigma2) == pytest.approx(pfail_trapezoid(sigma2), abs=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pfail(-1e-9)

    def test_strictly_increasing(self):
        grid = np.linspace(0.01, 3.0, 300)
        values = [pfail(s2) for s2 in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestEtaFromDistance:
    def test_zero_distance(self):
        assert eta_from_distance(0.0, 22.0) == 1.0

    def test_one_attenuation_length(self):
        assert eta_from_distance(22.0, 22.0) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_fifty_km_frozen(self):
        assert eta_from_distance(50.0, 22.0) == pytest.approx(
            0.10303080346176418, rel=1e-14
        )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            eta_from_distance(-1.0, 22.0)
        with pytest.raises(ValueError):
            eta_from_distance(10.0, 0.0)


class TestApplyLoss:
    """The reference loss map behind the composition tests below."""

    def test_identity_at_unit_eta(self):
        assert loss(0.0, 1.0) == 0.0

    def test_vacuum_fixed_point(self):
        assert loss(0.5, 0.5) == pytest.approx(0.5, rel=1e-15)

    def test_fifteen_db_over_fifty_km_frozen(self):
        out = loss(squeezing_db_to_sigma2(15.0), eta_from_distance(50.0))
        assert out == pytest.approx(0.4501136583095996, rel=1e-13)

    def test_against_beamsplitter_sampling(self):
        # Oracle: sample the beamsplitter-with-vacuum quadrature map directly.
        rng = np.random.default_rng(20240517)
        sigma2, eta, n = 0.0158, 0.10303080346176418, 2_000_000
        x = math.sqrt(eta) * rng.normal(0, math.sqrt(sigma2), n) + math.sqrt(
            1 - eta
        ) * rng.normal(0, math.sqrt(0.5), n)
        sample_var = float(np.var(x))
        expected = loss(sigma2, eta)
        # Variance of a variance estimate is 2 var^2 / n.
        std_err = math.sqrt(2.0 / n) * expected
        assert abs(sample_var - expected) < 4 * std_err


class TestAmplifier:
    @pytest.mark.parametrize("mode", list(AmplifierMode))
    def test_unit_eta_adds_nothing(self, mode):
        assert amplifier_added_variance(1.0, mode) == 0.0

    def test_post_at_half(self):
        assert amplifier_added_variance(0.5, AmplifierMode.POST) == 1.0

    def test_cc_pair_at_half(self):
        assert amplifier_added_variance(0.5, AmplifierMode.CC_PAIR) == 0.5

    def test_rejects_zero_eta(self):
        with pytest.raises(ValueError):
            amplifier_added_variance(0.0, AmplifierMode.POST)

    def test_loss_then_amplifier_composition(self):
        # Loss followed by the amplification channel must reproduce the
        # combined post budget: pure additive noise (1 - eta) / eta.
        rng = np.random.default_rng(7)
        for _ in range(50):
            eta = rng.uniform(0.05, 1.0)
            for v in rng.uniform(0, 2, size=2):
                budget = v + amplifier_added_variance(eta, AmplifierMode.POST)
                assert amplify(loss(v, eta), eta) == pytest.approx(budget, rel=1e-12, abs=1e-15)

    def test_cc_pair_against_rescaled_loss_sampling(self):
        # Oracle: sample loss, then rescale the outcome by 1/sqrt(eta); the
        # surviving noise per mode is (1 - eta) / (2 eta).
        rng = np.random.default_rng(99)
        eta, n = 0.5, 2_000_000
        x = math.sqrt(eta) * rng.normal(0, 0.0, n) + math.sqrt(1 - eta) * rng.normal(
            0, math.sqrt(0.5), n
        )
        rescaled = x / math.sqrt(eta)
        expected = amplifier_added_variance(eta, AmplifierMode.CC_PAIR)
        sample_var = float(np.var(rescaled))
        std_err = math.sqrt(2.0 / n) * expected
        assert abs(sample_var - expected) < 4 * std_err

    def test_variance_maps_affine(self):
        # f(v1) + f(v2) - f(0) == f(v1 + v2) for every channel map.
        rng = np.random.default_rng(11)
        maps = [lambda v: loss(v, 0.3)]
        maps += [
            (lambda mode: lambda v: v + amplifier_added_variance(0.6, mode))(m)
            for m in AmplifierMode
        ]
        maps.append(lambda v: amplify(v, 0.6))
        for f in maps:
            for _ in range(20):
                a, b = rng.uniform(0, 3, size=2)
                lhs = f(a) + f(b) - f(0.0)
                rhs = f(a + b)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_added_noise_ordering_over_grid(self):
        # pre < post everywhere on (0, 1); cc_pair < pre only above eta = 1/2.
        for eta in np.linspace(1e-4, 1 - 1e-9, 1500):
            post = amplifier_added_variance(eta, AmplifierMode.POST)
            pre = amplifier_added_variance(eta, AmplifierMode.PRE)
            cc = amplifier_added_variance(eta, AmplifierMode.CC_PAIR)
            assert pre < post
            if eta > 0.5:
                assert cc < pre
            elif eta < 0.5:
                assert cc > pre


class TestSqueezing:
    def test_zero_db_is_vacuum_width(self):
        assert squeezing_db_to_sigma2(0.0) == 0.5

    def test_fifteen_db_frozen(self):
        assert squeezing_db_to_sigma2(15.0) == pytest.approx(
            0.015811388300841897, rel=1e-14
        )

    @pytest.mark.parametrize("sigma2", [0.1, 0.5, 0.0158, 1.7])
    def test_round_trip(self, sigma2):
        assert squeezing_db_to_sigma2(sigma2_to_db(sigma2)) == pytest.approx(
            sigma2, rel=1e-12
        )

    def test_infinite_squeezing(self):
        assert sigma2_to_db(0.0) == math.inf
        assert squeezing_db_to_sigma2(math.inf) == 0.0

    def test_overflowing_squeezing_is_a_value_error(self):
        with pytest.raises(ValueError, match="squeezing of -4000.0 dB is out of range"):
            squeezing_db_to_sigma2(-4000.0)
        with pytest.raises(ValueError, match="squeezing of -4000.0 dB"):
            SqueezingSpec.from_db(-4000.0)

    def test_spec_consistency_enforced(self):
        assert SqueezingSpec.from_db(15.0) == SqueezingSpec(0.015811388300841897)
        with pytest.raises(ValueError, match="sigma2 must be nonnegative"):
            SqueezingSpec(-0.0159)
