"""Segment budgets, chain accumulation, key rates, and crossing points."""

import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkp_repeater.hrm import HrmPolicy, e_hrm, p_suc
from gkp_repeater.mc_oracle import (
    TrialConfig,
    _segment_component_sigmas,
    estimate_hrm,
    simulate_majority_vote,
    simulate_path_selection,
    simulate_tree_repeater,
)
from gkp_repeater.noise_core import (
    AmplifierMode,
    SqueezingSpec,
    amplifier_added_variance,
    eta_from_distance,
)
from gkp_repeater.protocols import (
    ALL_VARIANTS,
    NoCrossingError,
    ProtocolSpec,
    SegmentErrors,
    Variant,
    _any_fails,
    binary_entropy,
    chain_error,
    crossover_eta,
    plob_bound,
    secure_key_rate,
    segment_errors,
    segment_noise_variance,
    segment_variance,
)
from gkp_repeater.tree_code import (
    ComponentErrors,
    encoded_x_error,
    encoded_z_error,
    majority3,
    single_qubit_variance,
)
from reference import chain_error_mp, key_rate_mp, pfail, segment_errors_mp

SQRT_PI = math.sqrt(math.pi)
SQ15 = SqueezingSpec.from_db(15.0)
SQ0 = SqueezingSpec(0.0)


# The channel term of each variant as written in the protocols docstring: the
# reference the variance table must reproduce bit for bit.
CLOSED_FORMS = {
    Variant.ONE_WAY_POST: lambda eta, root: (1 - eta) / eta,
    Variant.ONE_WAY_PRE: lambda eta, root: 1 - eta,
    Variant.TWO_WAY_POST: lambda eta, root: 2 * (1 - root) / root,
    Variant.TWO_WAY_PRE: lambda eta, root: 2 - 2 * root,
    Variant.TWO_WAY_CC: lambda eta, root: (1 - root) / root,
    Variant.TWO_WAY_POST_SECOND_SQEC: lambda eta, root: (1 - root) / root,
    Variant.TWO_WAY_PRE_SECOND_SQEC: lambda eta, root: 1 - root,
}

# Transmittances from 1e-300 to 1, dense in the decades that key rates use,
# with the edges 1.0, nextafter(1, 0) and the smallest values spelled out.
ETA_GRID = sorted(
    set(
        np.geomspace(1e-300, 1.0, 20_001).tolist()
        + np.linspace(1e-6, 1.0, 30_001).tolist()
        + [1.0, math.nextafter(1.0, 0.0), 1e-300, 5e-324, 2.2e-16, 0.5]
    )
)


def spec_for(variant, n_qr=1, l0=50.0, squeezing=SQ15, delta=0.0, latt=22.0):
    return ProtocolSpec(
        variant=variant,
        n_qr=n_qr,
        l0_km=l0,
        squeezing=squeezing,
        hrm=HrmPolicy(delta),
        latt_km=latt,
    )


def chain_error_by_convolution(e: float, n: int) -> float:
    """Independent oracle: exact parity distribution of n Bernoulli(e) flips."""
    odd = 0.0
    even = 1.0
    for _ in range(n):
        odd, even = odd * (1 - e) + even * e, even * (1 - e) + odd * e
    return odd


class TestSegmentVariance:
    def test_lossless_infinite_squeezing_is_zero(self):
        for variant in ALL_VARIANTS:
            spec = spec_for(variant, l0=0.0, squeezing=SQ0)
            assert segment_variance(spec) == 0.0

    def test_one_way_post_at_half_transmittance(self):
        l0 = 22.0 * math.log(2.0)  # eta = 1/2
        spec = spec_for(Variant.ONE_WAY_POST, l0=l0, squeezing=SQ0)
        assert segment_variance(spec) == pytest.approx(1.0, rel=1e-12)

    def test_two_way_cc_fifty_km_frozen(self):
        spec = spec_for(Variant.TWO_WAY_CC, l0=50.0)
        assert segment_variance(spec) == pytest.approx(
            2.1470417228188049, rel=1e-13
        )

    def test_budget_table(self):
        # Channel term of each variant against its closed form.
        for l0 in (2.0, 22.0, 80.0):
            eta = eta_from_distance(l0)
            for variant, closed_form in CLOSED_FORMS.items():
                noise = closed_form(eta, math.sqrt(eta))
                assert segment_noise_variance(variant, eta) == pytest.approx(
                    noise, rel=1e-14
                )
                spec = spec_for(variant, l0=l0)
                assert segment_variance(spec) == pytest.approx(
                    2 * SQ15.sigma2 + noise, rel=1e-14
                )

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
    def test_table_reproduces_closed_forms_bitwise(self, variant):
        closed_form = CLOSED_FORMS[variant]
        mismatches = [
            eta
            for eta in ETA_GRID
            if segment_noise_variance(variant, eta).hex()
            != closed_form(eta, math.sqrt(eta)).hex()
        ]
        assert mismatches == []

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
    def test_sampler_components_sum_to_segment_variance(self, variant):
        for l0 in (0.0, 0.5, 3.0, 50.0, 400.0):
            for squeezing in (SQ0, SQ15, SqueezingSpec.from_db(8.0)):
                spec = spec_for(variant, l0=l0, squeezing=squeezing)
                sigmas = _segment_component_sigmas(spec)
                assert len(sigmas) == 2 + variant.noisy_inputs
                assert sum(s**2 for s in sigmas) == pytest.approx(
                    segment_variance(spec), rel=1e-14, abs=1e-300
                )

    def test_tree_variances_reproduce_closed_forms_bitwise(self):
        for l0 in np.geomspace(1e-6, 700.0, 2_001).tolist() + [0.0]:
            for squeezing in (SQ0, SQ15, SqueezingSpec.from_db(8.0)):
                spec = spec_for(Variant.TWO_WAY_CC, l0=l0, squeezing=squeezing)
                sigma2, root = squeezing.sigma2, math.sqrt(spec.eta)
                assert segment_variance(spec).hex() == (2.0 * sigma2 + (1.0 - root) / root).hex()
                assert single_qubit_variance(spec).hex() == (
                    sigma2 + (1.0 - root) / (2.0 * root)
                ).hex()

    def test_rejects_zero_eta(self):
        with pytest.raises(ValueError):
            segment_noise_variance(Variant.ONE_WAY_POST, 0.0)


class TestSegmentErrors:
    def test_perfect_segment(self):
        for variant in ALL_VARIANTS:
            errs = segment_errors(spec_for(variant, l0=0.0, squeezing=SQ0))
            assert errs == SegmentErrors(0.0, 1.0)

    def test_matches_single_interval_form_at_small_variance(self):
        # At l0 = 2 km every variant's budget stays small enough that the
        # lattice sum and the central-interval formula coincide to 1e-12.
        for variant in ALL_VARIANTS:
            spec = spec_for(variant, l0=2.0)
            e_direct = pfail(segment_variance(spec))
            if variant.second_sqec:
                e_direct = 2 * e_direct * (1 - e_direct)
            assert segment_errors(spec).ex == pytest.approx(e_direct, abs=1e-12)

    def test_second_round_combination(self):
        spec = spec_for(Variant.TWO_WAY_POST_SECOND_SQEC, l0=60.0, delta=SQRT_PI / 12)
        e_round = e_hrm(segment_variance(spec), spec.hrm.delta)
        assert segment_errors(spec).ex == pytest.approx(
            2 * e_round * (1 - e_round), rel=1e-12
        )

    def test_second_round_saturates_at_half(self):
        # A hopeless segment has per-round error 1/2, and 2*e*(1-e) fixes it.
        spec = spec_for(Variant.TWO_WAY_POST_SECOND_SQEC, l0=2000.0)
        assert segment_errors(spec).ex == pytest.approx(0.5, abs=1e-9)

    def test_acceptance_is_squared_homodyne_acceptance(self):
        spec = spec_for(Variant.TWO_WAY_CC, l0=40.0, delta=SQRT_PI / 6)
        per_outcome = p_suc(segment_variance(spec), spec.hrm.delta)
        errs = segment_errors(spec)
        assert errs.p_suc == per_outcome
        # One station, one Bell measurement: both of its outcomes must pass.
        assert secure_key_rate(spec).p_suc == pytest.approx(per_outcome**2, rel=1e-12)

    def test_error_bounded_by_half(self):
        for variant in ALL_VARIANTS:
            for l0 in (5.0, 50.0, 500.0):
                assert segment_errors(spec_for(variant, l0=l0)).ex <= 0.5 + 1e-15


class TestSegmentErrorsAgainstMpmath:
    """E_segment and the per-outcome acceptance against the 60-digit lattice
    sums (reference.py), taken at the program's own float variance, so that
    only the lattice sums, e_hrm, 2e(1 - e) and p_suc are under test; then
    the chain's P_suc and R of secure_key_rate against key_rate_mp built
    from that segment, for 1 to 1,700 stations. A P_suc or R below the
    normal range keeps only absolute accuracy, hence their absolute floor of
    1e-9 of the least normal double. The repeaterless n_qr = 0 is left out:
    chain_error reads 0 there by convention, not as a rounding matter."""

    DELTAS = [0.0, SQRT_PI / 14, SQRT_PI / 6, SQRT_PI / 4]
    L0_KM = [0.5, 1.0, 3.0, 10.0, 30.0, 100.0]
    N_QR = [1, 10, 100, 1700]

    @pytest.mark.parametrize("db", [10.0, 15.0, 20.0, 30.0, 40.0])
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
    def test_grid(self, variant, db):
        pytest.importorskip("mpmath")
        squeezing = SqueezingSpec.from_db(db)
        floor = 1e-9 * sys.float_info.min
        for delta in self.DELTAS:
            for l0 in self.L0_KM:
                spec = spec_for(variant, l0=l0, squeezing=squeezing, delta=delta)
                got = segment_errors(spec)
                e, accept = segment_errors_mp(segment_variance(spec), delta, variant.rounds)
                # Every reference here is a normal double (the least is ~3e-35).
                assert got.ex == pytest.approx(float(e), rel=1e-12, abs=0.0), (delta, l0)
                assert got.p_suc == pytest.approx(float(accept), rel=1e-12, abs=0.0), (delta, l0)
                for n_qr in self.N_QR:
                    point = secure_key_rate(spec_for(variant, n_qr, l0, squeezing, delta))
                    p_suc, rate = key_rate_mp(e, accept, variant.rounds, n_qr)
                    where = (delta, l0, n_qr)
                    assert point.p_suc == pytest.approx(float(p_suc), rel=1e-9, abs=floor), where
                    assert point.rate == pytest.approx(float(rate), rel=1e-9, abs=floor), where


def is_plus_zero(value: float) -> bool:
    return value == 0.0 and math.copysign(1.0, value) == 1.0


class TestAnyFails:
    def test_no_trials_is_plus_zero(self):
        # log1p(-1) is a domain error, so a p = 1 event with k = 0 must drop out.
        assert is_plus_zero(_any_fails((1.0, 0)))
        assert is_plus_zero(_any_fails((1.0, 0), (0.3, 0)))

    def test_certain_failure_is_one(self):
        assert _any_fails((1.0, 2)) == 1.0
        assert _any_fails((1e-3, 5), (1.0, 1)) == 1.0

    def test_no_failure_is_plus_zero(self):
        assert is_plus_zero(_any_fails())
        assert is_plus_zero(_any_fails((0.0, 3)))
        assert is_plus_zero(_any_fails((0.0, 1), (0.0, 4)))

    def test_repeaterless_hop_at_half(self):
        assert chain_error(0.5, 0) == 0


class TestChainError:
    def test_single_segment_passthrough(self):
        assert chain_error(0.037, 1) == pytest.approx(0.037, rel=1e-15)

    def test_zero_error(self):
        assert chain_error(0.0, 25) == 0.0

    def test_zero_stations(self):
        assert chain_error(0.3, 0) == 0.0

    def test_ten_segments_frozen(self):
        # Frozen from the convolution oracle below.
        assert chain_error(0.01, 10) == pytest.approx(0.09146359655622655, rel=1e-13)

    @pytest.mark.parametrize("e,n", [(0.01, 10), (0.2, 7), (0.5, 3), (0.003, 100)])
    def test_against_convolution_oracle(self, e, n):
        assert chain_error(e, n) == pytest.approx(
            chain_error_by_convolution(e, n), rel=1e-12, abs=1e-15
        )

    def test_monotone_and_bounded(self):
        previous = 0.0
        for e in np.linspace(0.0, 0.5, 51):
            value = chain_error(e, 10)
            assert value >= previous - 1e-15
            assert value <= 0.5 + 1e-15
            previous = value
        previous = 0.0
        for n in range(0, 60):
            value = chain_error(0.02, n)
            assert value >= previous - 1e-15
            previous = value

    @settings(max_examples=300, deadline=None)
    @given(
        e=st.floats(min_value=0.0, max_value=0.5),
        n=st.integers(min_value=0, max_value=1666),
    )
    def test_against_mpmath(self, e, n):
        # (1 - (1 - 2e)**n) / 2 cancels for small e; the program must not.
        pytest.importorskip("mpmath")
        # The reference's digits resolve 1 - 2e for every double e, subnormals included.
        value = chain_error(e, n)
        assert value == pytest.approx(float(chain_error_mp(e, n)), rel=1e-13, abs=1e-300)
        assert math.copysign(1.0, value) == 1.0

    def test_small_error_does_not_cancel(self):
        assert chain_error(1e-12, 10) == pytest.approx(1e-11, rel=1e-10, abs=0.0)
        assert chain_error(1e-300, 1666) == pytest.approx(1.666e-297, rel=1e-12, abs=0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            chain_error(0.6, 3)
        with pytest.raises(ValueError):
            chain_error(0.1, -1)


class TestSuccessProbability:
    def test_no_postselection_means_certainty(self):
        for variant in ALL_VARIANTS:
            assert secure_key_rate(spec_for(variant, n_qr=10, l0=50.0)).p_suc == 1.0

    def test_single_round_exponent(self):
        # One Bell measurement per station, two postselected outcomes each.
        assert 0.9**2 == pytest.approx(0.81)
        spec = spec_for(Variant.TWO_WAY_CC, n_qr=3, l0=40.0, delta=SQRT_PI / 6)
        per_outcome = p_suc(segment_variance(spec), spec.hrm.delta)
        assert secure_key_rate(spec).p_suc == pytest.approx(per_outcome**6, rel=1e-12)

    def test_second_round_exponent(self):
        assert 0.9**8 == pytest.approx(0.43046721)
        spec = spec_for(
            Variant.TWO_WAY_PRE_SECOND_SQEC, n_qr=2, l0=40.0, delta=SQRT_PI / 6
        )
        per_outcome = p_suc(segment_variance(spec), spec.hrm.delta)
        assert secure_key_rate(spec).p_suc == pytest.approx(per_outcome**8, rel=1e-12)


class TestSecureKeyRate:
    def test_perfect_chain_rate_is_one(self):
        point = secure_key_rate(spec_for(Variant.TWO_WAY_CC, n_qr=5, l0=0.0, squeezing=SQ0))
        assert point.rate == 1.0
        assert point.ex_ab == 0.0

    def test_hopeless_chain_clamps_to_zero(self):
        point = secure_key_rate(spec_for(Variant.TWO_WAY_POST, n_qr=10, l0=200.0))
        assert point.ex_ab == pytest.approx(0.5, abs=1e-6)
        assert point.rate == 0.0

    def test_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_plob_reference_frozen(self):
        # Frozen from an arbitrary-precision evaluation of
        # -log2(1 - exp(-100/22)).
        assert plob_bound(100.0, 22.0) == pytest.approx(
            0.015396573030100614, abs=1e-12
        )

    def test_plob_against_mpmath(self):
        # Past ~800 km 1 - eta rounds to 1, so -log2(1 - eta) read 0 there.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for distance in (100, 500, 1000, 2000, 5000):
            expected = -mpmath.log(1 - mpmath.e ** (-mpmath.mpf(distance) / 22)) / mpmath.log(2)
            assert plob_bound(distance, 22.0) == pytest.approx(float(expected), rel=1e-14)

    def test_rate_nonincreasing_in_station_count_at_fixed_spacing(self):
        for delta in (0.0, SQRT_PI / 10):
            for variant in (Variant.TWO_WAY_CC, Variant.ONE_WAY_PRE):
                rates = [
                    secure_key_rate(spec_for(variant, n_qr=n, l0=4.0, delta=delta)).rate
                    for n in (1, 2, 5, 10, 20, 50)
                ]
                assert all(b <= a + 1e-15 for a, b in zip(rates, rates[1:]))

    def test_cc_dominates_other_two_way_variants(self):
        for l0 in np.linspace(1.0, 12.0, 12):
            r_cc = secure_key_rate(spec_for(Variant.TWO_WAY_CC, n_qr=10, l0=l0)).rate
            r_post = secure_key_rate(spec_for(Variant.TWO_WAY_POST, n_qr=10, l0=l0)).rate
            r_pre = secure_key_rate(spec_for(Variant.TWO_WAY_PRE, n_qr=10, l0=l0)).rate
            if r_post > 0 or r_pre > 0:
                assert r_cc >= r_post - 1e-15
                assert r_cc >= r_pre - 1e-15


class TestOrderingAndCrossings:
    @staticmethod
    def error_at(variant, eta):
        e = e_hrm(segment_noise_variance(variant, eta), 0.0)
        return 2 * e * (1 - e) if variant.second_sqec else e

    def test_minimum_error_regions(self):
        # CC rescaling wins for eta >= 0.40; one-way preamplification wins in
        # the strong-loss regime eta <= 0.35 (ties at machine epsilon allowed
        # where every error underflows).
        for eta in np.linspace(0.40, 0.999, 120):
            errors = {v: self.error_at(v, eta) for v in ALL_VARIANTS}
            assert errors[Variant.TWO_WAY_CC] <= min(errors.values()) + 1e-15
        for eta in np.linspace(0.01, 0.35, 120):
            errors = {v: self.error_at(v, eta) for v in ALL_VARIANTS}
            assert errors[Variant.ONE_WAY_PRE] <= min(errors.values()) + 1e-15

    def test_cc_versus_one_way_pre_crossing(self):
        # Closed form: (1-x)/x = 1-x^2 with x = sqrt(eta) gives
        # x = (sqrt(5)-1)/2, eta = x^2.
        expected = ((math.sqrt(5.0) - 1.0) / 2.0) ** 2
        root = crossover_eta(Variant.TWO_WAY_CC, Variant.ONE_WAY_PRE, 0.0)
        assert root == pytest.approx(expected, abs=1e-9)
        assert root == pytest.approx(0.3819660112501051, abs=1e-6)

    def test_crossing_independent_of_squeezing(self):
        a = crossover_eta(Variant.TWO_WAY_CC, Variant.ONE_WAY_PRE, 0.0)
        b = crossover_eta(Variant.TWO_WAY_CC, Variant.ONE_WAY_PRE, 0.05)
        assert a == pytest.approx(b, abs=1e-9)

    def test_no_crossing_cases(self):
        with pytest.raises(NoCrossingError):
            crossover_eta(Variant.TWO_WAY_CC, Variant.TWO_WAY_POST, 0.0)
        with pytest.raises(NoCrossingError):
            crossover_eta(Variant.ONE_WAY_POST, Variant.ONE_WAY_PRE, 0.0)

    def test_only_the_interior_crossings_are_roots(self):
        # All 20 ordered pairs meet at eta = 1. Below it the variance ratio
        # of, e.g., two-way-post to one-way-post is (1 + sqrt(eta)) /
        # (2 sqrt(eta)) > 1, so rounding in sqrt(eta) near 1 is not a root.
        single = [v for v in ALL_VARIANTS if not v.second_sqec]
        roots = {}
        for a, b in itertools.permutations(single, 2):
            try:
                roots[a, b] = crossover_eta(a, b, 0.0)
            except NoCrossingError:
                pass
        golden = ((math.sqrt(5.0) - 1.0) / 2.0) ** 2
        cc, pre, two_pre = Variant.TWO_WAY_CC, Variant.ONE_WAY_PRE, Variant.TWO_WAY_PRE
        expected = {(cc, pre): golden, (pre, cc): golden, (cc, two_pre): 0.25, (two_pre, cc): 0.25}
        assert roots.keys() == expected.keys()
        for pair, root in expected.items():
            assert roots[pair] == pytest.approx(root, abs=1e-9)

    def test_second_round_variants_rejected(self):
        with pytest.raises(ValueError):
            crossover_eta(Variant.TWO_WAY_CC, Variant.TWO_WAY_POST_SECOND_SQEC, 0.0)


class TestProtocolSpec:
    def test_distance_identity(self):
        spec = spec_for(Variant.ONE_WAY_POST, n_qr=10, l0=50.0)
        assert spec.l_ab_km == 550.0

    def test_validation(self):
        with pytest.raises(ValueError):
            spec_for(Variant.ONE_WAY_POST, n_qr=-1)
        with pytest.raises(ValueError):
            spec_for(Variant.ONE_WAY_POST, l0=-2.0)
        with pytest.raises(ValueError):
            spec_for(Variant.ONE_WAY_POST, latt=0.0)

    def test_variant_labels_round_trip(self):
        for variant in ALL_VARIANTS:
            assert Variant(variant.value) is variant
        with pytest.raises(ValueError):
            Variant("three-way")


NAN = float("nan")
CONFIG = TrialConfig(100, seed=1)


@pytest.mark.parametrize("call, name", [
    (lambda: SqueezingSpec(NAN), "sigma2"),
    (lambda: spec_for(Variant.ONE_WAY_POST, l0=NAN), "l0_km"),
    (lambda: spec_for(Variant.ONE_WAY_POST, latt=NAN), "latt_km"),
    (lambda: eta_from_distance(NAN), "l_km"),
    (lambda: eta_from_distance(1.0, NAN), "latt_km"),
    (lambda: e_hrm(NAN), "sigma2"),
    (lambda: estimate_hrm(NAN, 0.0, CONFIG), "sigma2"),
    (lambda: simulate_path_selection(NAN, 1, CONFIG), "sigma_eff2"),
    (lambda: simulate_tree_repeater(NAN, 0.1, 0.0, CONFIG), "v_leaf"),
    (lambda: simulate_tree_repeater(0.1, NAN, 0.0, CONFIG), "v_single"),
    (lambda: crossover_eta(Variant.TWO_WAY_CC, Variant.ONE_WAY_PRE, NAN), "sigma2"),
], ids=[
    "SqueezingSpec", "ProtocolSpec.l0_km", "ProtocolSpec.latt_km", "eta_from_distance.l_km",
    "eta_from_distance.latt_km", "e_hrm", "estimate_hrm",
    "simulate_path_selection", "simulate_tree_repeater.v_leaf", "simulate_tree_repeater.v_single",
    "crossover_eta",
])
def test_nan_is_rejected_where_negatives_are(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be \w+, got nan$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: majority3(NAN), "e must be a probability"),
    (lambda: encoded_x_error(NAN), "e_single must be a probability"),
    (lambda: encoded_z_error(NAN), "e_single must be a probability"),
    (lambda: ComponentErrors(NAN, 0.0, 0.0), "e_leaf must be a probability"),
    (lambda: ComponentErrors(0.0, NAN, 0.0), "e_single must be a probability"),
    (lambda: ComponentErrors(0.0, 0.0, NAN), "e_prep must be a probability"),
    (lambda: SegmentErrors(NAN, 1.0), "ex must be a probability"),
    (lambda: SegmentErrors(0.0, NAN), "p_suc must be a probability"),
    (lambda: chain_error(NAN, 3), "e_segment must be in [0, 1/2]"),
    (lambda: chain_error(0.1, NAN), "n_qr must be nonnegative"),
    (lambda: spec_for(Variant.ONE_WAY_POST, n_qr=NAN), "n_qr must be nonnegative"),
    (lambda: binary_entropy(NAN), "x must be in [0, 1]"),
    (lambda: amplifier_added_variance(NAN, AmplifierMode.POST), "eta must be in (0, 1]"),
    (lambda: Variant.TWO_WAY_CC.input_noise(NAN), "eta must be in (0, 1]"),
    (lambda: HrmPolicy(NAN), "delta must lie in [0, sqrt(pi)/2)"),
    (lambda: TrialConfig(NAN), "n_trials must be >= 1"),
    (lambda: simulate_majority_vote(NAN, CONFIG), "e must be a probability"),
    (lambda: simulate_path_selection(0.1, NAN, CONFIG), "n_pairs must be >= 1"),
    (lambda: simulate_tree_repeater(0.1, 0.1, NAN, CONFIG), "e_prep must be a probability"),
], ids=[
    "majority3", "encoded_x_error", "encoded_z_error",
    "ComponentErrors.e_leaf", "ComponentErrors.e_single", "ComponentErrors.e_prep", "SegmentErrors.ex", "SegmentErrors.p_suc",
    "chain_error.e_segment", "chain_error.n_qr", "ProtocolSpec.n_qr", "binary_entropy",
    "amplifier_added_variance", "Variant.input_noise", "HrmPolicy", "TrialConfig.n_trials",
    "simulate_majority_vote", "simulate_path_selection.n_pairs", "simulate_tree_repeater.e_prep",
])
def test_nan_fails_every_range_check(call, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}, got nan$"):
        call()


class TestSegmentUnderflow:
    """A segment whose transmittance rounds to 0 is rejected by its length."""

    def test_spec_names_the_segment_length(self):
        message = "l0_km must leave a nonzero transmittance exp(-l0_km / latt_km), got 20000.0"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            spec_for(Variant.TWO_WAY_CC, n_qr=0, l0=20000.0)

    def test_limit_scales_with_the_attenuation_length(self):
        spec_for(Variant.TWO_WAY_CC, l0=20000.0, latt=30.0)
        with pytest.raises(ValueError, match="^l0_km must leave"):
            spec_for(Variant.TWO_WAY_CC, l0=2000.0, latt=2.0)

    @pytest.mark.parametrize("variant", [Variant.TWO_WAY_CC, Variant.ONE_WAY_POST])
    def test_a_16000_km_segment_still_evaluates(self, variant):
        spec = spec_for(variant, n_qr=0, l0=16000.0)
        assert 0.0 < spec.eta < 1e-300
        point = secure_key_rate(spec)
        assert point.e_segment == 0.5
        assert 0.0 < point.plob < 1e-300
