"""Monte Carlo estimators: determinism, batching semantics, and agreement
with the analytic quantities they mirror."""

import math

import pytest

from gkp_repeater.hrm import e_hrm, p_suc
from gkp_repeater.mc_oracle import (
    McEstimate,
    TrialConfig,
    enumerate_encoded_x_error,
    enumerate_majority3,
    estimate_hrm,
    simulate_majority_vote,
    simulate_path_selection,
    simulate_segment,
    simulate_tree_repeater,
)
from gkp_repeater.noise_core import SqueezingSpec, pfail
from gkp_repeater.protocols import ALL_VARIANTS, ProtocolSpec, Variant, segment_errors
from gkp_repeater.tree_code import (
    DecodingMode,
    component_errors,
    leaf_variance,
    majority3,
    repeater_error,
    single_qubit_variance,
    encoded_x_error,
)
from gkp_repeater.hrm import HrmPolicy

SQRT_PI = math.sqrt(math.pi)
SQ15 = SqueezingSpec.from_db(15.0)


def binomial_z(estimate: McEstimate, p: float) -> float:
    n = estimate.n_effective
    k = round(estimate.mean * n)
    if p <= 0.0 or p >= 1.0:
        return 0.0 if k == round(n * p) else math.inf
    return (k - n * p) / math.sqrt(n * p * (1 - p))


class TestDeterminismAndBatching:
    def test_identical_seeds_identical_estimates(self):
        config = TrialConfig(n_trials=300_000, seed=42)
        first = estimate_hrm(0.2, SQRT_PI / 10, config)
        second = estimate_hrm(0.2, SQRT_PI / 10, config)
        assert first == second

    def test_different_seeds_differ(self):
        a = estimate_hrm(0.2, 0.0, TrialConfig(300_000, seed=1))[0]
        b = estimate_hrm(0.2, 0.0, TrialConfig(300_000, seed=2))[0]
        assert a.mean != b.mean

    def test_batch_partition_covers_trials(self):
        config = TrialConfig(n_trials=1_000_001, batch_size=250_000)
        batches = config.batches()
        assert sum(n for _, n in batches) == 1_000_001
        assert [i for i, _ in batches] == list(range(len(batches)))

    def test_batched_versus_single_batch_distribution(self):
        # Different partitions draw different streams; a two-proportion
        # z-test at significance 0.001 must not separate them.
        n = 400_000
        merged = estimate_hrm(0.3, 0.0, TrialConfig(n, seed=9, batch_size=50_000))[0]
        single = estimate_hrm(0.3, 0.0, TrialConfig(n, seed=10, batch_size=n))[0]
        pooled = (merged.mean + single.mean) / 2
        se = math.sqrt(2 * pooled * (1 - pooled) / n)
        assert abs(merged.mean - single.mean) / se < 3.29

    def test_estimate_invariants(self):
        estimate = McEstimate.from_counts(25, 1000)
        assert estimate.mean == 0.025
        assert estimate.std_err == pytest.approx(
            math.sqrt(0.025 * 0.975 / 1000), rel=1e-12
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(n_trials=0)
        with pytest.raises(ValueError):
            TrialConfig(n_trials=10, batch_size=0)


class TestEstimateHrm:
    def test_no_margin_accepts_everything(self):
        _, acceptance = estimate_hrm(0.3, 0.0, TrialConfig(200_000, seed=3))
        assert acceptance.mean == 1.0

    def test_matches_analytic_error(self):
        config = TrialConfig(500_000, seed=4)
        for sigma2, delta in [(0.125, 0.0), (0.25, SQRT_PI / 6), (0.0158, 0.0)]:
            err, acc = estimate_hrm(sigma2, delta, config)
            assert abs(binomial_z(err, e_hrm(sigma2, delta))) < 4
            assert abs(binomial_z(acc, p_suc(sigma2, delta))) < 4

    def test_large_variance_is_coin_flip(self):
        err, _ = estimate_hrm(5.0, 0.0, TrialConfig(400_000, seed=5))
        assert abs(binomial_z(err, 0.5)) < 4

    def test_fifteen_db_matches_single_interval_form(self):
        # pfail(2 * 0.0158) ~ 1e-7-scale: the binomial check still applies.
        err, _ = estimate_hrm(0.05, 0.0, TrialConfig(1_000_000, seed=6))
        assert abs(binomial_z(err, pfail(0.05))) < 4


class TestSimulateSegment:
    def test_noiseless_segment_never_flips(self):
        spec = ProtocolSpec(
            Variant.TWO_WAY_CC, 1, 0.0, SqueezingSpec.from_sigma2(0.0)
        )
        flips = simulate_segment(spec, TrialConfig(100_000, seed=7))
        assert flips.mean == 0.0

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
    def test_matches_analytic_at_fifty_km(self, variant):
        spec = ProtocolSpec(variant, 1, 50.0, SQ15)
        flips = simulate_segment(spec, TrialConfig(400_000, seed=8))
        assert abs(binomial_z(flips, segment_errors(spec).ex)) < 4

    def test_second_round_combination_empirically(self):
        spec = ProtocolSpec(Variant.TWO_WAY_POST_SECOND_SQEC, 1, 60.0, SQ15)
        e_round = e_hrm(2 * SQ15.sigma2 + (1 - math.sqrt(spec.eta)) / math.sqrt(spec.eta), 0.0)
        flips = simulate_segment(spec, TrialConfig(400_000, seed=9))
        assert abs(binomial_z(flips, 2 * e_round * (1 - e_round))) < 4

    def test_postselected_segment(self):
        spec = ProtocolSpec(
            Variant.TWO_WAY_CC, 1, 50.0, SQ15, hrm=HrmPolicy(SQRT_PI / 6)
        )
        flips = simulate_segment(spec, TrialConfig(400_000, seed=10))
        assert abs(binomial_z(flips, segment_errors(spec).ex)) < 4

    def test_postselected_second_round_segment(self):
        # Acceptance gates four outcomes; the flip estimate stays conditional.
        spec = ProtocolSpec(
            Variant.TWO_WAY_PRE_SECOND_SQEC, 1, 60.0, SQ15,
            hrm=HrmPolicy(SQRT_PI / 12),
        )
        flips = simulate_segment(spec, TrialConfig(400_000, seed=21))
        assert abs(binomial_z(flips, segment_errors(spec).ex)) < 4
        assert flips.n_accepted < 400_000


class TestSimulatePathSelection:
    def test_single_pair_reduces_to_bell_error(self):
        sigma2 = 0.25
        err, acc = simulate_path_selection(sigma2, 1, TrialConfig(400_000, seed=11))
        single = e_hrm(sigma2, 0.0)
        assert abs(binomial_z(err, 1 - (1 - single) ** 2)) < 4
        assert acc.mean == 1.0

    def test_zero_variance(self):
        err, _ = simulate_path_selection(0.0, 5, TrialConfig(50_000, seed=12))
        assert err.mean == 0.0

    def test_selection_beats_single_pair(self):
        config = TrialConfig(1_000_000, seed=13)
        chosen, _ = simulate_path_selection(0.25, 5, config)
        single, _ = simulate_path_selection(0.25, 1, TrialConfig(1_000_000, seed=14))
        separation = math.hypot(chosen.std_err, single.std_err)
        assert chosen.mean < single.mean - 3 * separation

    def test_acceptance_margin_restricts_pool(self):
        err, acc = simulate_path_selection(
            0.25, 5, TrialConfig(400_000, seed=15), accept_margin=SQRT_PI / 6
        )
        assert acc.mean < 1.0
        # Selecting among HRM survivors cannot do worse than the single
        # postselected measurement error at the same margin.
        postselected = e_hrm(0.25, SQRT_PI / 6)
        pair_bound = 1 - (1 - postselected) ** 2
        assert err.mean < pair_bound + 4 * err.std_err

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_path_selection(0.25, 0, TrialConfig(10))
        with pytest.raises(ValueError):
            simulate_path_selection(-1.0, 5, TrialConfig(10))


class TestSimulateMajorityVote:
    def test_endpoints(self):
        assert simulate_majority_vote(0.0, TrialConfig(50_000, seed=16)).mean == 0.0

    def test_coin_flip_symmetry(self):
        estimate = simulate_majority_vote(0.5, TrialConfig(400_000, seed=17))
        assert abs(binomial_z(estimate, 0.5)) < 4

    def test_tenth(self):
        estimate = simulate_majority_vote(0.1, TrialConfig(400_000, seed=18))
        assert abs(binomial_z(estimate, 0.028)) < 4


class TestTreeOracles:
    def test_enumerated_majority_matches_formula(self):
        for e in (0.0, 0.1, 0.37, 1.0):
            assert enumerate_majority3(e) == pytest.approx(majority3(e), abs=1e-14)

    def test_enumerated_encoded_x_matches_formula(self):
        for e in (0.0, 0.01, 0.1, 0.45):
            assert enumerate_encoded_x_error(e) == pytest.approx(
                encoded_x_error(e), abs=1e-13
            )

    def test_station_simulation_matches_composition(self):
        spec = ProtocolSpec(Variant.TWO_WAY_CC, 1, 3.0, SQ15)
        comps = component_errors(
            spec, mode=DecodingMode.HRM_POSTSELECTED, prep_delta=0.0
        )
        estimate = simulate_tree_repeater(
            leaf_variance(spec),
            single_qubit_variance(spec),
            comps.e_prep,
            TrialConfig(1_000_000, seed=19),
        )
        assert abs(binomial_z(estimate, repeater_error(comps))) < 4
