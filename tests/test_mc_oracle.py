"""Monte Carlo estimators: determinism, batching semantics, and agreement
with the analytic quantities they mirror."""

import dataclasses
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkp_repeater import mc_oracle, tree_code
from gkp_repeater.hrm import e_hrm, p_suc
from gkp_repeater.mc_oracle import (
    McEstimate,
    TrialConfig,
    _odd,
    estimate_hrm,
    estimate_hrms,
    simulate_path_selection,
    simulate_segment,
    simulate_segments,
    simulate_tree_repeater,
)
from gkp_repeater.noise_core import SqueezingSpec
from gkp_repeater.protocols import ALL_VARIANTS, ProtocolSpec, Variant, segment_errors, segment_variance
from gkp_repeater.tree_code import (
    ComponentErrors,
    DecodingMode,
    component_errors,
    majority3,
    repeater_error,
    single_qubit_variance,
    encoded_x_error,
)
from gkp_repeater.hrm import HrmPolicy
from reference import (
    encoded_x_error_mp,
    enumerate_encoded_x_error,
    enumerate_majority3,
    normal_window_mass,
    pfail,
    reference_lattice_mass,
)

SQRT_PI = math.sqrt(math.pi)
SQ15 = SqueezingSpec.from_db(15.0)


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

    @pytest.mark.parametrize(
        "n, batch",
        [(1, 250_000), (250_000, 250_000), (500_000, 250_000), (1_000_001, 250_000), (7, 3)],
    )
    def test_batch_partition_covers_trials(self, n, batch):
        batches = TrialConfig(n_trials=n, batch_size=batch).batches()
        assert sum(size for _, size in batches) == n
        assert [i for i, _ in batches] == list(range(len(batches)))
        # The loop the closed form replaced.
        reference, remaining = [], n
        while remaining > 0:
            reference.append((len(reference), min(batch, remaining)))
            remaining -= reference[-1][1]
        assert batches == reference

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
        estimate = McEstimate(25, 1000)
        assert estimate.mean == 0.025
        assert estimate.std_err == pytest.approx(
            math.sqrt(0.025 * 0.975 / 1000), rel=1e-12
        )

    def test_batches_draw_from_sfc64(self):
        config = TrialConfig(10, seed=3)
        for index in (0, 1, 2**20):
            assert isinstance(config.rng(index).bit_generator, np.random.SFC64)

    @pytest.mark.parametrize("seed", [0, 7, 2**63])
    def test_adjacent_streams_are_uncorrelated(self, seed):
        # Neighbouring spawn keys (batches of one run) and neighbouring seeds
        # (mc-validate's rows) must not share structure.
        n = 100_000
        first = TrialConfig(1, seed=seed).rng(0).standard_normal(n)
        for neighbour in (TrialConfig(1, seed=seed).rng(1), TrialConfig(1, seed=seed + 1).rng(0)):
            corr = np.corrcoef(first, neighbour.standard_normal(n))[0, 1]
            assert abs(corr) < 4 / math.sqrt(n)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(n_trials=0)
        with pytest.raises(ValueError):
            TrialConfig(n_trials=10, batch_size=0)


#: (successes, n_effective) pairs: no trials, both ends, and counts whose
#: mean k/n is not a dyadic fraction.
COUNT_GRID = [(0, 0), (0, 1), (1, 1), (0, 7), (3, 7), (7, 7), (25, 1000), (359, 15644),
              (1, 1_000_000), (999_999, 1_000_000), (123_456_789, 987_654_321)]


def mean_and_std_err(successes: int, n: int) -> tuple[float, float]:
    """Reference mean k/n and standard error sqrt(mean (1 - mean) / n), both
    0 with no trials."""
    if n <= 0:
        return 0.0, 0.0
    mean = successes / n
    return mean, math.sqrt(mean * (1.0 - mean) / n)


class TestMcEstimate:
    """The estimate holds its count; mean, standard error and z derive from it."""

    def test_holds_only_its_count(self):
        assert [f.name for f in dataclasses.fields(McEstimate)] == ["successes", "n_effective"]

    @pytest.mark.parametrize("k, n", COUNT_GRID)
    def test_mean_and_std_err_are_the_stored_expressions(self, k, n):
        estimate = McEstimate(k, n)
        mean, std_err = mean_and_std_err(k, n)
        assert (estimate.mean, estimate.std_err) == (mean, std_err)
        assert math.copysign(1.0, estimate.mean) == math.copysign(1.0, mean)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_no_trials_never_pass(self, p):
        assert McEstimate(0, 0).z(p) == math.inf

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_certain_outcomes_need_the_exact_count(self, p):
        n = 1000
        assert McEstimate(round(n * p), n).z(p) == 0.0
        for k in (1, n - 1, n - round(n * p)):
            assert McEstimate(k, n).z(p) == math.inf

    @pytest.mark.parametrize("p", [1e-6, 0.028, 0.5, 0.97])
    @pytest.mark.parametrize("k, n", [pair for pair in COUNT_GRID if pair[1]])
    def test_interior_z_is_the_closed_form(self, k, n, p):
        closed = (k - n * p) / math.sqrt(n * p * (1.0 - p))
        assert McEstimate(k, n).z(p) == closed
        # The count that round(mean * n) recovers from the mean is the count.
        assert round(McEstimate(k, n).mean * n) == k


class TestEstimateHrm:
    def test_no_margin_accepts_everything(self):
        _, acceptance = estimate_hrm(0.3, 0.0, TrialConfig(200_000, seed=3))
        assert acceptance.mean == 1.0

    def test_matches_analytic_error(self):
        config = TrialConfig(500_000, seed=4)
        for sigma2, delta in [(0.125, 0.0), (0.25, SQRT_PI / 6), (0.0158, 0.0)]:
            err, acc = estimate_hrm(sigma2, delta, config)
            assert abs(err.z(e_hrm(sigma2, delta))) < 4
            assert abs(acc.z(p_suc(sigma2, delta))) < 4

    def test_large_variance_is_coin_flip(self):
        err, _ = estimate_hrm(5.0, 0.0, TrialConfig(400_000, seed=5))
        assert abs(err.z(0.5)) < 4

    def test_fifteen_db_matches_single_interval_form(self):
        # pfail(2 * 0.0158) ~ 1e-7-scale: the binomial check still applies.
        err, _ = estimate_hrm(0.05, 0.0, TrialConfig(1_000_000, seed=6))
        assert abs(err.z(pfail(0.05))) < 4

    def test_negative_margin_is_rejected_as_the_policy_rejects_it(self):
        with pytest.raises(ValueError) as excinfo:
            estimate_hrm(0.25, -0.1, TrialConfig(1_000, seed=7))
        assert str(excinfo.value) == "delta must lie in [0, sqrt(pi)/2), got -0.1"


class TestSimulateSegment:
    def test_noiseless_segment_never_flips(self):
        spec = ProtocolSpec(
            Variant.TWO_WAY_CC, 1, 0.0, SqueezingSpec(0.0)
        )
        flips = simulate_segment(spec, TrialConfig(100_000, seed=7))
        assert flips.mean == 0.0

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
    def test_matches_analytic_at_fifty_km(self, variant):
        spec = ProtocolSpec(variant, 1, 50.0, SQ15)
        flips = simulate_segment(spec, TrialConfig(400_000, seed=8))
        assert abs(flips.z(segment_errors(spec).ex)) < 4

    def test_second_round_combination_empirically(self):
        spec = ProtocolSpec(Variant.TWO_WAY_POST_SECOND_SQEC, 1, 60.0, SQ15)
        e_round = e_hrm(2 * SQ15.sigma2 + (1 - math.sqrt(spec.eta)) / math.sqrt(spec.eta), 0.0)
        flips = simulate_segment(spec, TrialConfig(400_000, seed=9))
        assert abs(flips.z(2 * e_round * (1 - e_round))) < 4

    def test_postselected_segment(self):
        spec = ProtocolSpec(
            Variant.TWO_WAY_CC, 1, 50.0, SQ15, hrm=HrmPolicy(SQRT_PI / 6)
        )
        flips = simulate_segment(spec, TrialConfig(400_000, seed=10))
        assert abs(flips.z(segment_errors(spec).ex)) < 4

    def test_postselected_second_round_segment(self):
        # Acceptance gates four outcomes; the flip estimate stays conditional.
        spec = ProtocolSpec(
            Variant.TWO_WAY_PRE_SECOND_SQEC, 1, 60.0, SQ15,
            hrm=HrmPolicy(SQRT_PI / 12),
        )
        flips = simulate_segment(spec, TrialConfig(400_000, seed=21))
        assert abs(flips.z(segment_errors(spec).ex)) < 4
        assert flips.n_effective < 400_000


class TestSimulatePathSelection:
    def test_single_pair_reduces_to_bell_error(self):
        sigma2 = 0.25
        err = simulate_path_selection(sigma2, 1, TrialConfig(400_000, seed=11))
        single = e_hrm(sigma2, 0.0)
        assert abs(err.z(1 - (1 - single) ** 2)) < 4
        assert err.n_effective == 400_000

    def test_zero_variance(self):
        err = simulate_path_selection(0.0, 5, TrialConfig(50_000, seed=12))
        assert err.mean == 0.0

    def test_selection_beats_single_pair(self):
        config = TrialConfig(1_000_000, seed=13)
        chosen = simulate_path_selection(0.25, 5, config)
        single = simulate_path_selection(0.25, 1, TrialConfig(1_000_000, seed=14))
        separation = math.hypot(chosen.std_err, single.std_err)
        assert chosen.mean < single.mean - 3 * separation

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_path_selection(0.25, 0, TrialConfig(10))
        with pytest.raises(ValueError):
            simulate_path_selection(-1.0, 5, TrialConfig(10))


class TestTreeOracles:
    def test_enumerated_majority_matches_formula(self):
        for e in (0.0, 0.1, 0.37, 1.0):
            assert enumerate_majority3(e) == pytest.approx(majority3(e), abs=1e-14)

    def test_enumerated_encoded_x_matches_formula(self):
        for e in (0.0, 1e-6, 0.01, 0.1, 0.45, 0.5):
            exact = enumerate_encoded_x_error(e)
            assert exact == pytest.approx(encoded_x_error(e), rel=1e-13, abs=0.0), e
            assert exact == pytest.approx(float(encoded_x_error_mp(e)), rel=1e-13, abs=0.0), e

    def test_station_simulation_matches_composition(self):
        spec = ProtocolSpec(Variant.TWO_WAY_CC, 1, 3.0, SQ15)
        comps = component_errors(
            spec, mode=DecodingMode.HRM_POSTSELECTED, prep_delta=0.0
        )
        estimate = simulate_tree_repeater(
            segment_variance(spec),
            single_qubit_variance(spec),
            comps.e_prep,
            TrialConfig(1_000_000, seed=19),
        )
        assert abs(estimate.z(repeater_error(comps))) < 4


def counts(estimate: McEstimate) -> tuple[int, int]:
    return estimate.successes, estimate.n_effective


class TestParityKernel:
    def test_odd_matches_floored_remainder(self):
        values = [0.0, 1.0, 2.0, 3.0, 1e300, math.inf, math.nan]
        for power in (52, 53, 63):
            base = 2.0**power
            values += [base - 2, base - 1, base, base + 1, base + 2]
        values += [math.nextafter(2.0**power, 0.0) for power in (53, 63)]
        values += [math.nextafter(2.0**power, math.inf) for power in (53, 63)]
        k = np.array(values + [-v for v in values])
        with np.errstate(invalid="ignore"):
            expected = np.abs(k) % 2 == 1
            got = _odd(k.copy())
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert got[values.index(1.0)] and got[values.index(3.0)]
        assert got[values.index(2.0**52 + 1)]

    def test_floored_remainder_stays_out_of_the_samplers(self):
        # numpy's floored float % is several times slower than fmod.
        source = Path(mc_oracle.__file__).read_text()
        assert "% 2" not in source

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 7.5])
    def test_scaled_standard_normal_is_generator_normal(self, sigma):
        config = TrialConfig(1, seed=41)
        expected_rng, rng = config.rng(0), config.rng(0)
        expected = expected_rng.normal(0.0, sigma, size=(1001, 3))
        got = mc_oracle._normal(rng, sigma, out=np.empty((1001, 3)))
        assert np.array_equal(got, expected)
        assert rng.random() == expected_rng.random()

    def test_majority_matches_vote_count(self):
        bits = np.array(list(itertools.product((False, True), repeat=3)))
        bits = np.stack([bits, bits[::-1]])
        expected = bits.sum(axis=-1) >= 2
        assert np.array_equal(mc_oracle._majority(bits.copy()), expected)
        out = np.empty(expected.shape, dtype=bool)
        assert mc_oracle._majority(bits.copy(), out=out) is out
        assert np.array_equal(out, expected)


def whole_batch_postselected(config, cases):
    """(accepted, flipped) of each case of the postselected kernel, drawing
    each batch in one piece with plain numpy: one trial-major
    ``standard_normal((n, values))`` that every case reads, ``np.rint`` to
    the nearest multiple and ``np.fmod`` for parity. A case is (draws,
    v_up), with one (sigmas, decides) entry per outcome; the outcome sums s
    times the trial's next normal for each s in sigmas."""
    totals = [[0, 0] for _ in cases]
    values = max(sum(len(sigmas) for sigmas, _ in draws) for draws, _ in cases)
    for index, n in config.batches():
        z = config.rng(index).standard_normal((n, values))
        for total, (draws, v_up) in zip(totals, cases):
            accepted = np.ones(n, dtype=bool)
            flipped = np.zeros(n, dtype=bool)
            column = 0
            for sigmas, decides in draws:
                x = sum(s * z[:, column + i] for i, s in enumerate(sigmas))
                column += len(sigmas)
                k = np.rint(x / SQRT_PI)
                accepted &= np.abs(x - k * SQRT_PI) < v_up
                if decides:
                    flipped ^= np.fmod(k, 2) != 0
            total[0] += int(accepted.sum())
            total[1] += int((flipped & accepted).sum())
    return [tuple(total) for total in totals]


def whole_batch_hrms(points, config):
    """(errors, accepted) and (accepted, trials) of each point of
    ``estimate_hrms``."""
    cases = [([((math.sqrt(sigma2),), True)], HrmPolicy(delta).v_up) for sigma2, delta in points]
    return [
        [(n_errors, n_accepted), (n_accepted, config.n_trials)]
        for n_accepted, n_errors in whole_batch_postselected(config, cases)
    ]


def whole_batch_hrm(sigma2, delta, config):
    """(errors, accepted) and (accepted, trials) of ``estimate_hrm``."""
    return whole_batch_hrms([(sigma2, delta)], config)[0]


def whole_batch_segments(specs, config, separate=False):
    """(flips, accepted) of each segment: per round, a q outcome that decides
    the flip and a p outcome that only gates. Each outcome is one normal at
    the summed variance of two teeth and the variant's channel-noise inputs,
    as ``simulate_segments`` draws it, or with separate the sum of one draw
    per tooth and per channel input."""
    cases = []
    for spec in specs:
        tooth = math.sqrt(spec.squeezing.sigma2)
        noise = math.sqrt(spec.variant.input_noise(spec.eta))
        sigmas = (tooth, tooth) + (noise,) * spec.variant.noisy_inputs
        if not separate:
            sigmas = (math.hypot(*sigmas),)
        cases.append(([(sigmas, True), (sigmas, False)] * spec.variant.rounds, spec.hrm.v_up))
    return [(n_flips, n_accepted) for n_accepted, n_flips in whole_batch_postselected(config, cases)]


def whole_batch_segment(spec, config, separate=False):
    """(flips, accepted) of ``simulate_segment``."""
    return whole_batch_segments([spec], config, separate)


UNEVEN = TrialConfig(20_000, seed=31, batch_size=7919)
SEGMENT_UNEVEN = ProtocolSpec(
    Variant.TWO_WAY_PRE_SECOND_SQEC, 1, 3.0, SQ15, hrm=HrmPolicy(SQRT_PI / 12)
)
SEGMENT_SECOND_ROUND = ProtocolSpec(
    Variant.TWO_WAY_POST_SECOND_SQEC, 1, 20.0, SQ15, hrm=HrmPolicy(SQRT_PI / 6)
)
#: mc-validate's hrm grid: three variances, each at no margin and two margins.
HRM_POINTS = [(s2, d) for s2 in (0.1, 0.125, 0.25) for d in (0.0, SQRT_PI / 10, SQRT_PI / 6)]
#: One shared segment call of 2, 4 and 2 outcome slots a trial: the
#: one-round segments read the first two of each trial's four normals.
SHARED_SEGMENTS = [
    ProtocolSpec(Variant.TWO_WAY_CC, 1, 3.0, SQ15, hrm=HrmPolicy(SQRT_PI / 6)),
    SEGMENT_UNEVEN,
    ProtocolSpec(Variant.ONE_WAY_PRE, 1, 3.0, SQ15),
]


class TestPinnedCounts:
    """Counts at inputs the mc-validate digest does not reach: several batches
    with an uneven last one, five pairs, a postselected second round and the
    station sampler, and a shared segment call of mixed slot counts. Drawn
    from SFC64 streams, trial-major, one normal per segment outcome at the
    summed variance, and only the station's rare events; each
    count equals an independent plain-numpy form on the same streams and
    lies within |z| <= 4 of its analytic value
    (``TestPinnedCountProvenance``). Any change of stream or kernel moves
    them."""

    def test_estimate_hrm_uneven_batches(self):
        err, acc = estimate_hrm(0.25, SQRT_PI / 6, UNEVEN)
        assert counts(err) == (348, 15615)
        assert counts(acc) == (15615, 20000)

    def test_segment_uneven_batches(self):
        assert counts(simulate_segment(SEGMENT_UNEVEN, UNEVEN)) == (28, 18695)

    def test_postselected_second_round_segment(self):
        assert counts(simulate_segment(SEGMENT_SECOND_ROUND, TrialConfig(20_000, seed=32))) == (1339, 4419)

    def test_shared_segment_call(self):
        shared = simulate_segments(SHARED_SEGMENTS, UNEVEN)
        assert [counts(e) for e in shared] == [(2, 17606), (28, 18695), (491, 20000)]

    def test_path_selection_with_margin(self):
        # The decoder has no margin: every trial keeps its likeliest pair.
        assert counts(simulate_path_selection(0.25, 5, TrialConfig(20_000, seed=33))) == (463, 20000)

    def test_path_selection_uneven_batches(self):
        assert counts(simulate_path_selection(0.25, 5, UNEVEN)) == (442, 20000)

    def test_tree_repeater(self):
        station = simulate_tree_repeater(0.12, 0.12, 0.01, TrialConfig(20_000, seed=34))
        assert counts(station) == (853, 20000)
        assert counts(simulate_tree_repeater(0.12, 0.12, 0.01, UNEVEN)) == (838, 20000)


def _station_error(v_leaf, v_single, e_prep):
    """Analytic per-station error of ``simulate_tree_repeater``'s inputs."""
    return repeater_error(ComponentErrors(e_hrm(v_leaf, 0.0), e_hrm(v_single, 0.0), e_prep))


def _segment_acceptance(spec):
    """Chance that all of a segment's postselected outcomes pass: two a round."""
    return p_suc(segment_variance(spec), spec.hrm.delta) ** (2 * spec.variant.rounds)


#: Each pinned run: the sampler call, its whole-batch form on the same
#: streams, and the analytic probability of each estimate.
PINNED_RUNS = {
    "hrm_uneven": (
        lambda: estimate_hrm(0.25, SQRT_PI / 6, UNEVEN),
        lambda: whole_batch_hrm(0.25, SQRT_PI / 6, UNEVEN),
        lambda: [e_hrm(0.25, SQRT_PI / 6), p_suc(0.25, SQRT_PI / 6)],
    ),
    "segment_uneven": (
        lambda: simulate_segment(SEGMENT_UNEVEN, UNEVEN),
        lambda: whole_batch_segment(SEGMENT_UNEVEN, UNEVEN),
        lambda: [segment_errors(SEGMENT_UNEVEN).ex],
    ),
    "segment_second_round": (
        lambda: simulate_segment(SEGMENT_SECOND_ROUND, TrialConfig(20_000, seed=32)),
        lambda: whole_batch_segment(SEGMENT_SECOND_ROUND, TrialConfig(20_000, seed=32)),
        lambda: [segment_errors(SEGMENT_SECOND_ROUND).ex],
    ),
    "hrm_shared": (
        lambda: [e for pair in estimate_hrms(HRM_POINTS, UNEVEN) for e in pair],
        lambda: [c for pair in whole_batch_hrms(HRM_POINTS, UNEVEN) for c in pair],
        lambda: [f(s2, d) for s2, d in HRM_POINTS for f in (e_hrm, p_suc)],
    ),
    "segments_shared": (
        lambda: simulate_segments(SHARED_SEGMENTS, UNEVEN),
        lambda: whole_batch_segments(SHARED_SEGMENTS, UNEVEN),
        lambda: [segment_errors(spec).ex for spec in SHARED_SEGMENTS],
    ),
    "path_selection": (
        lambda: simulate_path_selection(0.25, 5, TrialConfig(20_000, seed=33)),
        lambda: [unchunked_path_selection(0.25, 5, TrialConfig(20_000, seed=33))],
        lambda: [tree_code._path_selection_leaf_error(0.25, 5)],
    ),
    "path_selection_uneven": (
        lambda: simulate_path_selection(0.25, 5, UNEVEN),
        lambda: [unchunked_path_selection(0.25, 5, UNEVEN)],
        lambda: [tree_code._path_selection_leaf_error(0.25, 5)],
    ),
    "tree_repeater": (
        lambda: simulate_tree_repeater(0.12, 0.12, 0.01, TrialConfig(20_000, seed=34)),
        lambda: [rare_event_tree_repeater(0.12, 0.12, 0.01, TrialConfig(20_000, seed=34))],
        lambda: [_station_error(0.12, 0.12, 0.01)],
    ),
    "tree_repeater_uneven": (
        lambda: simulate_tree_repeater(0.12, 0.12, 0.01, UNEVEN),
        lambda: [rare_event_tree_repeater(0.12, 0.12, 0.01, UNEVEN)],
        lambda: [_station_error(0.12, 0.12, 0.01)],
    ),
}


class TestPinnedCountProvenance:
    """Where the pinned counts come from: the samplers' kernels give the
    counts of plain whole-batch numpy on the same ``config.rng`` streams, and
    each count is a plausible draw of its analytic probability."""

    @staticmethod
    def estimates(name):
        result = PINNED_RUNS[name][0]()
        return [result] if isinstance(result, McEstimate) else list(result)

    @pytest.mark.parametrize("name", PINNED_RUNS)
    def test_counts_equal_the_whole_batch_form(self, name):
        assert [counts(e) for e in self.estimates(name)] == PINNED_RUNS[name][1]()

    @pytest.mark.parametrize("name", PINNED_RUNS)
    def test_counts_lie_within_the_gate(self, name):
        for estimate, p in zip(self.estimates(name), PINNED_RUNS[name][2](), strict=True):
            assert abs(estimate.z(p)) <= 4

    def test_segment_acceptance_lies_within_the_gate(self):
        for spec, config in ((SEGMENT_UNEVEN, UNEVEN), (SEGMENT_SECOND_ROUND, TrialConfig(20_000, seed=32))):
            flips = simulate_segment(spec, config)
            assert abs(McEstimate(flips.n_effective, config.n_trials).z(_segment_acceptance(spec))) <= 4


#: Segments the summed-variance draw is checked on against separate draws:
#: the 7 variants at no margin, a margin, and a postselected second round.
SEPARATE_DRAW_SEGMENTS = [
    pytest.param(v, policy, id=f"{v.value}-delta={policy.delta:.4f}")
    for v, policy in [(v, HrmPolicy()) for v in ALL_VARIANTS]
    + [(Variant.TWO_WAY_CC, HrmPolicy(SQRT_PI / 6)), (Variant.TWO_WAY_PRE_SECOND_SQEC, HrmPolicy(SQRT_PI / 12))]
]


class TestSummedVarianceDraw:
    """``simulate_segment`` draws each outcome as one normal at the summed
    variance of its independent contributions. Drawing each tooth and each
    channel input separately samples the same distribution, and the sampler
    draws 2 * rounds normals a trial, no more."""

    @pytest.mark.parametrize("l0", [3.0, 50.0])
    @pytest.mark.parametrize("variant, policy", SEPARATE_DRAW_SEGMENTS)
    def test_flip_rate_matches_separate_draws(self, variant, policy, l0):
        spec = ProtocolSpec(variant, 1, l0, SQ15, hrm=policy)
        summed = simulate_segment(spec, TrialConfig(200_000, seed=51))
        [(k, n)] = whole_batch_segment(spec, TrialConfig(200_000, seed=52), separate=True)
        pooled = (summed.successes + k) / (summed.n_effective + n)
        spread = math.sqrt(pooled * (1.0 - pooled) * (1.0 / summed.n_effective + 1.0 / n))
        assert spread > 0.0
        assert abs(summed.mean - k / n) <= 4 * spread

    @pytest.mark.parametrize("variant, policy", SEPARATE_DRAW_SEGMENTS)
    def test_draws_two_normals_a_round(self, monkeypatch, variant, policy):
        config = TrialConfig(5_000, seed=53)
        used = []
        fresh = TrialConfig.rng

        def recording(self, batch_index):
            used.append(fresh(self, batch_index))
            return used[-1]

        monkeypatch.setattr(TrialConfig, "rng", recording)
        simulate_segment(ProtocolSpec(variant, 1, 3.0, SQ15, hrm=policy), config)
        expected = fresh(config, 0)
        expected.standard_normal(2 * variant.rounds * config.n_trials)
        assert len(used) == 1
        got, want = used[0].bit_generator.state, expected.bit_generator.state
        assert np.array_equal(got.pop("state")["state"], want.pop("state")["state"])
        assert got == want


class TestSharedDraw:
    """A multi-case call draws one standard normal per outcome slot and
    trial, trial-major, and every case scales it by its own sigma. A case's
    counts thus depend on its own inputs and the call's slot count alone: not
    on the chunk size, the workers or the other cases of its slot count."""

    CONFIG = TrialConfig(3_000, seed=54, batch_size=1001)

    def test_one_slot_cases_equal_their_one_case_calls(self):
        assert estimate_hrms(HRM_POINTS, UNEVEN) == [estimate_hrm(s2, d, UNEVEN) for s2, d in HRM_POINTS]

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_segments_of_one_slot_count_equal_their_one_case_calls(self, rounds):
        specs = [
            ProtocolSpec(variant, 1, 3.0, SQ15, hrm=policy)
            for variant in ALL_VARIANTS
            if variant.rounds == rounds
            for policy in (HrmPolicy(), HrmPolicy(SQRT_PI / 6))
        ]
        assert simulate_segments(specs, UNEVEN) == [simulate_segment(spec, UNEVEN) for spec in specs]

    @pytest.mark.parametrize("chunk", [1, 7, 1000, 2**20])
    def test_counts_do_not_depend_on_the_chunk_size(self, monkeypatch, chunk):
        monkeypatch.setattr(mc_oracle, "_CHUNK_TRIALS", chunk)
        hrm = estimate_hrms(HRM_POINTS[:3], self.CONFIG)
        assert [[counts(e) for e in pair] for pair in hrm] == whole_batch_hrms(HRM_POINTS[:3], self.CONFIG)
        segments = simulate_segments(SHARED_SEGMENTS, self.CONFIG)
        assert [counts(e) for e in segments] == whole_batch_segments(SHARED_SEGMENTS, self.CONFIG)

    def test_a_call_draws_the_slots_of_its_longest_case(self, monkeypatch):
        used = []
        fresh = TrialConfig.rng

        def recording(self, batch_index):
            used.append(fresh(self, batch_index))
            return used[-1]

        monkeypatch.setattr(TrialConfig, "rng", recording)
        config = TrialConfig(5_000, seed=53)
        simulate_segments(SHARED_SEGMENTS, config)
        estimate_hrms(HRM_POINTS, config)
        assert len(used) == 2
        for rng, slots in zip(used, (4, 1)):
            expected = fresh(config, 0)
            expected.standard_normal(slots * config.n_trials)
            got, want = rng.bit_generator.state, expected.bit_generator.state
            assert np.array_equal(got.pop("state")["state"], want.pop("state")["state"])
            assert got == want

    def test_no_cases_draw_nothing(self):
        assert estimate_hrms([], self.CONFIG) == []
        assert simulate_segments([], self.CONFIG) == []

    def test_every_point_is_validated(self):
        with pytest.raises(ValueError, match="sigma2 must be nonnegative"):
            estimate_hrms([(0.1, 0.0), (-0.1, 0.0)], self.CONFIG)


def unchunked_path_selection(sigma2, n_pairs, config):
    """The path-selection kernel drawing each batch in one piece."""
    errors = 0
    for index, n in config.batches():
        x = config.rng(index).normal(0.0, math.sqrt(sigma2), size=(n, n_pairs, 2))
        k = np.rint(x / SQRT_PI)
        residue = x - k * SQRT_PI
        selected = np.argmin(np.sum(residue**2, axis=2), axis=1)
        k_sel = np.take_along_axis(k, selected[:, None, None], axis=1)[:, 0, :]
        errors += int(np.any(np.abs(k_sel) % 2 == 1, axis=1).sum())
    return errors, config.n_trials


class TestPathSelectionChunks:
    @pytest.mark.parametrize("batch_size", [1, 3, 64, 1001])
    def test_counts_equal_one_draw_per_batch(self, batch_size):
        config = TrialConfig(3_000, seed=35, batch_size=batch_size)
        err = simulate_path_selection(0.3, 5, config)
        assert counts(err) == unchunked_path_selection(0.3, 5, config)

    def test_memory_does_not_grow_with_pairs(self):
        def peak(n_pairs):
            config = TrialConfig(4_000, seed=36, batch_size=4_000)
            simulate_path_selection(0.3, n_pairs, config)  # lazy imports off the books
            tracemalloc.start()
            try:
                simulate_path_selection(0.3, n_pairs, config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # One unchunked batch of 500 pairs would need 32 MB for the draws alone.
        assert peak(500) < 4 * peak(1)


def station_counts(v_leaf, v_single, e_prep, config, odd_outcomes, happens):
    """(failures, trials) of the station kernel in plain numpy. Per batch it
    takes the parities of outcomes at variance v from odd_outcomes(rng, v, n,
    per_trial), an (n, per_trial) bool array, and the prep errors from
    happens(rng, e_prep, n), in the sampler's order: the leaf, the prep, the
    ancillas, then 4 x (nodes, ancillas)."""
    failures = 0
    for index, n in config.batches():
        rng = config.rng(index)
        fail = odd_outcomes(rng, v_leaf, n, 1)[:, 0]
        fail |= happens(rng, e_prep, n)
        fail |= np.any(odd_outcomes(rng, v_single, n, 9).reshape(n, 3, 3).sum(axis=2) >= 2, axis=1)
        for _ in range(4):
            node = odd_outcomes(rng, v_single, n, 3)
            block_wrong = node | np.any(odd_outcomes(rng, v_single, n, 9).reshape(n, 3, 3), axis=2)
            fail |= block_wrong.sum(axis=1) >= 2
        failures += int(fail.sum())
    return failures, config.n_trials


def dense_odd(rng, v, n, per_trial):
    """Parities of an (n, per_trial) block of N(0, v) outcomes drawn whole."""
    return np.abs(np.rint(rng.normal(0.0, math.sqrt(v), size=(n, per_trial)) / SQRT_PI)) % 2 == 1


def unchunked_tree_repeater(v_leaf, v_single, e_prep, config):
    """The station kernel drawing every outcome and prep uniform of a batch,
    each block in one piece: the dense form."""
    return station_counts(v_leaf, v_single, e_prep, config, dense_odd, lambda rng, p, n: rng.random(n) < p)


def tail_share(v_single):
    """(sigma, t, q) of v_single outcomes: only those with |z| > t =
    (sqrt(pi)/2)/sigma can be odd, a share q = erfc(t / sqrt(2))."""
    sigma = math.sqrt(v_single)
    t = SQRT_PI / 2 / sigma if sigma else math.inf
    return sigma, t, math.erfc(t / math.sqrt(2.0))


def rare_event_tree_repeater(v_leaf, v_single, e_prep, config):
    """The station kernel drawing only its events. Events of probability q
    among some values are a Binomial(values, q) count at positions drawn
    uniformly without replacement, sorted. The prep errors are the events at
    q = e_prep in a batch. The outcomes of each chunk of whole trials, at
    most max(min(batch_size, n_trials), 9) values, may be odd at the events
    |z| > t of ``tail_share``, whose magnitudes come from Robert's rejection,
    one (U1, U2) pair for each magnitude still missing a round."""
    size = max(min(config.batch_size, config.n_trials), 9)

    def events(rng, q, values):
        return np.sort(rng.choice(values, rng.binomial(values, q), replace=False, shuffle=False))

    def happens(rng, q, n):
        fails = np.zeros(n, dtype=bool)
        fails[events(rng, q, n)] = True
        return fails

    def odd_outcomes(rng, v, n, per_trial):
        sigma, t, q = tail_share(v)
        lam = (t + math.hypot(t, 2.0)) / 2
        odd = np.zeros(n * per_trial, dtype=bool)
        chunk = size // per_trial * per_trial
        for start in range(0, odd.size, chunk):
            positions = events(rng, q, min(chunk, odd.size - start))
            magnitudes = np.empty(0)
            while magnitudes.size < positions.size:
                u1, u2 = rng.random((2, positions.size - magnitudes.size))
                x = t - np.log1p(-u1) / lam
                magnitudes = np.append(magnitudes, x[u2 <= np.exp(-((x - lam) ** 2) / 2)])
            odd[start + positions] = np.abs(np.rint(sigma * magnitudes / SQRT_PI)) % 2 == 1
        return odd.reshape(n, per_trial)

    return station_counts(v_leaf, v_single, e_prep, config, odd_outcomes, happens)


def traced_peak(sampler, *args) -> int:
    """tracemalloc peak of one sampler call, after a warm-up call that takes
    the lazy imports off the books."""
    sampler(*args)
    tracemalloc.start()
    try:
        sampler(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTreeRepeaterChunks:
    @pytest.mark.parametrize("batch_size", [1, 3, 64, 1001])
    def test_counts_equal_one_draw_per_batch(self, batch_size):
        config = TrialConfig(3_000, seed=37, batch_size=batch_size)
        station = simulate_tree_repeater(0.12, 0.1, 0.01, config)
        assert counts(station) == rare_event_tree_repeater(0.12, 0.1, 0.01, config)

    @pytest.mark.parametrize("v_single, bound", [(0.12, 2.0), (0.333, 2.0), (1.0, 2.0), (30.0, 2.1)])
    def test_batch_memory_stays_near_a_one_value_batch(self, v_single, bound):
        """The peak of a 250,000-trial station call against a one-value batch,
        three float64 and three bool arrays of batch_size values, ~1.8 MB.
        The events grow with q (0.01 to 0.87 here), up to a few arrays of one
        chunk; unchunked, a station batch peaked at ~40 MB."""
        config = TrialConfig(250_000, seed=38)
        station = traced_peak(simulate_tree_repeater, 0.12, v_single, 0.01, config)
        assert station < bound * 27 * config.batch_size


def crafted_draws(sigma: float) -> np.ndarray:
    """Standard normals where the station's parity is easiest to get wrong at
    sigma, with both signs: the 17 floats around its candidate cut-off
    (sqrt(pi)/2)/sigma * (1 - 1e-9), around q sqrt(pi)/sigma for q = 0.5,
    1.5 and 2.5, where rint ties go half to even, and around 2 sqrt(pi)/sigma,
    plus draws across the even window about 2 sqrt(pi)/sigma and zeros."""
    centres = [SQRT_PI / 2 / sigma * (1.0 - 1e-9)]
    centres += [q * SQRT_PI / sigma for q in (0.5, 1.5, 2.0, 2.5)]
    draws = [0.0]
    for centre in centres:
        below = above = centre
        draws.append(centre)
        for _ in range(8):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            draws += [below, above]
    draws += [q * SQRT_PI / sigma for q in (1.51, 1.6, 1.9, 2.1, 2.4, 2.49)]
    draws = np.array(draws)
    return np.concatenate([draws, -draws])


class TestStationCandidates:
    """Only the outcomes past sqrt(pi)/2 can be odd. The station draws only
    these, and reduces each by the dense form, ``_odd(rint(sigma |z| /
    sqrt(pi)))``: its parities are those of every draw reduced alike, and its
    counts equal the plain rare-event form's."""

    @pytest.mark.parametrize("v", [0.0511, 0.12, 2.0, 30.0])
    def test_parities_at_the_cut_off_and_the_ties(self, monkeypatch, v):
        sigma = math.sqrt(v)
        z = crafted_draws(sigma)
        z = z[: z.size // 2]
        quotients = z * sigma / SQRT_PI
        # Exact ties at 0.5 and 2.5 are crafted; no float outcome divides to
        # exactly 1.5, so its neighbours stand in for that tie.
        assert {0.5, 2.5} <= set(quotients)
        dense = _odd(np.rint(quotients))
        assert 0 < dense.sum() < dense.size
        monkeypatch.setattr(mc_oracle, "_events", lambda rng, q, values: np.arange(values))
        monkeypatch.setattr(mc_oracle, "_tail_magnitudes", lambda rng, t, k: z[:k].copy())
        assert np.array_equal(mc_oracle._odd_outcomes(None, sigma, z.size), np.flatnonzero(dense))

    @settings(max_examples=60, deadline=None)
    @given(
        v_leaf=st.floats(0.0, 30.0),
        v_single=st.floats(0.0, 30.0),
        e_prep=st.floats(0.0, 1.0),
        n_trials=st.integers(1, 300),
        batch_size=st.sampled_from([1, 7, 1000, TrialConfig(1).batch_size]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(0.0, 0.0, 0.0, 300, 7, 0)
    @example(30.0, 30.0, 1.0, 300, 1000, 1)
    # Past the range: at sigma = 1e15 the cut-off is ~9e-16, so every draw
    # is a candidate.
    @example(1e30, 1e30, 0.5, 300, 7, 2)
    def test_counts_equal_the_reference_form(self, v_leaf, v_single, e_prep, n_trials, batch_size, seed):
        config = TrialConfig(n_trials, seed=seed, batch_size=batch_size)
        station = simulate_tree_repeater(v_leaf, v_single, e_prep, config)
        assert counts(station) == rare_event_tree_repeater(v_leaf, v_single, e_prep, config)


class TestTwoStageLaw:
    """The station draws only the outcomes that can be odd: a binomial count
    of candidates |z| > t, their positions and their tail magnitudes. That
    is the dense draw's law, on another stream, at every q."""

    @pytest.mark.parametrize("v", [0.222, 1.0, 30.0])
    def test_odd_counts_agree_with_the_dense_draw(self, v):
        """At q = 0.06, 0.38 and 0.87."""
        sigma = math.sqrt(v)
        values, seeds = 65_536, range(40)
        dense = rare = 0
        for seed in seeds:
            config = TrialConfig(1, seed=seed)
            dense += int(dense_odd(config.rng(0), v, values, 1).sum())
            rare += mc_oracle._odd_outcomes(config.rng(1), sigma, values).size
        n = values * len(seeds)
        pooled = (dense + rare) / (2 * n)
        assert abs(rare - dense) <= 4 * math.sqrt(2 * n * pooled * (1 - pooled))
        assert abs(McEstimate(rare, n).z(reference_lattice_mass(v, 0.0, odd=True))) <= 4

    def test_station_failures_agree_with_the_dense_draw(self):
        """At v_single = 0.25, where 58% of the trials fail."""
        n = 100_000
        station = simulate_tree_repeater(0.12, 0.25, 0.01, TrialConfig(n, seed=65))
        dense, _ = unchunked_tree_repeater(0.12, 0.25, 0.01, TrialConfig(n, seed=66))
        pooled = (station.successes + dense) / (2 * n)
        assert 0.05 < pooled < 0.95
        assert abs(station.successes - dense) <= 4 * math.sqrt(2 * n * pooled * (1 - pooled))
        assert abs(station.z(_station_error(0.12, 0.25, 0.01))) <= 4

    @pytest.mark.parametrize("t", [0.0, 0.162, 0.5, 1.534, 3.92])
    def test_tail_magnitudes_follow_the_erfc_windows(self, t):
        """Magnitudes conditioned on |z| > t, binned at t + (0, 1/4, 1/2, 1, 2,
        4) / max(t, 1), and for t > 0 their odd share, against erfc masses."""
        n = 200_000
        x = mc_oracle._tail_magnitudes(TrialConfig(1, seed=61).rng(0), t, n)
        assert x.size == n and x.min() >= t
        tail = normal_window_mass(t, math.inf)
        edges = [t + e / max(t, 1.0) for e in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)] + [math.inf]
        for lo, hi in zip(edges, edges[1:]):
            k = int(np.count_nonzero((lo <= x) & (x < hi)))
            assert abs(McEstimate(k, n).z(normal_window_mass(lo, hi) / tail)) <= 4, (lo, hi)
        # At t = 0 sigma would be infinite.
        sigma = SQRT_PI / 2 / t if t else 1.0
        odd = int(np.count_nonzero(_odd(np.rint(sigma * x / SQRT_PI))))
        assert not t or abs(McEstimate(odd, n).z(reference_lattice_mass(sigma**2, 0.0, odd=True) / tail)) <= 4

    @pytest.mark.parametrize("values, p", [(65_536, 8.8e-5), (65_536, 0.124), (7, 0.1), (65_536, 0.5), (65_536, 1.0)])
    def test_candidate_count_is_the_legacy_binomial(self, values, p):
        """Generator.binomial draws as RandomState.binomial, whose algorithm
        NEP 19 freezes, on one SFC64 stream: by inversion below 30 expected
        candidates, by BTPE above."""
        ours, legacy = np.random.SFC64(62), np.random.SFC64(62)
        got = np.random.Generator(ours).binomial(values, p, 1000)
        assert np.array_equal(got, np.random.RandomState(legacy).binomial(values, p, 1000))
        assert ours.random_raw() == legacy.random_raw()

    @pytest.mark.parametrize("values, k", [(65_536, 6), (9_000, 1_000), (65_536, 8_000)])
    def test_positions_are_floyds_sample_or_a_tail_shuffle(self, values, k):
        """choice(values, k, replace=False, shuffle=False) is Floyd's sample
        over ``integers``, or past k > values / 20 with values > 10,000 the
        last k of a Fisher-Yates shuffle of the tail."""
        ours, expected = TrialConfig(1, seed=63).rng(0), TrialConfig(1, seed=63).rng(0)
        got = ours.choice(values, k, replace=False, shuffle=False)
        if values > 10_000 and k > values // 20:
            pool = list(range(values))
            for i in reversed(range(max(values - k, 1), values)):
                j = int(expected.integers(0, i, endpoint=True))
                pool[i], pool[j] = pool[j], pool[i]
            want = pool[values - k :]
        else:
            want, taken = [], set()
            for j in range(values - k, values):
                pick = int(expected.integers(0, j, endpoint=True))
                want.append(j if pick in taken else pick)
                taken.add(want[-1])
        assert got.tolist() == want
        assert ours.random() == expected.random()


class TestWorkArrays:
    """A sampler call draws and reduces every batch into work arrays it makes
    once. Beyond those arrays it allocates less than one float64 per trial
    of a batch; the station's events grow with q, so its case is small q."""

    CONFIG = TrialConfig(200_000, seed=42, batch_size=50_000)
    SAMPLERS = {
        "estimate_hrm": lambda c: estimate_hrm(0.25, SQRT_PI / 6, c),
        "simulate_segment": lambda c: simulate_segment(
            ProtocolSpec(Variant.TWO_WAY_PRE_SECOND_SQEC, 1, 3.0, SQ15, hrm=HrmPolicy(SQRT_PI / 12)), c
        ),
        "estimate_hrms": lambda c: estimate_hrms(HRM_POINTS, c),
        "simulate_segments": lambda c: simulate_segments(SHARED_SEGMENTS, c),
        "simulate_path_selection_1": lambda c: simulate_path_selection(0.25, 1, c),
        "simulate_path_selection_5": lambda c: simulate_path_selection(0.25, 5, c),
        "simulate_tree_repeater": lambda c: simulate_tree_repeater(0.12, 0.12, 0.01, c),
    }

    @staticmethod
    def record_work_arrays(monkeypatch) -> list[int]:
        """Make each call's work arrays as before, and list their bytes."""
        made = []
        work_arrays = mc_oracle._work_arrays

        def recording(floats, bools):
            arrays = work_arrays(floats, bools)
            made.append(sum(a.nbytes for a in arrays[0] + arrays[1]))
            return arrays

        monkeypatch.setattr(mc_oracle, "_work_arrays", recording)
        return made

    @pytest.mark.parametrize("name", SAMPLERS)
    def test_workers_allocate_little_beyond_their_work_arrays(self, monkeypatch, name):
        made = self.record_work_arrays(monkeypatch)
        peak = traced_peak(self.SAMPLERS[name], self.CONFIG)
        # One set of arrays for each of the two calls, the same each time.
        assert len(made) == 2 and made[0] == made[1]
        assert peak - made[1] < 8 * self.CONFIG.batch_size

    @pytest.mark.parametrize("name", SAMPLERS)
    def test_default_batch_work_arrays_fit_a_2_mib_l2_cache(self, monkeypatch, name):
        made = self.record_work_arrays(monkeypatch)
        self.SAMPLERS[name](TrialConfig(TrialConfig(1).batch_size, seed=47))
        assert made and max(made) <= 2 * 2**20


    def test_shared_draw_arrays_at_the_default_batch(self, monkeypatch):
        """The arrays of a shared postselected call: 0.55 MiB with
        one outcome slot, 0.92 MiB with four, within the 1.69 MiB the
        one-case kernel held at the default batch."""
        made = self.record_work_arrays(monkeypatch)
        config = TrialConfig(TrialConfig(1).batch_size, seed=47)
        estimate_hrms(HRM_POINTS, config)
        simulate_segments(SHARED_SEGMENTS, config)
        assert made == [573_440, 966_656]


class TestCheapKernels:
    """_odd's h - floor(h) test gives exactly the booleans of the floored
    remainder it replaces."""

    @staticmethod
    def odd_with_scratch(k):
        out = np.empty(k.shape, dtype=bool)
        tmp = np.empty_like(k)
        with np.errstate(invalid="ignore"):
            got = _odd(k.copy(), out=out, tmp=tmp)
        assert got is out
        return got

    @staticmethod
    def floored_odd(k):
        with np.errstate(invalid="ignore"):
            return np.abs(k) % 2 == 1

    def test_random_integer_valued_floats(self):
        rng = np.random.default_rng(43)
        n = 1_000_000
        k = np.rint(rng.standard_normal(n) * 10.0 ** rng.uniform(0.0, 18.0, n))
        assert np.array_equal(self.odd_with_scratch(k), self.floored_odd(k))
        assert 0.3 < np.mean(self.odd_with_scratch(k)) < 0.5

    def test_non_integers_and_subnormals(self):
        rng = np.random.default_rng(44)
        tiny = np.finfo(float).smallest_normal
        values = np.concatenate([
            rng.uniform(-1e6, 1e6, 100_000),
            np.arange(-1000, 1000) + 0.5,
            np.nextafter(np.arange(-999.0, 1000.0, 2.0), np.inf),
            np.nextafter(np.arange(-999.0, 1000.0, 2.0), -np.inf),
            rng.uniform(0.0, tiny, 10_000),
            [5e-324, 2 * 5e-324, 3 * 5e-324, np.nextafter(tiny, 0.0), tiny, 0.5, 1.5],
        ])
        k = np.concatenate([values, -values])
        got = self.odd_with_scratch(k)
        assert np.array_equal(got, self.floored_odd(k))
        assert not got.any()

    def test_near_the_end_of_exact_integers(self):
        j = np.arange(-64.0, 65.0)
        k = np.concatenate([2.0**52 + j, 2.0**53 + j, [np.inf, np.nan, 0.0, -0.0]])
        k = np.concatenate([k, -k])
        got = self.odd_with_scratch(k)
        assert np.array_equal(got, self.floored_odd(k))
        assert got[:129].sum() == 64  # every other integer below 2**53 is odd

    def test_scratch_path_allocates_nothing(self):
        k = np.rint(np.random.default_rng(45).standard_normal(100_000) * 5)
        out = np.empty(k.shape, dtype=bool)
        tmp = np.empty_like(k)
        _odd(k.copy(), out=out, tmp=tmp)  # warm-up
        tracemalloc.start()
        try:
            _odd(k, out=out, tmp=tmp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024

    def test_fmod_stays_out_of_the_samplers(self):
        source = Path(mc_oracle.__file__).read_text()
        assert "np.fmod(" not in source
