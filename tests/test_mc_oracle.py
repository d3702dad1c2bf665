"""Monte Carlo estimators: determinism, batching semantics, and agreement
with the analytic quantities they mirror."""

import concurrent.futures
import dataclasses
import inspect
import itertools
import math
import os
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gkp_repeater import mc_oracle
from gkp_repeater.hrm import e_hrm, p_suc
from gkp_repeater.mc_oracle import (
    McEstimate,
    TrialConfig,
    _odd,
    estimate_hrm,
    simulate_majority_vote,
    simulate_path_selection,
    simulate_segment,
    simulate_tree_repeater,
)
from gkp_repeater.noise_core import SqueezingSpec
from gkp_repeater.protocols import ALL_VARIANTS, ProtocolSpec, Variant, segment_errors, segment_variance
from gkp_repeater.tree_code import (
    DecodingMode,
    component_errors,
    majority3,
    repeater_error,
    single_qubit_variance,
    encoded_x_error,
)
from gkp_repeater.hrm import HrmPolicy
from reference import encoded_x_error_mp, enumerate_encoded_x_error, enumerate_majority3, pfail

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


class TestSimulateMajorityVote:
    def test_endpoints(self):
        assert simulate_majority_vote(0.0, TrialConfig(50_000, seed=16)).mean == 0.0

    def test_coin_flip_symmetry(self):
        estimate = simulate_majority_vote(0.5, TrialConfig(400_000, seed=17))
        assert abs(estimate.z(0.5)) < 4

    def test_tenth(self):
        estimate = simulate_majority_vote(0.1, TrialConfig(400_000, seed=18))
        assert abs(estimate.z(0.028)) < 4


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


class TestPinnedCounts:
    """Counts at inputs the mc-validate digest does not reach: several batches
    with an uneven last one, five pairs, a postselected second round and the
    station sampler. Computed before the parity kernel was rewritten (the
    five-pair counts before path selection lost its margin); any change of
    stream or kernel moves them."""

    UNEVEN = TrialConfig(20_000, seed=31, batch_size=7919)

    def test_estimate_hrm_uneven_batches(self):
        err, acc = estimate_hrm(0.25, SQRT_PI / 6, self.UNEVEN)
        assert counts(err) == (359, 15644)
        assert counts(acc) == (15644, 20000)

    def test_segment_uneven_batches(self):
        spec = ProtocolSpec(
            Variant.TWO_WAY_PRE_SECOND_SQEC, 1, 3.0, SQ15, hrm=HrmPolicy(SQRT_PI / 12)
        )
        assert counts(simulate_segment(spec, self.UNEVEN)) == (42, 18604)

    def test_postselected_second_round_segment(self):
        spec = ProtocolSpec(
            Variant.TWO_WAY_POST_SECOND_SQEC, 1, 20.0, SQ15, hrm=HrmPolicy(SQRT_PI / 6)
        )
        assert counts(simulate_segment(spec, TrialConfig(20_000, seed=32))) == (1292, 4222)

    def test_path_selection_with_margin(self):
        # The decoder has no margin: every trial keeps its likeliest pair.
        assert counts(simulate_path_selection(0.25, 5, TrialConfig(20_000, seed=33))) == (482, 20000)

    def test_path_selection_uneven_batches(self):
        assert counts(simulate_path_selection(0.25, 5, self.UNEVEN)) == (465, 20000)

    def test_majority_vote_uneven_batches(self):
        assert counts(simulate_majority_vote(0.1, self.UNEVEN)) == (559, 20000)

    def test_tree_repeater(self):
        station = simulate_tree_repeater(0.12, 0.12, 0.01, TrialConfig(20_000, seed=34))
        assert counts(station) == (794, 20000)
        assert counts(simulate_tree_repeater(0.12, 0.12, 0.01, self.UNEVEN)) == (845, 20000)


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


def unchunked_tree_repeater(v_leaf, v_single, e_prep, config):
    """The station kernel drawing each (n, 3, 3) and (n, 3) block in one piece."""
    s_single = math.sqrt(v_single)
    failures = 0
    for index, n in config.batches():
        rng = config.rng(index)

        def wrong_bits(shape):
            return np.abs(np.rint(rng.normal(0.0, s_single, size=shape) / SQRT_PI)) % 2 == 1

        fail = np.abs(np.rint(rng.normal(0.0, math.sqrt(v_leaf), size=n) / SQRT_PI)) % 2 == 1
        fail |= rng.random(size=n) < e_prep
        fail |= np.any(wrong_bits((n, 3, 3)).sum(axis=2) >= 2, axis=1)
        for _ in range(4):
            node = wrong_bits((n, 3))
            block_wrong = node | np.any(wrong_bits((n, 3, 3)), axis=2)
            fail |= block_wrong.sum(axis=1) >= 2
        failures += int(fail.sum())
    return failures, config.n_trials


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
        assert counts(station) == unchunked_tree_repeater(0.12, 0.1, 0.01, config)

    def test_batch_memory_stays_near_a_one_value_batch(self):
        config = TrialConfig(250_000, seed=38)
        station = traced_peak(simulate_tree_repeater, 0.12, 0.12, 0.01, config)
        hrm = traced_peak(estimate_hrm, 0.12, SQRT_PI / 6, config)
        # Unchunked, the station batch peaked at ~40 MB against ~6 MB.
        assert station < 2 * hrm


class TestThreadPool:
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_pinned_counts_do_not_depend_on_workers(self, monkeypatch, cpus):
        pool_sizes = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(mc_oracle, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(mc_oracle, "ThreadPoolExecutor", RecordingPool)
        pinned = TestPinnedCounts()
        pinned.test_estimate_hrm_uneven_batches()
        pinned.test_segment_uneven_batches()
        pinned.test_path_selection_uneven_batches()
        pinned.test_majority_vote_uneven_batches()
        pinned.test_tree_repeater()
        # UNEVEN has three batches, so three CPUs get three workers.
        assert max(pool_sizes) == cpus

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert mc_oracle._usable_cpus() == (os.cpu_count() or 1)

    def test_traced_functions_run_on_the_main_thread(self, monkeypatch):
        """bench/tracer.py keeps one span stack that is not thread-safe, so the
        worker threads may only draw and count: every public function of the
        traced modules must run on the calling thread."""
        on_main = []

        def recording(name, fn, log):
            def wrapper(*args, **kwargs):
                log.append((name, threading.current_thread() is threading.main_thread()))
                return fn(*args, **kwargs)

            return wrapper

        wrappers = {}
        for layer in ("noise_core", "hrm", "protocols", "tree_code", "mc_oracle"):
            module = sys.modules[f"gkp_repeater.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = recording(f"{layer}.{attr}", obj, on_main)
        for name, module in list(sys.modules.items()):
            if name == "gkp_repeater" or name.startswith("gkp_repeater."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        monkeypatch.setattr(module, attr, wrappers[obj])
        # A wrapped private kernel shows the workers really ran off the main thread.
        kernel_threads = []
        monkeypatch.setattr(mc_oracle, "_odd", recording("_odd", _odd, kernel_threads))
        monkeypatch.setattr(mc_oracle, "_usable_cpus", lambda: 3)

        config = TrialConfig(20_000, seed=39, batch_size=7919)
        spec = ProtocolSpec(
            Variant.TWO_WAY_PRE_SECOND_SQEC, 1, 3.0, SQ15, hrm=HrmPolicy(SQRT_PI / 12)
        )
        mc_oracle.estimate_hrm(0.25, SQRT_PI / 6, config)
        mc_oracle.simulate_segment(spec, config)
        mc_oracle.simulate_path_selection(0.25, 5, config)
        mc_oracle.simulate_majority_vote(0.1, config)
        mc_oracle.simulate_tree_repeater(0.12, 0.12, 0.01, config)

        called = {name for name, _ in on_main}
        samplers = (
            "estimate_hrm",
            "simulate_segment",
            "simulate_path_selection",
            "simulate_majority_vote",
            "simulate_tree_repeater",
        )
        assert {f"mc_oracle.{name}" for name in samplers} <= called
        assert [name for name, main in on_main if not main] == []
        assert not all(main for _, main in kernel_threads)


class TestWorkArrays:
    """The workers draw and reduce into work arrays made before the pool
    starts, so a sampler call holds the same memory however its threads are
    scheduled. Beyond those arrays, the workers together allocate less than
    one float64 per trial of a batch."""

    CONFIG = TrialConfig(200_000, seed=42, batch_size=50_000)
    SAMPLERS = {
        "estimate_hrm": lambda c: estimate_hrm(0.25, SQRT_PI / 6, c),
        "simulate_segment": lambda c: simulate_segment(
            ProtocolSpec(Variant.TWO_WAY_PRE_SECOND_SQEC, 1, 3.0, SQ15, hrm=HrmPolicy(SQRT_PI / 12)), c
        ),
        "simulate_path_selection_1": lambda c: simulate_path_selection(0.25, 1, c),
        "simulate_path_selection_5": lambda c: simulate_path_selection(0.25, 5, c),
        "simulate_majority_vote": lambda c: simulate_majority_vote(0.1, c),
        "simulate_tree_repeater": lambda c: simulate_tree_repeater(0.12, 0.12, 0.01, c),
    }

    @pytest.mark.parametrize("name", SAMPLERS)
    def test_workers_allocate_little_beyond_their_work_arrays(self, monkeypatch, name):
        made = []
        work_arrays = mc_oracle._work_arrays

        def recording(floats, bools):
            arrays = work_arrays(floats, bools)
            made.append(sum(a.nbytes for a in arrays[0] + arrays[1]))
            return arrays

        monkeypatch.setattr(mc_oracle, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(mc_oracle, "_work_arrays", recording)
        peak = traced_peak(self.SAMPLERS[name], self.CONFIG)
        # Two workers for each of the two calls, the same arrays each time.
        assert len(made) == 4 and made[:2] == made[2:]
        assert peak - sum(made[2:]) < 8 * self.CONFIG.batch_size


class TestCheapKernels:
    """_odd's h - floor(h) test and _or_last's slice-wise ors give exactly
    the booleans of the numpy calls they replace."""

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

    @pytest.mark.parametrize("shape", [(1001, 3), (1001, 3, 3)])
    @pytest.mark.parametrize("fill", ["random", "false", "true"])
    def test_or_last_is_any_over_the_last_axis(self, shape, fill):
        if fill == "random":
            bits = np.random.default_rng(46).random(shape) < 0.3
        else:
            bits = np.full(shape, fill == "true")
        out = np.zeros(shape[:-1], dtype=bool)
        assert mc_oracle._or_last(bits, out=out) is out
        assert np.array_equal(out, np.any(bits, axis=-1))
        preset = np.ones(shape[:-1], dtype=bool)
        assert mc_oracle._or_last(bits, out=preset).all()

    def test_fmod_stays_out_of_the_samplers(self):
        source = Path(mc_oracle.__file__).read_text()
        assert "np.fmod(" not in source
