"""Displacement-level Monte Carlo cross-checks of the analytic probabilities.

Every sampler draws true deviations from the Gaussian displacement model,
reduces measured values to the nearest sqrt(pi) lattice point (parity of the
multiple is the bit; the measure-zero exact half-spacing tie follows numpy's
round-half-to-even), and counts acceptance / error events; the station
sampler adds construction errors as a Bernoulli(e_prep). No analytic shortcut
from the quantities under test enters the samplers, so they serve as
independent cross-checks.

Randomness and reproducibility
------------------------------
Trials are split into batches of ``batch_size``, run in order. Batch ``i``
draws from
``numpy.random.Generator(SFC64(SeedSequence(entropy=seed, spawn_key=(i,))))``.
``SeedSequence`` spawning gives each batch an independent stream, and
numpy's stream policy (NEP 19) keeps a bit generator's stream for a given
seed fixed across versions, so identical (seed, n_trials, batch_size) give
bit-identical counts, and merging batches is plain count addition.

Kernels
-------
``estimate_hrms`` and ``simulate_segments`` sample a list of postselected
experiments through one kernel, ``_postselected``; ``estimate_hrm`` and
``simulate_segment`` are their one-case calls. An outcome is one normal at
the summed variance of its independent contributions. A call draws one
standard normal per outcome slot and trial, trial-major, and all its cases
share that draw, each scaling slot j by its own sigma: every case is a
count over n independent trials of its own displacement model, and the
cases of one call are correlated. Normals a trial of one call: 1 (hrm,
however many points), 2 * rounds of its longest segment, 2 * n_pairs (path
selection); the station draws none.

Most of a dense sampler's time goes to its draws, ~10 ns a
``standard_normal`` from SFC64, the fastest of numpy's bit generators.
Parity (``_odd``) tests h - floor(h) == 0.5 for h = |k|/2, ~3 ns a rounded
multiple, where ``fmod`` or the floored remainder, which give the same
booleans, cost 5-20 ns. The station draws only its rare events
(``_events``): its prep errors, and of its outcomes at sigma those that can
be odd, |z| > t = (sqrt(pi)/2)/sigma, a share q = erfc(t / sqrt(2)) (8.8e-5
at mc-validate's v_single = 0.051), with magnitudes from
``_tail_magnitudes``. At 1e6 trials it costs ~0.03 s there, ~0.2 s at
v_single = 0.2 and ~0.9 s at 1.0.
(Single-thread costs on one x86-64 core with a 2 MiB L2 cache, numpy 2.4.)

A call makes its work arrays once and draws and reduces every batch into
them; at the default batch size, 65,536 trials, each sampler's arrays fit a
2 MiB L2 cache. Beyond them a batch allocates only small per-trial
results, but the station's events grow with q, up to a few arrays of one
chunk. ``_postselected`` and ``simulate_path_selection`` read each batch in
chunks of whole trials (``_chunks``), in the order of one whole-batch draw,
so their counts do not depend on the chunk size. The station draws its
events chunk by chunk, so its counts depend on the chunk size, which the
batch fixes.

Importing this module loads numpy. The package registers it lazily, so a
command loads it, and numpy with it, only when it runs a sampler. No rate
reads a sampler: they cross-check the analytic code, and only
``mc-validate`` runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hrm as hrm_mod
from . import protocols
from .noise_core import SQRT_PI, _require


@dataclass(frozen=True)
class TrialConfig:
    """Size, seed, and batching of one Monte Carlo run."""

    n_trials: int
    seed: int = 0
    batch_size: int = 65_536

    def __post_init__(self) -> None:
        _require("n_trials", self.n_trials, "be >= 1", self.n_trials >= 1)
        _require("batch_size", self.batch_size, "be >= 1", self.batch_size >= 1)

    def batches(self) -> list[tuple[int, int]]:
        """(batch_index, batch_trials) partition covering n_trials exactly."""
        n, b = self.n_trials, self.batch_size
        return [(i, min(b, n - i * b)) for i in range(-(-n // b))]

    def rng(self, batch_index: int) -> np.random.Generator:
        """Generator of batch batch_index: SFC64 seeded by the batch's
        ``SeedSequence`` child, independent of every other batch's."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(batch_index,))
        return np.random.Generator(np.random.SFC64(seq))


@dataclass(frozen=True)
class McEstimate:
    """Binomial count of a Monte Carlo run: successes out of n_effective, the
    denominator actually used (accepted trials for postselected quantities,
    all trials otherwise). The mean, its normal-approximation standard error
    (both 0 with no trials) and the z-score derive from the count."""

    successes: int
    n_effective: int

    @property
    def mean(self) -> float:
        return self.successes / self.n_effective if self.n_effective else 0.0

    @property
    def std_err(self) -> float:
        mean, n = self.mean, self.n_effective
        return math.sqrt(mean * (1.0 - mean) / n) if n else 0.0

    def z(self, p: float) -> float:
        """Z-score of the count against the success probability p: inf with
        no trials, and for p of 0 or 1 zero on the exact count, else inf."""
        k, n = self.successes, self.n_effective
        if n == 0:
            return math.inf
        if p <= 0.0 or p >= 1.0:
            return 0.0 if k == round(n * p) else math.inf
        return (k - n * p) / math.sqrt(n * p * (1.0 - p))


def _normal(rng: np.random.Generator, sigma: float, out: np.ndarray) -> np.ndarray:
    """Fill out with N(0, sigma^2) draws: the values and stream of
    ``rng.normal(0.0, sigma, out.shape)`` (which computes 0.0 + sigma * z)
    up to the sign of a zero, without allocating."""
    rng.standard_normal(out=out)
    return np.multiply(out, sigma, out=out)


def _nearest_multiple(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Nearest integer multiple of sqrt(pi) for each measured value, written
    into out, which may be x."""
    k = np.divide(x, SQRT_PI, out=out)
    return np.rint(k, out=k)


def _residues(x: np.ndarray, k: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Put the nearest multiples of sqrt(pi) of the outcomes in x into k, and
    leave the residues' magnitudes in x, which is returned; t is a scratch
    array of x's shape."""
    _nearest_multiple(x, out=k)
    x -= np.multiply(k, SQRT_PI, out=t)
    return np.abs(x, out=x)


def _odd(k: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """Whether each rounded multiple is odd; overwrites k and tmp, a float
    scratch array of k's shape (made here when not given), and writes the
    bools into out when given.

    With h = |k|/2, k is odd exactly when h - floor(h) == 0.5, as when the
    floored remainder of |k| by 2 is 1. Halving a normal float is exact, and
    for h >= 0 so is h - floor(h) (for a negative h it rounds to 0.5 at
    k = -1 + 2**-53); +-inf and nan give nan, and every float past 2**53 is
    even, as for the remainder. The four passes cost ~3 ns a value where
    ``fmod`` alone costs 5-20 ns; callers pass a spare work array as tmp, so
    parity adds nothing to their peak memory.
    """
    h = np.abs(np.multiply(k, 0.5, out=tmp), out=tmp)
    np.subtract(h, np.floor(h, out=k), out=h)
    return np.equal(h, 0.5, out=out)


def _majority(bits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Whether at least two of the three bools along the last axis are set;
    overwrites the first of them, and writes the result into out when given.
    """
    a, b, c = bits[..., 0], bits[..., 1], bits[..., 2]
    out = np.logical_and(a, b, out=out)
    a |= b
    a &= c
    out |= a
    return out


def _work_arrays(floats, bools) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """A call's work arrays: float64 ones of the lengths in floats and bool
    ones of the lengths in bools. Each is its own allocation, below numpy's
    4 MB huge-page threshold at the default batch size, so the memory a call
    holds is the pages its batches write."""
    return [np.empty(length) for length in floats], [np.empty(length, dtype=bool) for length in bools]


def _run_batches(config: TrialConfig, sample_batch, floats=(), bools=()):
    """Sum the count tuples produced by sample_batch(rng, n, work) over all
    batches, run in order. Each batch draws from its own generator, and every
    batch draws and reduces into the one set of ``_work_arrays(floats,
    bools)`` made here."""
    work = _work_arrays(floats, bools)
    counts = [sample_batch(config.rng(index), n, work) for index, n in config.batches()]
    return tuple(map(sum, zip(*counts)))


def _largest_batch(config: TrialConfig, values_per_trial: int = 1) -> int:
    """Length of a work array: the trials of the largest batch, and at least
    the values of one trial for samplers that draw in chunks of whole trials."""
    return max(min(config.batch_size, config.n_trials), values_per_trial)


def _chunks(n: int, size: int, values_per_trial: int) -> list[tuple[int, int]]:
    """(start, trials) of the chunks of whole trials a batch of n trials is
    drawn in, each filling at most size values of a work array. Drawn in
    order, the chunks consume the generator as one whole-batch draw does."""
    chunk = size // values_per_trial
    return [(start, min(chunk, n - start)) for start in range(0, n, chunk)]


#: Trials per chunk of ``_postselected``'s shared draw, which every case
#: rereads: with four slots a call's work arrays take 0.92 MiB.
_CHUNK_TRIALS = 16_384


def _postselected(config: TrialConfig, cases) -> list[tuple[int, int]]:
    """(accepted, flipped) counts of each case, in order.

    A case is (draws, v_up) with one (sigma, decides) entry per outcome slot.
    Per trial the call draws one standard normal per slot of its longest
    case, trial-major, and every case reads the same draw: its outcome in
    slot j is that normal times its own sigma. A case accepts a trial when
    every residue magnitude is below its v_up, and flips when the parities
    of the outcomes whose entry decides xor to odd. A batch is drawn in
    chunks of whole trials, which read the stream as one whole-batch draw.
    """
    if not cases:
        return []
    slots = max(len(draws) for draws, _ in cases)
    chunk = min(_CHUNK_TRIALS, _largest_batch(config))

    def sample_batch(rng: np.random.Generator, n: int, work):
        z = work[0][0]
        totals = [0] * (2 * len(cases))
        for _, m in _chunks(n, chunk * slots, slots):
            normals = rng.standard_normal(out=z[: m * slots]).reshape(m, slots)
            x, k, t = (a[:m] for a in work[0][1:])
            accepted, flipped, bits = (a[:m] for a in work[1])
            for i, (draws, v_up) in enumerate(cases):
                accepted.fill(True)
                flipped.fill(False)
                for j, (sigma, decides) in enumerate(draws):
                    np.multiply(normals[:, j], sigma, out=x)
                    accepted &= np.less(_residues(x, k, t), v_up, out=bits)
                    if decides:
                        flipped ^= _odd(k, out=bits, tmp=t)
                flipped &= accepted
                totals[2 * i] += int(np.count_nonzero(accepted))
                totals[2 * i + 1] += int(np.count_nonzero(flipped))
        return totals

    floats = [chunk * slots] + [chunk] * 3
    totals = _run_batches(config, sample_batch, floats=floats, bools=[chunk] * 3)
    return list(zip(totals[::2], totals[1::2]))


def estimate_hrms(points, config: TrialConfig) -> list[tuple[McEstimate, McEstimate]]:
    """``estimate_hrm`` at each (sigma2, delta) of points, in order, from one
    shared draw: every point scales the same standard normal of a trial by
    its own sqrt(sigma2). Each estimate is a count over the n_trials
    independent trials of its own point; estimates of different points are
    correlated."""
    cases = []
    for sigma2, delta in points:
        _require("sigma2", sigma2, "be nonnegative", sigma2 >= 0)
        cases.append(([(math.sqrt(sigma2), True)], hrm_mod.HrmPolicy(delta).v_up))
    return [
        (McEstimate(n_errors, n_accepted), McEstimate(n_accepted, config.n_trials))
        for n_accepted, n_errors in _postselected(config, cases)
    ]


def estimate_hrm(sigma2: float, delta: float, config: TrialConfig) -> tuple[McEstimate, McEstimate]:
    """Sample the postselected measurement: (e_hrm estimate, p_suc estimate).

    Per trial a true deviation ~ N(0, sigma2) is reduced to its nearest
    lattice multiple; the outcome is accepted when the residue magnitude is
    below the cutoff ``HrmPolicy(delta).v_up`` and is in error when the
    accepted multiple is odd.
    """
    return estimate_hrms([(sigma2, delta)], config)[0]


def _segment_component_sigmas(spec: protocols.ProtocolSpec) -> list[float]:
    """Standard deviations of the independent displacement contributions to
    one pre-correction measurement: two GKP teeth plus the variant's channel
    noise draws (one per noisy Bell-measurement input)."""
    s = math.sqrt(spec.squeezing.sigma2)
    noise = math.sqrt(spec.variant.input_noise(spec.eta))
    return [s, s] + [noise] * spec.variant.noisy_inputs


def simulate_segments(specs, config: TrialConfig) -> list[McEstimate]:
    """``simulate_segment`` of each spec, in order, from one shared draw:
    outcome slot j of every spec scales the same standard normal of a trial
    by that spec's own sigma, and a one-round spec reads the first two of a
    two-round spec's four slots. Each estimate is a count over the trials of
    its own spec; estimates of different specs are correlated."""
    cases = []
    for spec in specs:
        sigma = math.hypot(*_segment_component_sigmas(spec))
        # Per round the q outcome decides the flip; the p outcome only gates.
        cases.append(([(sigma, True), (sigma, False)] * spec.variant.rounds, spec.hrm.v_up))
    return [McEstimate(n_flips, n_accepted) for n_accepted, n_flips in _postselected(config, cases)]


def simulate_segment(spec: protocols.ProtocolSpec, config: TrialConfig) -> McEstimate:
    """Empirical per-segment logical flip probability in one quadrature.

    Each outcome sums two teeth and the variant's channel noise, independent
    Gaussians drawn as one normal at the variance the sampler sums itself
    (never ``protocols.segment_variance``); it is binned mod sqrt(pi), and
    the postselection cutoff applies to both quadratures of each Bell
    measurement. For second-round variants the two rounds flip independently
    and the segment flips when exactly one round does. The estimate is
    conditioned on all postselections passing, matching segment_errors.
    """
    return simulate_segments([spec], config)[0]


def simulate_path_selection(sigma_eff2: float, n_pairs: int, config: TrialConfig) -> McEstimate:
    """Error of the Bell-measurement pair chosen by maximum likelihood.

    Per trial, n_pairs Bell measurements each produce two outcomes with true
    deviations ~ N(0, sigma_eff2). The Gaussian likelihood product of a pair's
    residues is maximal where the residue norm is minimal, so the selected
    pair is the argmin of residue_1^2 + residue_2^2 (ties resolve to the
    lowest index via argmin). A trial errs when either selected outcome sits
    nearer an odd lattice multiple. No pair is discarded, so every trial
    counts.
    """
    _require("sigma_eff2", sigma_eff2, "be nonnegative", sigma_eff2 >= 0)
    _require("n_pairs", n_pairs, "be >= 1", n_pairs >= 1)
    sigma = math.sqrt(sigma_eff2)
    # Drawing a batch in chunks of whole trials keeps its stream (the draws
    # fill (trial, pair, outcome) in row-major order) and its memory at that
    # of a one-pair batch.
    size = _largest_batch(config, 2 * n_pairs)
    chunk = size // (2 * n_pairs)
    # Flat index of each trial's first outcome in a chunk's draws.
    trial_offsets = np.arange(0, chunk * 2 * n_pairs, 2 * n_pairs)

    def sample_chunk(rng: np.random.Generator, m: int, work) -> int:
        shape = (m, n_pairs, 2)
        x, k = (a[: math.prod(shape)].reshape(shape) for a in work[0][:2])
        t = work[0][2]
        bits = work[1][0][: x.size].reshape(shape)
        wrong = work[1][1][:m]
        outcomes = _normal(rng, sigma, out=x)
        # Contiguous, so that argmin reads it without a copy.
        squares = np.square(_residues(outcomes, k, t[: x.size].reshape(shape)), out=x)
        norm2 = np.add(squares[..., 0], squares[..., 1], out=t[: m * n_pairs].reshape(m, n_pairs))
        # x is spent: its memory holds the flat index of each selected pair.
        selected = np.argmin(norm2, axis=1, out=work[0][0].view(np.intp)[:m])
        selected *= 2
        selected += trial_offsets[:m]
        # A pair is wrong when either outcome is odd; take the selected one's.
        odd = _odd(k, out=bits, tmp=t[: k.size].reshape(shape))
        np.logical_or(odd[..., 0], odd[..., 1], out=odd[..., 0])
        np.take(odd.reshape(-1), selected, out=wrong, mode="clip")
        return int(np.count_nonzero(wrong))

    def sample_batch(rng: np.random.Generator, n: int, work):
        return (sum(sample_chunk(rng, m, work) for _, m in _chunks(n, size, 2 * n_pairs)),)

    (n_errors,) = _run_batches(config, sample_batch, floats=[size] * 3, bools=[size, chunk])
    return McEstimate(n_errors, config.n_trials)


def _events(rng: np.random.Generator, q: float, values: int) -> np.ndarray:
    """Positions, ascending, of the events among values independent trials
    that each hold one with probability q: a Binomial(values, q) count of
    them, placed uniformly without replacement. With q = 0 nothing is drawn.
    """
    positions = rng.choice(values, rng.binomial(values, q), replace=False, shuffle=False)
    positions.sort()
    return positions


def _tail_magnitudes(rng: np.random.Generator, t: float, k: int) -> np.ndarray:
    """k draws of |z| for a standard normal z conditioned on |z| > t >= 0, by
    Robert's rejection (Stat. Comput. 5, 121 (1995)): with lam = (t +
    sqrt(t^2 + 4)) / 2, a proposal x = t - ln(1 - U1) / lam is kept when
    U2 <= exp(-(x - lam)^2 / 2), as at least 76% of them are at every t.
    Each round draws a U1 for every magnitude still missing, then a U2 for
    each, and the slots of the missing magnitudes hold the round's bounds."""
    lam = (t + math.hypot(t, 2.0)) / 2.0
    x, filled = np.empty(k), 0
    while filled < k:
        # 1 - U1 is uniform on (0, 1], so the logarithm is finite.
        proposal = t - np.log1p(-rng.random(k - filled)) / lam
        bound = np.subtract(proposal, lam, out=x[filled:])
        np.exp(np.multiply(np.square(bound, out=bound), -0.5, out=bound), out=bound)
        kept = proposal[np.less_equal(rng.random(k - filled), bound)]
        x[filled : filled + kept.size] = kept
        filled += kept.size
    return x


def _odd_outcomes(rng: np.random.Generator, sigma: float, values: int) -> np.ndarray:
    """Flat indices, ascending, of the odd outcomes among values N(0, sigma^2)
    outcomes. Only those with |z| > t = (sqrt(pi)/2)/sigma can be odd, so
    only they are drawn: ``_events`` at q = erfc(t / sqrt(2)), with
    magnitudes from ``_tail_magnitudes``, each reduced by the dense form
    ``_odd(rint(sigma * |z| / sqrt(pi)))``. sigma = 0 draws nothing."""
    t = SQRT_PI / 2 / sigma if sigma else math.inf
    events = _events(rng, math.erfc(t / math.sqrt(2.0)), values)
    x = _tail_magnitudes(rng, t, events.size)
    return events[_odd(_nearest_multiple(np.multiply(x, sigma, out=x), out=x))]


def simulate_tree_repeater(v_leaf: float, v_single: float, e_prep: float, config: TrialConfig) -> McEstimate:
    """Per-station error of the tree-encoded measurement chain, sampled at the
    displacement level.

    Per trial and quadrature: one leaf outcome at variance v_leaf; nine
    ancilla outcomes at v_single feed three majority votes whose combined
    failure is the encoded bit-flip-protected error; four independent encoded
    phase-flip-protected measurements each take a majority over three blocks
    of one node plus three ancilla outcomes at v_single; cluster construction
    errs with probability e_prep. The station errs if any piece does, which is
    the quantity the analytic per-station composition predicts.
    """
    for name, value in (("v_leaf", v_leaf), ("v_single", v_single)):
        _require(name, value, "be nonnegative", value >= 0)
    _require("e_prep", e_prep, "be a probability", 0.0 <= e_prep <= 1.0)
    s_single = math.sqrt(v_single)
    size = _largest_batch(config, 9)

    def sample_batch(rng: np.random.Generator, n: int, work):
        fail, majority = work[1][0][:n], work[1][1][:n]
        # Row b holds block b of each trial, so the majority reads rows.
        blocks = work[1][2][: 3 * n].reshape(3, n)
        fail.fill(False)
        fail[_odd_outcomes(rng, math.sqrt(v_leaf), n)] = True
        fail[_events(rng, e_prep, n)] = True
        # Bit-flip-protected encoded measurement: wrong when any of its 3
        # ancilla triples holds 2 odd outcomes, so two adjacent odd indices.
        for start, m in _chunks(n, size, 9):
            triple = _odd_outcomes(rng, s_single, 9 * m) // 3
            fail[start + triple[1:][triple[1:] == triple[:-1]] // 3] = True
        # Four phase-flip-protected encoded measurements: majority over 3
        # blocks, each block wrong when its node or any of 3 ancillas is.
        for _ in range(4):
            blocks.fill(False)
            for per_block, values_per_trial in ((1, 3), (3, 9)):
                for start, m in _chunks(n, size, values_per_trial):
                    odd = _odd_outcomes(rng, s_single, m * values_per_trial)
                    trial, block = np.divmod(odd // per_block, 3)
                    blocks[block, start + trial] = True
            fail |= _majority(blocks.T, out=majority)
        return (int(np.count_nonzero(fail)),)

    (n_fail,) = _run_batches(config, sample_batch, bools=[size, size, 3 * size])
    return McEstimate(n_fail, config.n_trials)
