"""Monte Carlo estimators that cross-check the analytic probabilities, all
displacement-level but the majority vote's.

Every sampler but ``simulate_majority_vote`` (Bernoulli(e) flips) draws true
deviations from the Gaussian displacement model, reduces measured values to
the nearest sqrt(pi) lattice point (parity of the multiple is the bit; the
measure-zero exact half-spacing tie follows numpy's round-half-to-even), and
counts acceptance / error events. No analytic shortcut from the quantities
under test enters the samplers, so they serve as independent cross-checks.

Randomness and reproducibility
------------------------------
Trials are split into batches of ``batch_size``. Batch ``i`` draws from
``numpy.random.Generator(SFC64(SeedSequence(entropy=seed, spawn_key=(i,))))``.
``SeedSequence`` spawning gives each batch an independent stream, and
numpy's stream policy (NEP 19) keeps a bit generator's stream for a given
seed fixed across versions, so identical (seed, n_trials, batch_size) give
bit-identical counts, and a batch may be computed on any worker in any
order: merging is plain count addition.
The batches of one sampler call are dealt round-robin to a thread pool sized
to the CPUs the process may use (at most one worker per batch); numpy
releases the interpreter lock while it draws and reduces, so threads
suffice. Counts, and so stdout, do not depend on the pool's size.
Generators and work arrays are made and every public function runs on the
calling thread; the workers only draw and count.

Kernels
-------
``estimate_hrm`` and ``simulate_segment`` sample one postselected
experiment through one kernel, ``_postselected``; an outcome is one normal
at the summed variance of its independent contributions. Normals a trial: 1
(hrm), 2 * rounds (segment), 2 * n_pairs (path selection), 58 (station).

Most of a sampler's time goes to the normal draws, ~11 ns a
``standard_normal`` from SFC64, the fastest of numpy's bit generators. Two
primitives beside them are built from cheaper exact arithmetic that gives
the same booleans as the numpy calls they replace, so the counts do not
change. Parity (``_odd``) tests h - floor(h) == 0.5 for h = |k|/2: ~3 ns a
rounded multiple, where ``fmod`` or the floored remainder cost 5-20 ns. The
station sampler's ors over a length-3 axis (``_or_last``) are slice-wise
``|=``: ~1 ns a value, where ``np.any(axis=...)`` costs ~10 ns.
(Single-thread costs on one x86-64 core with a 2 MiB L2 cache, numpy 2.4.)

Every kernel draws (``standard_normal`` scaled in place, the values and
stream of ``normal``) and reduces into work arrays its worker reuses for
each batch: at most three float64 arrays of ``batch_size`` values (two in
the station sampler, one in the majority vote) and a few bool ones, so a
worker allocates only small per-trial results. The default batch size,
65,536 trials, keeps one worker's arrays within such an L2 cache:
``_postselected``'s three float64 and three bool arrays take 1.69 MiB. A
sampler call thus holds the work arrays of each worker, whatever the
threads' timing.
``simulate_path_selection``, ``simulate_majority_vote`` and the ancilla and
node outcomes of ``simulate_tree_repeater`` draw several values per trial,
so they draw each batch in chunks of whole trials that fill a work array
(``_chunks``); the chunks consume the generator in the order of one
whole-batch draw, so the counts are those of drawing the batch at once.

Importing this module loads numpy. The package registers it lazily, so a
command loads it, and numpy with it, only when it runs a sampler. No rate
reads a sampler: they cross-check the analytic code, and only
``mc-validate`` runs them.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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


def _residues(
    rng: np.random.Generator, sigma: float, x: np.ndarray, k: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Draw N(0, sigma^2) outcomes into x, put their nearest multiples of
    sqrt(pi) into k, and leave the residues' magnitudes in x, which is
    returned; t is a scratch array of x's shape."""
    _nearest_multiple(_normal(rng, sigma, out=x), out=k)
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


def _or_last(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """OR each slice bits[..., i] of the short last axis into out, in place.

    On a preset-False out this is ``np.any(bits, axis=-1)``, which costs
    ~10 ns a value on an axis of 3; the slice-wise ors cost ~1 ns.
    """
    for i in range(bits.shape[-1]):
        out |= bits[..., i]
    return out


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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        return os.cpu_count() or 1


def _work_arrays(floats, bools) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """One worker's work arrays: float64 ones of the lengths in floats and
    bool ones of the lengths in bools. Each is its own allocation, below
    numpy's 4 MB huge-page threshold at the default batch size, so the
    memory a worker holds is the pages its batches write."""
    return [np.empty(length) for length in floats], [np.empty(length, dtype=bool) for length in bools]


def _run_batches(config: TrialConfig, sample_batch, floats=(), bools=()):
    """Sum the count tuples produced by sample_batch(rng, n, work) over all
    batches.

    The batches are dealt round-robin to one worker per usable CPU, at most
    one per batch, and each worker runs its share in order on a thread pool;
    numpy releases the interpreter lock while it draws and reduces. Each
    worker gets its own ``_work_arrays(floats, bools)``, made here on the
    calling thread, for sample_batch to draw and reduce into. Which worker
    runs which batch is fixed, so the memory a call holds does not depend on
    how the threads are scheduled. Each batch has its own generator, made
    here too, and integer sums do not depend on the order batches finish, so
    the counts do not depend on the number of workers.
    """
    batches = config.batches()
    workers = min(_usable_cpus(), len(batches))
    shares = [[(config.rng(index), n) for index, n in batches[w::workers]] for w in range(workers)]
    works = [_work_arrays(floats, bools) for _ in range(workers)]

    def run_share(share, work):
        return [sample_batch(rng, n, work) for rng, n in share]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        counts = [c for share in pool.map(run_share, shares, works) for c in share]
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


def _postselected(config: TrialConfig, draws, v_up: float) -> tuple[int, int]:
    """(accepted, flipped) counts. Each (sigma, decides) entry of draws
    draws one N(0, sigma^2) outcome per trial; a trial is accepted when every
    residue magnitude is below v_up, and flips when the parities of the
    outcomes whose entry decides xor to odd."""
    size = _largest_batch(config)

    def sample_batch(rng: np.random.Generator, n: int, work):
        x, k, t = (a[:n] for a in work[0])
        accepted, flipped, bits = (a[:n] for a in work[1])
        accepted.fill(True)
        flipped.fill(False)
        for sigma, decides in draws:
            accepted &= np.less(_residues(rng, sigma, x, k, t), v_up, out=bits)
            if decides:
                flipped ^= _odd(k, out=bits, tmp=t)
        flipped &= accepted
        return int(np.count_nonzero(accepted)), int(np.count_nonzero(flipped))

    return _run_batches(config, sample_batch, floats=[size] * 3, bools=[size] * 3)


def estimate_hrm(sigma2: float, delta: float, config: TrialConfig) -> tuple[McEstimate, McEstimate]:
    """Sample the postselected measurement: (e_hrm estimate, p_suc estimate).

    Per trial a true deviation ~ N(0, sigma2) is reduced to its nearest
    lattice multiple; the outcome is accepted when the residue magnitude is
    below the cutoff ``HrmPolicy(delta).v_up`` and is in error when the
    accepted multiple is odd.
    """
    _require("sigma2", sigma2, "be nonnegative", sigma2 >= 0)
    v_up = hrm_mod.HrmPolicy(delta).v_up
    n_accepted, n_errors = _postselected(config, [(math.sqrt(sigma2), True)], v_up)
    err = McEstimate(n_errors, n_accepted)
    suc = McEstimate(n_accepted, config.n_trials)
    return err, suc


def _segment_component_sigmas(spec: protocols.ProtocolSpec) -> list[float]:
    """Standard deviations of the independent displacement contributions to
    one pre-correction measurement: two GKP teeth plus the variant's channel
    noise draws (one per noisy Bell-measurement input)."""
    s = math.sqrt(spec.squeezing.sigma2)
    noise = math.sqrt(spec.variant.input_noise(spec.eta))
    return [s, s] + [noise] * spec.variant.noisy_inputs


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
    sigma = math.hypot(*_segment_component_sigmas(spec))
    # Per round the q outcome decides the flip; the p outcome only gates.
    draws = [(sigma, True), (sigma, False)] * spec.variant.rounds
    n_accepted, n_flips = _postselected(config, draws, spec.hrm.v_up)
    return McEstimate(n_flips, n_accepted)


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
        # Contiguous, so that argmin reads it without a copy.
        squares = np.square(_residues(rng, sigma, x, k, t[: x.size].reshape(shape)), out=x)
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


def simulate_majority_vote(e: float, config: TrialConfig) -> McEstimate:
    """Empirical failure rate of a majority vote over 3 Bernoulli(e) flips."""
    _require("e", e, "be a probability", 0.0 <= e <= 1.0)
    # Chunks of whole trials keep the stream of one (n, 3) draw.
    size = _largest_batch(config, 3)

    def sample_batch(rng: np.random.Generator, n: int, work):
        n_fail = 0
        for _, m in _chunks(n, size, 3):
            u = rng.random(out=work[0][0][: 3 * m].reshape(m, 3))
            flips = np.less(u, e, out=work[1][0][: 3 * m].reshape(m, 3))
            n_fail += int(np.count_nonzero(_majority(flips, out=work[1][1][:m])))
        return (n_fail,)

    (n_fail,) = _run_batches(config, sample_batch, floats=[size], bools=[size, size // 3])
    return McEstimate(n_fail, config.n_trials)


def simulate_tree_repeater(
    v_leaf: float,
    v_single: float,
    e_prep: float,
    config: TrialConfig,
) -> McEstimate:
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
    s_leaf = math.sqrt(v_leaf)
    s_single = math.sqrt(v_single)
    size = _largest_batch(config, 9)

    def parities(rng: np.random.Generator, m: int, shape: tuple, work) -> np.ndarray:
        """Parities of m trials of v_single outcomes of the given shape."""
        x, tmp = (a[: m * math.prod(shape)].reshape(m, *shape) for a in work[0])
        bits = work[1][1][: x.size].reshape(x.shape)
        return _odd(_nearest_multiple(_normal(rng, s_single, out=x), out=x), out=bits, tmp=tmp)

    def sample_batch(rng: np.random.Generator, n: int, work):
        x, tmp = (a[:n] for a in work[0])
        fail, bits = (a[:n] for a in work[1][:2])
        block_wrong = work[1][2][: 3 * n].reshape(n, 3)
        _odd(_nearest_multiple(_normal(rng, s_leaf, out=x), out=x), out=fail, tmp=tmp)
        fail |= np.less(rng.random(out=x), e_prep, out=bits)
        # Bit-flip-protected encoded measurement: any of 3 ancilla-triple
        # majorities wrong.
        for start, m in _chunks(n, size, 9):
            anc = parities(rng, m, (3, 3), work)
            _or_last(_majority(anc), out=fail[start : start + m])
        # Four phase-flip-protected encoded measurements: majority over 3
        # blocks, each block wrong when its node or any of 3 ancillas is.
        for _ in range(4):
            for start, m in _chunks(n, size, 3):
                block_wrong[start : start + m] = parities(rng, m, (3,), work)
            for start, m in _chunks(n, size, 9):
                _or_last(parities(rng, m, (3, 3), work), out=block_wrong[start : start + m])
            fail |= _majority(block_wrong, out=bits)
        return (int(np.count_nonzero(fail)),)

    (n_fail,) = _run_batches(
        config, sample_batch, floats=[size] * 2, bools=[size, size, 3 * size]
    )
    return McEstimate(n_fail, config.n_trials)
