"""Displacement-level Monte Carlo estimators for every analytic probability.

Each sampler draws true deviations from the Gaussian displacement model,
reduces measured values to the nearest sqrt(pi) lattice point (parity of the
multiple is the bit; the measure-zero exact half-spacing tie follows numpy's
round-half-to-even), and counts acceptance / error events. No analytic
shortcut from the quantities under test enters the samplers, so they serve as
independent cross-checks.

Randomness and reproducibility
------------------------------
Trials are split into batches of ``batch_size``. Batch ``i`` draws from
``numpy.random.Generator(Philox(SeedSequence(entropy=seed, spawn_key=(i,))))``.
Philox is a counter-based generator and numpy guarantees its stream for a
given seed across versions, so identical (seed, n_trials, batch_size) give
bit-identical counts, batches are independent by construction, and a batch
may be computed on any worker in any order: merging is plain count addition.

Kernels
-------
Parity is ``_odd``: an in-place ``fmod`` by 2 on the rounded multiples,
which gives the same booleans as the floored remainder at a fraction of its
cost. ``simulate_path_selection`` draws each batch in chunks of
``batch_size // n_pairs`` whole trials, so a batch holds about as many
float64 values as a one-pair batch whatever ``n_pairs`` is; the chunks
consume the generator in the order of one whole-batch draw, so the counts
are those of drawing the batch at once.

numpy is imported inside the samplers, so importing this module loads the
standard library only. No rate reads a sampler: they cross-check the analytic
code, and only ``mc-validate`` runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

from . import protocols
from .noise_core import SQRT_PI

if TYPE_CHECKING:
    import numpy as np

@dataclass(frozen=True)
class TrialConfig:
    """Size, seed, and batching of one Monte Carlo run."""

    n_trials: int
    seed: int = 0
    batch_size: int = 250_000

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def batches(self) -> list[tuple[int, int]]:
        """(batch_index, batch_trials) partition covering n_trials exactly."""
        sizes = []
        remaining = self.n_trials
        index = 0
        while remaining > 0:
            take = min(self.batch_size, remaining)
            sizes.append((index, take))
            remaining -= take
            index += 1
        return sizes

    def rng(self, batch_index: int) -> np.random.Generator:
        import numpy as np

        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(batch_index,))
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class McEstimate:
    """Binomial point estimate with its normal-approximation standard error.

    n_effective is the denominator actually used (accepted trials for
    postselected quantities, all trials otherwise).
    """

    mean: float
    std_err: float
    n_accepted: int
    n_effective: int

    @classmethod
    def from_counts(cls, successes: int, n_effective: int, n_accepted: int | None = None) -> "McEstimate":
        if n_effective <= 0:
            return cls(0.0, 0.0, 0, 0)
        mean = successes / n_effective
        std_err = math.sqrt(mean * (1.0 - mean) / n_effective)
        return cls(
            mean=mean,
            std_err=std_err,
            n_accepted=n_accepted if n_accepted is not None else n_effective,
            n_effective=n_effective,
        )


def _nearest_multiple(x: np.ndarray) -> np.ndarray:
    """Nearest integer multiple of sqrt(pi) for each measured value."""
    import numpy as np

    k = x / SQRT_PI
    return np.rint(k, out=k)


def _odd(k: np.ndarray) -> np.ndarray:
    """Whether each rounded multiple is odd; overwrites k.

    ``fmod`` is exact and several times cheaper than numpy's floored
    remainder, and |fmod(k, 2)| == 1 holds for exactly the k whose floored
    remainder by 2 is 1 (never +-inf, nan or a float past 2**53, which are
    all even). Working in place adds no array to the callers' peak memory.
    """
    import numpy as np

    np.fmod(k, 2.0, out=k)
    np.abs(k, out=k)
    return k == 1.0


def _run_batches(config: TrialConfig, sample_batch):
    """Sum the count tuples produced by sample_batch(rng, n) over all batches."""
    totals = None
    for index, n in config.batches():
        counts = sample_batch(config.rng(index), n)
        totals = counts if totals is None else tuple(a + b for a, b in zip(totals, counts))
    return totals


def estimate_hrm(sigma2: float, delta: float, config: TrialConfig) -> tuple[McEstimate, McEstimate]:
    """Sample the postselected measurement: (e_hrm estimate, p_suc estimate).

    Per trial a true deviation ~ N(0, sigma2) is reduced to its nearest
    lattice multiple; the outcome is accepted when the residue magnitude is
    below v_up = sqrt(pi)/2 - delta and is in error when the accepted multiple
    is odd.
    """
    import numpy as np

    if sigma2 < 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    v_up = SQRT_PI / 2 - delta
    if v_up <= 0:
        raise ValueError(f"delta must be below sqrt(pi)/2, got {delta}")
    sigma = math.sqrt(sigma2)

    def sample_batch(rng: np.random.Generator, n: int):
        x = rng.normal(0.0, sigma, size=n)
        k = _nearest_multiple(x)
        x -= k * SQRT_PI
        accepted = np.abs(x, out=x) < v_up
        errors = accepted & _odd(k)
        return int(accepted.sum()), int(errors.sum())

    n_accepted, n_errors = _run_batches(config, sample_batch)
    err = McEstimate.from_counts(n_errors, n_accepted, n_accepted=n_accepted)
    suc = McEstimate.from_counts(n_accepted, config.n_trials)
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

    Draws every displacement contribution separately (teeth and channel
    noise), sums them per correction round, bins mod sqrt(pi), and applies the
    postselection cutoff to both quadratures of each Bell measurement. For
    second-round variants the two rounds flip independently and the segment
    flips when exactly one round does. The estimate is conditioned on all
    postselections passing, matching the analytic segment_errors.
    """
    import numpy as np

    sigmas = _segment_component_sigmas(spec)
    v_up = spec.hrm.v_up
    rounds = spec.variant.rounds

    def sample_batch(rng: np.random.Generator, n: int):
        flips = np.zeros(n, dtype=bool)
        accepted = np.ones(n, dtype=bool)
        for _ in range(rounds):
            # q outcome decides the flip; the p outcome only gates acceptance.
            for quad in range(2):
                x = rng.normal(0.0, sigmas[0], size=n)
                for s in sigmas[1:]:
                    x += rng.normal(0.0, s, size=n)
                k = _nearest_multiple(x)
                x -= k * SQRT_PI
                accepted &= np.abs(x, out=x) < v_up
                if quad == 0:
                    flips ^= _odd(k)
        good = accepted & flips
        return int(accepted.sum()), int(good.sum())

    n_accepted, n_flips = _run_batches(config, sample_batch)
    return McEstimate.from_counts(n_flips, n_accepted, n_accepted=n_accepted)


def simulate_path_selection(
    sigma_eff2: float,
    n_pairs: int,
    config: TrialConfig,
    accept_margin: float = 0.0,
) -> tuple[McEstimate, McEstimate]:
    """Error of the Bell-measurement pair chosen by maximum likelihood.

    Per trial, n_pairs Bell measurements each produce two outcomes with true
    deviations ~ N(0, sigma_eff2). The Gaussian likelihood product of a pair's
    residues is maximal where the residue norm is minimal, so the selected
    pair is the argmin of residue_1^2 + residue_2^2 (ties resolve to the
    lowest index via argmin). A trial errs when either selected outcome sits
    nearer an odd lattice multiple.

    With accept_margin > 0 the selection runs only over pairs whose residues
    both pass |residue| < sqrt(pi)/2 - accept_margin, and trials with no
    surviving pair are discarded; the second estimate returned is the
    at-least-one-pair acceptance probability (identically 1 at margin 0).
    """
    import numpy as np

    if sigma_eff2 < 0:
        raise ValueError(f"sigma_eff2 must be nonnegative, got {sigma_eff2}")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    v_up = SQRT_PI / 2 - accept_margin
    if v_up <= 0:
        raise ValueError(f"accept_margin must be below sqrt(pi)/2, got {accept_margin}")
    sigma = math.sqrt(sigma_eff2)
    # Drawing a batch in chunks of whole trials keeps its stream (the draws
    # fill (trial, pair, outcome) in row-major order) and its memory at about
    # that of a one-pair batch.
    chunk = max(1, config.batch_size // n_pairs)

    def sample_chunk(rng: np.random.Generator, n: int):
        x = rng.normal(0.0, sigma, size=(n, n_pairs, 2))
        k = _nearest_multiple(x)
        x -= k * SQRT_PI
        norm2 = np.sum(x**2, axis=2)
        pair_ok = np.all(np.abs(x, out=x) < v_up, axis=2)
        trial_ok = np.any(pair_ok, axis=1)
        # Rejected pairs rank below every accepted one.
        norm2 = np.where(pair_ok, norm2, np.inf)
        selected = np.argmin(norm2, axis=1)
        k_sel = np.take_along_axis(k, selected[:, None, None], axis=1)[:, 0, :]
        wrong = np.any(_odd(k_sel), axis=1)
        return int(trial_ok.sum()), int((trial_ok & wrong).sum())

    def sample_batch(rng: np.random.Generator, n: int):
        counts = [sample_chunk(rng, min(chunk, n - start)) for start in range(0, n, chunk)]
        return tuple(map(sum, zip(*counts)))

    n_accepted, n_errors = _run_batches(config, sample_batch)
    err = McEstimate.from_counts(n_errors, n_accepted, n_accepted=n_accepted)
    acc = McEstimate.from_counts(n_accepted, config.n_trials)
    return err, acc


def simulate_majority_vote(e: float, config: TrialConfig) -> McEstimate:
    """Empirical failure rate of a majority vote over 3 Bernoulli(e) flips."""
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"e must be a probability, got {e}")

    def sample_batch(rng: np.random.Generator, n: int):
        flips = rng.random(size=(n, 3)) < e
        return (int((flips.sum(axis=1) >= 2).sum()),)

    (n_fail,) = _run_batches(config, sample_batch)
    return McEstimate.from_counts(n_fail, config.n_trials)


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
    import numpy as np

    for name, value in (("v_leaf", v_leaf), ("v_single", v_single)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    if not 0.0 <= e_prep <= 1.0:
        raise ValueError(f"e_prep must be a probability, got {e_prep}")
    s_leaf = math.sqrt(v_leaf)
    s_single = math.sqrt(v_single)

    def wrong_bits(rng: np.random.Generator, shape) -> np.ndarray:
        return _odd(_nearest_multiple(rng.normal(0.0, s_single, size=shape)))

    def sample_batch(rng: np.random.Generator, n: int):
        fail = _odd(_nearest_multiple(rng.normal(0.0, s_leaf, size=n)))
        fail |= rng.random(size=n) < e_prep
        # Bit-flip-protected encoded measurement: any of 3 ancilla-triple
        # majorities wrong.
        anc = wrong_bits(rng, (n, 3, 3))
        fail |= np.any(anc.sum(axis=2) >= 2, axis=1)
        # Four phase-flip-protected encoded measurements: majority over 3
        # blocks, each block wrong when its node or any of 3 ancillas is.
        for _ in range(4):
            node = wrong_bits(rng, (n, 3))
            block_anc = wrong_bits(rng, (n, 3, 3))
            block_wrong = node | np.any(block_anc, axis=2)
            fail |= block_wrong.sum(axis=1) >= 2
        return (int(fail.sum()),)

    (n_fail,) = _run_batches(config, sample_batch)
    return McEstimate.from_counts(n_fail, config.n_trials)


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


def enumerate_encoded_x_error(e_b_p: float) -> float:
    """Exact bit-flip-protected encoded error by summing all 2**9 patterns.

    Nine ancilla outcomes, three per node; the encoded measurement fails when
    any node's majority vote fails.
    """
    total = 0.0
    for pattern in product((0, 1), repeat=9):
        nodes_bad = any(sum(pattern[3 * i : 3 * i + 3]) >= 2 for i in range(3))
        if nodes_bad:
            prob = 1.0
            for bit in pattern:
                prob *= e_b_p if bit else (1.0 - e_b_p)
            total += prob
    return total
