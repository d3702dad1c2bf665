"""Two-way repeater protocol concatenated with a loss-tolerant tree cluster code.

Each sender assembles a cluster of leaf qubits plus tree-encoded node qubits
and ships one half to each neighboring station over l0/2 of fiber, with
homodyne outcomes rescaled so that loss becomes additive Gaussian noise: the
two-way-cc row of the :mod:`gkp_repeater.protocols` variance table. Stations Bell-
measure leaf pairs; encoded node measurements are protected by majority votes
over three-qubit blocks. Two decoding modes are supported:

* ``hrm``: leaf Bell measurements are postselected; a station succeeds when at
  least one of its leaf pairs passes, so communication is probabilistic.
* ``path-selection``: the station keeps the leaf pair whose measured residues
  have the largest Gaussian likelihood. Communication is deterministic
  (success probability 1) and the selected-pair error is an order statistic
  over the residue distribution, computed by quadrature over lattice sums
  (``_path_selection_leaf_error``).

Every node and ancilla qubit also crosses l0/2 of fiber with its outcome
rescaled, so all of them share one outcome variance v_single and fail with
one probability e_single. Per-station error composition (all components
assumed independent):

    E_QR = 1 - (1 - e_leaf) (1 - e_prep) (1 - E_X) (1 - E_Z)**4

where E_X = 1 - (1 - majority3(e_single))**3 protects against bit flips via
three ancilla-triple majority votes and E_Z = majority3(1 - (1 - e_single)**4)
against phase flips via a majority over three node+ancilla blocks.
This 1 - product, and those inside E_X, E_Z and the station acceptance, are
evaluated by ``protocols._any_fails``, so small component errors do not cancel.
Cluster construction by HRM-checked fusions contributes

    e_prep = 34 * e_hrm(3 sigma2, delta) + 26 * e_hrm(2 sigma2, delta),

the 3 sigma2 / 2 sigma2 arguments reflecting that an entangling gate doubles
the momentum-quadrature variance of the qubits it touches, so fused outcomes
carry two or three tooth variances.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

from . import hrm as hrm_mod
from .noise_core import SQRT_PI, _require
from .protocols import (
    DEFAULT_PREP_DELTA, ProtocolSpec, RatePoint, Variant, _any_fails, segment_variance,
)


class DecodingMode(str, Enum):
    HRM_POSTSELECTED = "hrm"
    PATH_SELECTION = "path-selection"


#: Encoded part of one cluster: 10 encoded node qubits, each made of 3 node
#: qubits carrying 3 ancillas apiece. The error composition below (E_X,
#: E_Z**4, the fusion counts of prep_error) is written for this structure.
ENCODED_QUBITS_PER_CLUSTER = 10 * 3 * (1 + 3)


@dataclass(frozen=True)
class TreeShape:
    """Geometry of one encoded cluster: its leaf count, on top of the fixed
    encoded part. The default is 10 + 120 = 130 physical GKP qubits."""

    n_leaf: int = 10

    def __post_init__(self) -> None:
        _require("n_leaf", self.n_leaf, "be >= 1", self.n_leaf >= 1)
        _require("n_leaf", self.n_leaf, "be even: leaves are consumed in pairs", self.n_leaf % 2 == 0)

    @property
    def qubits_per_cluster(self) -> int:
        return self.n_leaf + ENCODED_QUBITS_PER_CLUSTER

    @property
    def n_pairs(self) -> int:
        """Leaf Bell-measurement pairs available per station."""
        return self.n_leaf // 2


@dataclass(frozen=True)
class ComponentErrors:
    """Error probabilities of the pieces entering one station's decoding: the
    selected leaf pair, any one node or ancilla outcome (all of which share
    the variance v_single), and cluster construction."""

    e_leaf: float
    e_single: float
    e_prep: float

    def __post_init__(self) -> None:
        for name in ("e_leaf", "e_single", "e_prep"):
            value = getattr(self, name)
            _require(name, value, "be a probability", 0.0 <= value <= 1.0)


def majority3(e: float) -> float:
    """Failure probability of a majority vote over 3 independent trials:
    3*e**2*(1-e) + e**3."""
    _require("e", e, "be a probability", 0.0 <= e <= 1.0)
    return 3.0 * e * e * (1.0 - e) + e**3


def encoded_x_error(e_single: float, printed_formula: bool = False) -> float:
    """Bit-flip-protected encoded measurement error.

    Each of the three node values is recovered by a majority vote over its
    three ancilla outcomes, each wrong with probability e_single, and the
    encoded measurement fails if any node's vote does:

        E_X = 1 - (1 - majority3(e_single))**3  ~ 9*e_single**2 for small error,

    evaluated as ``_any_fails((majority3(e_single), 3))``.

    ``printed_formula=True`` switches the per-node term to 3*(1-e_single)**2.
    That expression tends to 3 as the error vanishes and exceeds 1 already at
    e_single = 0.01, so it is non-physical; it is kept only for auditing
    against the majority-vote form, evaluated literally so that its value
    above 1 shows, and must not be used in rate calculations.
    """
    _require("e_single", e_single, "be a probability", 0.0 <= e_single <= 1.0)
    if printed_formula:
        return 1.0 - (1.0 - 3.0 * (1.0 - e_single) ** 2) ** 3
    return _any_fails((majority3(e_single), 3))


def encoded_z_error(e_single: float) -> float:
    """Phase-flip-protected encoded measurement error.

    Each of three blocks combines one node outcome with its three ancilla
    outcomes and is wrong when any of the four is:

        p_block = 1 - (1 - e_single)**4,

    evaluated as ``_any_fails((e_single, 4))``. The encoded value is a
    majority over the three blocks, so E_Z = majority3(p_block), whose
    leading order 3*p_block**2 ~ 48*e_single**2 matches the small-error
    expansion.
    """
    _require("e_single", e_single, "be a probability", 0.0 <= e_single <= 1.0)
    return majority3(_any_fails((e_single, 4)))


def prep_error(sigma2: float, delta: float = DEFAULT_PREP_DELTA) -> float:
    """Cluster-construction error from the HRM-checked fusion sequence.

    34 fused outcomes carry three tooth variances and 26 carry two, giving
    e_prep = 34 * e_hrm(3*sigma2, delta) + 26 * e_hrm(2*sigma2, delta).
    The result is clamped to 1 (the coefficients are expectation counts and
    the linear form can exceed 1 at very low squeezing).
    """
    value = 34.0 * hrm_mod.e_hrm(3.0 * sigma2, delta) + 26.0 * hrm_mod.e_hrm(
        2.0 * sigma2, delta
    )
    return min(1.0, value)


def repeater_error(components: ComponentErrors) -> float:
    """Per-station error of the encoded measurement chain.

    E_QR = 1 - (1-e_leaf)(1-e_prep)(1-E_X)(1-E_Z)**4 with E_X and E_Z built
    from the one single-qubit error e_single, evaluated by ``_any_fails``.
    """
    e_x = encoded_x_error(components.e_single)
    e_z = encoded_z_error(components.e_single)
    return _any_fails((components.e_leaf, 1), (components.e_prep, 1), (e_x, 1), (e_z, 4))


def single_qubit_variance(spec: ProtocolSpec) -> float:
    """Variance of a single transmitted node/ancilla homodyne outcome: one
    tooth variance plus one input's channel noise."""
    return spec.squeezing.sigma2 + spec.variant.input_noise(spec.eta)


def _check_tree_spec(spec: ProtocolSpec) -> None:
    if spec.variant is not Variant.TWO_WAY_CC:
        raise ValueError(
            "tree-encoded protocols run on the two-way outcome-rescaling "
            f"geometry (variant {Variant.TWO_WAY_CC.value}), got {spec.variant.value}"
        )


#: Cells per residue magnitude in the path-selection quadrature. The cell sum
#: errs as 1/m**2 with a 1/m**3 term behind it, which extrapolating m and 2m
#: cells leaves: at m = 100 the result is 3.5e-6 relative off a Richardson
#: limit from m = 800 at 15 dB, and 6.1e-6 at 20 dB (l0 = 3 km, 5 pairs).
_LEAF_CELLS = 100


def _selected_pair_error(v_leaf: float, n_pairs: int, m: int) -> float:
    """Error of the pair with the smallest s = r1**2 + r2**2 among n_pairs,
    with each residue magnitude |r| binned into m cells on [0, sqrt(pi)/2].

    A cell's even and odd masses are differences of the postselected lattice
    sums at margin sqrt(pi)/2 - w. Cell pairs are keyed by the exact integer
    (2i+1)**2 + (2j+1)**2 of their midpoints, so pairs with equal s merge. A
    merged cell of mass M holds the smallest of n_pairs draws with probability
    a**n - b**n, b being the mass above it and a = b + M; that pair is then
    wrong (its outcomes not both even) with probability wrong/M.
    """
    margins = [SQRT_PI / 2 * ((m - i) / m) for i in range(1, m + 1)]
    even = [0.0] + [hrm_mod.p_cor(v_leaf, d) for d in margins]
    odd = [0.0] + [hrm_mod.p_in(v_leaf, d) for d in margins]
    e = [hi - lo for lo, hi in zip(even, even[1:])]
    o = [hi - lo for lo, hi in zip(odd, odd[1:])]
    # Each cell's total mass and squared odd midpoint, computed once rather
    # than per cell pair; the sums below add the same terms in the same order.
    squares = [(2 * i + 1) ** 2 for i in range(m)]
    cells = list(zip(squares, e, o, [ei + oi for ei, oi in zip(e, o)]))
    mass, wrong = defaultdict(float), defaultdict(float)
    for sq_i, e_i, o_i, t_i in cells:
        for sq_j, _, o_j, t_j in cells:
            key = sq_i + sq_j
            mass[key] += t_i * t_j
            wrong[key] += e_i * o_j + o_i * t_j
    expm1, log1p = math.expm1, math.log1p
    total = above = 0.0
    for key in sorted(mass, reverse=True):
        cell, a = mass[key], above + mass[key]
        if cell > 0.0:
            # a**n - b**n, in a form that does not cancel for a thin cell.
            drop = -expm1(n_pairs * log1p(-cell / a)) if cell < a else 1.0
            total += wrong[key] / cell * a**n_pairs * drop
        above = a
    return total


@functools.lru_cache(maxsize=None)
def _path_selection_leaf_error(v_leaf: float, n_pairs: int) -> float:
    """Probability that the maximum-likelihood leaf pair out of n_pairs is
    wrong: the extrapolation (4 P(2m) - P(m)) / 3 of the cell sums. It meets
    the closed forms 0 at v_leaf = 0, 3/4 once the residues are uniform and
    1 - (1 - e_hrm(v_leaf))**2 for one pair up to the cell sums' rounding,
    which grows with n_pairs: uniform residues give 0.74999999996 at 500 pairs.
    Where both cell sums are near underflow (v_leaf ~ 0.0017-0.0020 at 5
    pairs) the extrapolation can read below 0, by up to ~1e-270, so it is
    clamped at 0: finer cells put the value there below ~3e-270.
    The cache is one of ``hrm.COMMAND_CACHES``, cleared at the start of each
    command, and unbounded: a sweep visits its spacings once per margin, a
    cycle that a bounded LRU would evict whole.
    """
    fine = _selected_pair_error(v_leaf, n_pairs, 2 * _LEAF_CELLS)
    return max(0.0, (4.0 * fine - _selected_pair_error(v_leaf, n_pairs, _LEAF_CELLS)) / 3.0)


hrm_mod.COMMAND_CACHES.append(_path_selection_leaf_error)


def component_errors(
    spec: ProtocolSpec,
    tree: TreeShape = TreeShape(),
    mode: DecodingMode = DecodingMode.PATH_SELECTION,
    prep_delta: float = DEFAULT_PREP_DELTA,
    mc: object = None,
) -> ComponentErrors:
    """Assemble the per-station component errors for the given decoding mode.

    Node and ancilla single-qubit measurements are never postselected (the
    HRM margin applies only to leaf Bell measurements and to construction
    fusions), so they fail at the unpostselected rate e_single of their
    shared outcome variance v_single. In path-selection mode the leaf error
    is that of the maximum-likelihood pair (``_path_selection_leaf_error``);
    it depends only on the leaf variance and n_pairs, so it ignores the HRM
    margin. ``mc`` is accepted for compatibility and unused: no Monte Carlo
    enters a rate.
    """
    _check_tree_spec(spec)
    mode = DecodingMode(mode)
    # Both leaves of a pair crossed l0/2: the bare two-way-cc segment variance.
    v_leaf = segment_variance(spec)
    e_single = hrm_mod.e_hrm(single_qubit_variance(spec), 0.0)
    if mode is DecodingMode.HRM_POSTSELECTED:
        e_leaf = hrm_mod.e_hrm(v_leaf, spec.hrm.delta)
    else:
        e_leaf = _path_selection_leaf_error(v_leaf, tree.n_pairs)
    return ComponentErrors(e_leaf, e_single, prep_error(spec.squeezing.sigma2, prep_delta))


def station_acceptance(spec: ProtocolSpec, tree: TreeShape = TreeShape()) -> float:
    """Probability that at least one leaf pair of a station passes the HRM.

    One pair passes when both of its homodyne outcomes do, so with n_pairs
    independent pairs: 1 - (1 - p_suc(v_leaf, delta)**2)**n_pairs, evaluated
    by ``_any_fails`` with a pair's pass as its event.
    """
    _check_tree_spec(spec)
    p_pair = hrm_mod.p_suc(segment_variance(spec), spec.hrm.delta) ** 2
    return _any_fails((p_pair, tree.n_pairs))


def _chain_acceptance(spec: ProtocolSpec, tree: TreeShape, mode: DecodingMode) -> float:
    """Probability that every station accepts: 1 for path selection, which
    never discards, and station_acceptance ** n_qr for postselected leaves."""
    if DecodingMode(mode) is DecodingMode.PATH_SELECTION:
        return 1.0
    return station_acceptance(spec, tree) ** spec.n_qr


def tree_key_rate(
    spec: ProtocolSpec,
    tree: TreeShape = TreeShape(),
    mode: DecodingMode = DecodingMode.PATH_SELECTION,
    prep_delta: float = DEFAULT_PREP_DELTA,
    components: ComponentErrors | None = None,
) -> RatePoint:
    """Secure key rate of the tree-encoded two-way protocol.

    E_AB accumulates the per-station error E_QR over n_qr stations like the
    bare chain (``RatePoint.of``); the success probability is 1 for path
    selection and the every-station-accepts probability for the postselected
    mode. Passing precomputed ``components`` skips the component evaluation.
    """
    comps = components if components is not None else component_errors(
        spec, tree, mode, prep_delta
    )
    return RatePoint.of(spec, repeater_error(comps), _chain_acceptance(spec, tree, mode))


#: Fusing the cluster consumes two GKP qubits per Bell measurement. The 60
#: HRM-checked fusion outcomes behind the prep_error coefficients correspond
#: to 30 fusions, i.e. 60 consumed qubits on top of those that survive in
#: the finished cluster.
CONSTRUCTION_QUBITS_PER_CLUSTER = 60


@dataclass(frozen=True)
class ResourceCount:
    """Expected GKP-qubit cost of one end-to-end transmission attempt chain."""

    n_clusters: int
    qubits_per_cluster: int
    acceptance: float

    @property
    def total_qubits(self) -> float:
        """Qubits of the final clusters divided by the acceptance probability
        (expected repetitions until every station succeeds)."""
        return self.n_clusters * self.qubits_per_cluster / self.acceptance

    @property
    def construction_overhead_multiplier(self) -> float:
        """The separate factor by which the fusion-consumed qubits would
        inflate the count; reported, not applied."""
        return (self.qubits_per_cluster + CONSTRUCTION_QUBITS_PER_CLUSTER) / self.qubits_per_cluster


def resource_count(
    spec: ProtocolSpec,
    tree: TreeShape = TreeShape(),
    mode: DecodingMode = DecodingMode.PATH_SELECTION,
    acceptance: float | None = None,
) -> ResourceCount:
    """Expected total GKP qubits to push one qubit from end to end.

    (n_qr + 1) clusters are consumed per attempt; path selection always
    succeeds while the postselected mode repeats until every station accepts.
    Passing the every-station ``acceptance`` already in a RatePoint's p_suc
    skips its evaluation.
    """
    _check_tree_spec(spec)
    if acceptance is None:
        acceptance = _chain_acceptance(spec, tree, mode)
    return ResourceCount(spec.n_qr + 1, tree.qubits_per_cluster, acceptance)
