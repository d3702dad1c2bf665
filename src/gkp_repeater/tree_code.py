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

Per-station error composition (all components assumed independent):

    E_QR = 1 - (1 - e_leaf) (1 - e_prep) (1 - E_X) (1 - E_Z)**4

where E_X protects against bit flips via three ancilla-triple majority votes
and E_Z against phase flips via a majority over three node+ancilla blocks.
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
from .noise_core import SQRT_PI
from .protocols import (
    DEFAULT_PREP_DELTA, ProtocolSpec, RatePoint, Variant, binary_entropy, chain_error, plob_bound,
    segment_variance,
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
        if self.n_leaf < 1:
            raise ValueError("n_leaf must be >= 1")
        if self.n_leaf % 2:
            raise ValueError("n_leaf must be even: leaves are consumed in pairs")

    @property
    def qubits_per_cluster(self) -> int:
        return self.n_leaf + ENCODED_QUBITS_PER_CLUSTER

    @property
    def n_pairs(self) -> int:
        """Leaf Bell-measurement pairs available per station."""
        return self.n_leaf // 2


@dataclass(frozen=True)
class ComponentErrors:
    """Error probabilities of the pieces entering one station's decoding."""

    e_leaf: float
    e_a_p: float
    e_b_p: float
    e_b_q: float
    e_prep: float

    def __post_init__(self) -> None:
        for name in ("e_leaf", "e_a_p", "e_b_p", "e_b_q", "e_prep"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")


def majority3(e: float) -> float:
    """Failure probability of a majority vote over 3 independent trials:
    3*e**2*(1-e) + e**3."""
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"e must be a probability, got {e}")
    return 3.0 * e * e * (1.0 - e) + e**3


def encoded_x_error(e_b_p: float, printed_formula: bool = False) -> float:
    """Bit-flip-protected encoded measurement error.

    Each of the three node values is recovered by a majority vote over its
    three ancilla outcomes and the encoded measurement fails if any node's
    vote does:

        E_X = 1 - (1 - majority3(e_b_p))**3      ~ 9*e_b_p**2 for small error.

    ``printed_formula=True`` switches the per-node term to 3*(1-e_b_p)**2.
    That expression tends to 3 as the error vanishes and exceeds 1 already at
    e_b_p = 0.01, so it is non-physical; it is kept only for auditing against
    the majority-vote form and must not be used in rate calculations.
    """
    if not 0.0 <= e_b_p <= 1.0:
        raise ValueError(f"e_b_p must be a probability, got {e_b_p}")
    per_node = 3.0 * (1.0 - e_b_p) ** 2 if printed_formula else majority3(e_b_p)
    return 1.0 - (1.0 - per_node) ** 3


def encoded_z_error(e_a_p: float, e_b_q: float) -> float:
    """Phase-flip-protected encoded measurement error.

    Each of three blocks combines one node outcome with its three ancilla
    outcomes and is wrong when any of the four is:

        p_block = 1 - (1 - e_a_p) * (1 - e_b_q)**3

    The encoded value is a majority over the three blocks, so
    E_Z = majority3(p_block), whose leading order 3*p_block**2 matches the
    small-error expansion.
    """
    for name, value in (("e_a_p", e_a_p), ("e_b_q", e_b_q)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be a probability, got {value}")
    p_block = 1.0 - (1.0 - e_a_p) * (1.0 - e_b_q) ** 3
    return majority3(p_block)


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
    from the component errors.
    """
    e_x = encoded_x_error(components.e_b_p)
    e_z = encoded_z_error(components.e_a_p, components.e_b_q)
    return 1.0 - (
        (1.0 - components.e_leaf)
        * (1.0 - components.e_prep)
        * (1.0 - e_x)
        * (1.0 - e_z) ** 4
    )


def leaf_variance(spec: ProtocolSpec) -> float:
    """Variance of one homodyne outcome of a leaf-pair Bell measurement.

    Both leaves traveled l0/2 with outcome rescaling, so this is the bare
    two-way-cc segment variance: two tooth variances plus two inputs' noise.
    """
    return segment_variance(spec)


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


@functools.lru_cache(maxsize=256)
def _path_selection_leaf_error(v_leaf: float, n_pairs: int) -> float:
    """Probability that the maximum-likelihood leaf pair out of n_pairs is
    wrong: the extrapolation (4 P(2m) - P(m)) / 3 of the cell sums. It meets
    the closed forms to rounding: 0 at v_leaf = 0, 3/4 once the residues are
    uniform, 1 - (1 - e_hrm(v_leaf))**2 for one pair. The cache is one of
    ``hrm.COMMAND_CACHES``, cleared at the start of each command.
    """
    fine = _selected_pair_error(v_leaf, n_pairs, 2 * _LEAF_CELLS)
    return (4.0 * fine - _selected_pair_error(v_leaf, n_pairs, _LEAF_CELLS)) / 3.0


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
    fusions), so they fail at the unpostselected rate of their outcome
    variance. In path-selection mode the leaf error is that of the
    maximum-likelihood pair (``_path_selection_leaf_error``); it depends only
    on the leaf variance and n_pairs, so it ignores the HRM margin. ``mc`` is
    accepted for compatibility and unused: no Monte Carlo enters a rate.
    """
    _check_tree_spec(spec)
    mode = DecodingMode(mode)
    v_leaf = leaf_variance(spec)
    v_single = single_qubit_variance(spec)
    e_single = hrm_mod.e_hrm(v_single, 0.0)
    if mode is DecodingMode.HRM_POSTSELECTED:
        e_leaf = hrm_mod.e_hrm(v_leaf, spec.hrm.delta)
    else:
        e_leaf = _path_selection_leaf_error(v_leaf, tree.n_pairs)
    return ComponentErrors(
        e_leaf=e_leaf,
        e_a_p=e_single,
        e_b_p=e_single,
        e_b_q=e_single,
        e_prep=prep_error(spec.squeezing.sigma2, prep_delta),
    )


def station_acceptance(spec: ProtocolSpec, tree: TreeShape = TreeShape()) -> float:
    """Probability that at least one leaf pair of a station passes the HRM.

    One pair passes when both of its homodyne outcomes do, so with n_pairs
    independent pairs: 1 - (1 - p_suc(v_leaf, delta)**2)**n_pairs.
    """
    _check_tree_spec(spec)
    p_pair = hrm_mod.p_suc(leaf_variance(spec), spec.hrm.delta) ** 2
    return 1.0 - (1.0 - p_pair) ** tree.n_pairs


def tree_key_rate(
    spec: ProtocolSpec,
    tree: TreeShape = TreeShape(),
    mode: DecodingMode = DecodingMode.PATH_SELECTION,
    prep_delta: float = DEFAULT_PREP_DELTA,
    components: ComponentErrors | None = None,
) -> RatePoint:
    """Secure key rate of the tree-encoded two-way protocol.

    E_AB accumulates the per-station error over n_qr stations exactly like the
    bare chain; the success probability is 1 for path selection and the
    every-station-accepts probability for the postselected mode. Passing
    precomputed ``components`` skips the component evaluation.
    """
    comps = components if components is not None else component_errors(
        spec, tree, mode, prep_delta
    )
    e_qr = repeater_error(comps)
    e_ab = chain_error(min(e_qr, 0.5), spec.n_qr)
    if DecodingMode(mode) is DecodingMode.PATH_SELECTION:
        p_suc_total = 1.0
    else:
        p_suc_total = station_acceptance(spec, tree) ** spec.n_qr
    rate = p_suc_total * (1.0 - 2.0 * binary_entropy(e_ab))
    return RatePoint(
        distance_km=spec.l_ab_km,
        e_segment=e_qr,
        ex_ab=e_ab,
        ez_ab=e_ab,
        p_suc=p_suc_total,
        rate=max(0.0, rate),
        plob=plob_bound(spec.l_ab_km, spec.latt_km),
    )


#: Fusing the cluster consumes two GKP qubits per Bell measurement. The 60
#: HRM-checked fusion outcomes behind the prep_error coefficients correspond
#: to 30 fusions, i.e. 60 consumed qubits on top of those that survive in
#: the finished cluster.
CONSTRUCTION_QUBITS_PER_CLUSTER = 60


@dataclass(frozen=True)
class ResourceCount:
    """Expected GKP-qubit cost of one end-to-end transmission attempt chain.

    total_qubits counts the qubits of the final clusters divided by the
    acceptance probability (expected repetitions until every station
    succeeds); construction_overhead_multiplier is the separate factor by
    which the fusion-consumed qubits would inflate the count and is reported,
    not applied.
    """

    n_clusters: int
    qubits_per_cluster: int
    acceptance: float
    total_qubits: float
    construction_overhead_multiplier: float


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
    n_clusters = spec.n_qr + 1
    per_cluster = tree.qubits_per_cluster
    if acceptance is None:
        acceptance = (
            1.0
            if DecodingMode(mode) is DecodingMode.PATH_SELECTION
            else station_acceptance(spec, tree) ** spec.n_qr
        )
    overhead = (per_cluster + CONSTRUCTION_QUBITS_PER_CLUSTER) / per_cluster
    return ResourceCount(
        n_clusters=n_clusters,
        qubits_per_cluster=per_cluster,
        acceptance=acceptance,
        total_qubits=n_clusters * per_cluster / acceptance,
        construction_overhead_multiplier=overhead,
    )
