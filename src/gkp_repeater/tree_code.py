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
  over the residue distribution, computed by a graded Gauss-Legendre
  quadrature over the residue densities and tails
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


#: Gauss-Legendre nodes per panel, in each variable of the leaf quadrature.
_LEAF_NODES = 16

#: The widest a panel may be, in widths of the steepest feature of its
#: integrand (``_leaf_nodes``). A width is one standard deviation of a
#: Gaussian feature and 4 e-folds of an exponential one: on their own, 16
#: nodes integrate a Gaussian over 6 standard deviations and exp(-x) over 24
#: e-folds to 5e-14, and the margin covers the features' products. Doubling
#: the nodes and halving the panels moves the leaf error by at most 1e-10
#: relative from v_leaf = 5e-4 to 30 and 1 to 500 pairs.
_PANEL_WIDTHS = 4.0


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[tuple[float, float], ...]:
    """(node, weight) of the n-point Gauss-Legendre rule on [-1, 1], each
    root of P_n polished by Newton's method from its asymptotic guess."""
    rule = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            slope = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / slope
            x -= step
            if abs(step) < 1e-15:
                break
        rule.append((x, 2.0 / ((1.0 - x * x) * slope * slope)))
    return tuple(rule)


def _leaf_nodes(lo: float, hi: float, width_lo: float, width_hi: float = math.inf) -> list:
    """(node, weight) pairs of a Gauss-Legendre rule on [lo, hi] whose panels
    halve toward each end until the end panel spans at most _PANEL_WIDTHS
    feature widths (``width_lo`` at lo, ``width_hi`` at hi)."""
    length = hi - lo
    breaks = {lo, hi}
    for width, end, step in ((width_lo, lo, 1.0), (width_hi, hi, -1.0)):
        panel = _PANEL_WIDTHS * width
        if panel < length:
            halvings = math.ceil(math.log2(length / panel))
            breaks.update(end + step * length / 2**j for j in range(1, halvings + 1))
    edges = sorted(breaks)
    nodes = []
    for a, b in zip(edges, edges[1:]):
        half = 0.5 * (b - a)
        mid = a + half
        nodes.extend((mid + half * x, half * w) for x, w in _gauss_legendre(_LEAF_NODES))
    return nodes


@functools.lru_cache(maxsize=None)
def _path_selection_leaf_error(v_leaf: float, n_pairs: int) -> float:
    """Probability that the maximum-likelihood leaf pair out of n_pairs is
    wrong, i.e. that either of its two outcomes is odd (Fukui, Tomita and
    Okamoto, PRL 119, 180507 (2017), for the selection rule).

    The selected pair has the smallest s = x1**2 + x2**2 of the residue
    magnitudes, so with G(s) = P(x1**2 + x2**2 > s) for one pair

        E = integral over [0, 2 a**2] of n G(s)**(n - 1) W'(s) ds,

    where W'(s) = (1/2) * integral over the arc x = sqrt(s) (cos t, sin t)
    inside the square [0, a]**2 of e(x1) o(x2) + o(x1) t(x2) dt, t = e + o.
    Both integrands are symmetric under x1 <-> x2, so the arc is integrated
    over x1 <= x2 only, where x2 >= sqrt(s/2), and

        G(s) = U(sqrt(s/2))**2 + 2 * integral of t(x1) U(x2) x2 dt

    over the same half arc, from the residue tail U (``hrm.residue_law``), so
    that G keeps its relative accuracy where it is tiny. s is split at a**2,
    and the upper panel is mapped by s = a**2 (1 + sin(psi)**2), which makes
    the kink at a**2 and the arc's end at 2 a**2 smooth in psi. Each
    variable has 16-node Gauss-Legendre panels graded toward its steep ends
    (``_leaf_nodes``); the feature widths come from v_leaf and n_pairs:

    * s near 0: G**(n - 1) falls by e over 4 / ((n - 1) pi t(0)**2), which
      is 2 v / (n - 1) for small v and 1 / (n - 1) for uniform residues.
    * s below a**2: W' rises by e over 2 v.
    * psi near 0: the pair density falls as a Gaussian of width sqrt(v) / a.
    * along the arc: W' is a Gaussian of width (v / sqrt(pi s))**(1/2) at
      the largest x2, and above a**2 U(x2) leaves 0 by e over
      v / (a sqrt(s - a**2)).

    One pair gives 1 - (1 - e_hrm(v_leaf))**2, and uniform residues 3/4,
    to 1e-13 relative. The selected pair is wrong only if some
    outcome is odd, so E <= 2 n p_in: where p_in underflows to 0 (v_leaf
    below ~5e-4, and at v_leaf = 0), so does E. The cache is one of
    ``hrm.COMMAND_CACHES``, cleared at the start of each command, and
    unbounded: a sweep visits its spacings once per margin, a cycle that a
    bounded LRU would evict whole.
    """
    if hrm_mod.p_in(v_leaf) == 0.0:
        return 0.0
    n = n_pairs
    a = SQRT_PI / 2
    a2 = a * a
    _, tail, densities = hrm_mod.residue_law(v_leaf)
    sigma = math.sqrt(v_leaf)
    sqrt, sin, cos = math.sqrt, math.sin, math.cos

    def selected_wrong(s: float) -> float:
        """n G(s)**(n - 1) W'(s)."""
        r = sqrt(s)
        width = sigma / sqrt(sqrt(math.pi * s))
        if s <= a2:
            lo = 0.0
        else:
            lo = math.acos(a / r)
            width = min(width, 4.0 * v_leaf / (a * sqrt(s - a2)))
        wrong = beyond = 0.0
        for angle, weight in _leaf_nodes(lo, math.pi / 4, width):
            x1, x2 = r * sin(angle), r * cos(angle)
            e1, o1 = densities(x1)
            e2, o2 = densities(x2)
            wrong += weight * (e1 * o2 + o1 * (e2 + o2))
            beyond += weight * (e1 + o1) * tail(x2) * x2
        split = tail(r / math.sqrt(2.0))
        return n * (split * split + 2.0 * beyond) ** (n - 1) * wrong

    # Exponential features enter _leaf_nodes as 4 e-folds (_PANEL_WIDTHS).
    near_zero = math.inf
    if n > 1:
        e0, o0 = densities(0.0)
        near_zero = 16.0 / ((n - 1) * math.pi * (e0 + o0) ** 2)
    total = 0.0
    for s, weight in _leaf_nodes(0.0, a2, near_zero, 8.0 * v_leaf):
        total += weight * selected_wrong(s)
    for psi, weight in _leaf_nodes(0.0, math.pi / 2, sigma / a):
        total += weight * a2 * sin(2.0 * psi) * selected_wrong(a2 * (1.0 + sin(psi) ** 2))
    return total


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
