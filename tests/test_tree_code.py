"""Tree-encoded protocol: majority-vote combinatorics, per-station error
composition, key rates, and qubit resource counts."""

import math
import sys
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from gkp_repeater import hrm as hrm_mod
from gkp_repeater.hrm import HrmPolicy, e_hrm
from gkp_repeater.mc_oracle import TrialConfig, simulate_path_selection
from gkp_repeater.noise_core import SqueezingSpec
from gkp_repeater.protocols import ProtocolSpec, Variant, chain_error, segment_variance
from gkp_repeater import tree_code
from gkp_repeater.tree_code import (
    ComponentErrors,
    DecodingMode,
    TreeShape,
    component_errors,
    encoded_x_error,
    encoded_z_error,
    majority3,
    prep_error,
    repeater_error,
    resource_count,
    single_qubit_variance,
    station_acceptance,
    tree_key_rate,
)
from reference import (
    chain_error_mp,
    encoded_x_error_mp,
    encoded_z_error_mp,
    enumerate_majority3,
    majority3_mp,
    repeater_error_mp,
    station_acceptance_mp,
)

SQRT_PI = math.sqrt(math.pi)
SQ15 = SqueezingSpec.from_db(15.0)


def cc_spec(n_qr=1, l0=3.0, delta=0.0):
    return ProtocolSpec(
        variant=Variant.TWO_WAY_CC,
        n_qr=n_qr,
        l0_km=l0,
        squeezing=SQ15,
        hrm=HrmPolicy(delta),
    )


class TestMajority3:
    def test_endpoints(self):
        assert majority3(0.0) == 0.0
        assert majority3(1.0) == 1.0

    def test_tenth_is_28_per_mille(self):
        assert majority3(0.1) == pytest.approx(0.028, abs=1e-15)

    def test_against_pattern_enumeration(self):
        rng = np.random.default_rng(3)
        for e in rng.uniform(0.0, 1.0, 50):
            assert majority3(e) == pytest.approx(
                enumerate_majority3(e), rel=1e-12, abs=1e-15
            )


class TestEncodedXError:
    def test_zero(self):
        assert encoded_x_error(0.0) == 0.0

    def test_tenth_frozen(self):
        # 1 - (1 - 0.028)**3, brute-forced from the majority composition.
        assert encoded_x_error(0.1) == pytest.approx(0.081669952, abs=1e-12)

    def test_small_error_scales_as_nine_e_squared(self):
        e = 1e-3
        assert encoded_x_error(e) == pytest.approx(9 * e * e, rel=0.01)

    def test_monotone_and_vanishing(self):
        values = [encoded_x_error(e) for e in np.linspace(0.0, 0.5, 40)]
        assert values[0] == 0.0
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_printed_form_is_nonphysical(self):
        # The audited alternative per-node expression 3*(1-e)^2 blows past
        # probability 1 at small error; regression-locked here to justify the
        # majority-vote reading used everywhere else.
        value = encoded_x_error(0.01, printed_formula=True)
        assert value > 1.0
        assert value == pytest.approx(8.304771763827, abs=1e-9)


class TestEncodedZError:
    def test_zero(self):
        assert encoded_z_error(0.0) == 0.0

    def test_certain_block_failure(self):
        assert encoded_z_error(1.0) == 1.0

    def test_example_frozen(self):
        # p_block = 1 - 0.99**4; brute-forced over the 8 block patterns
        # below, and exactly in rationals for the frozen value.
        p_block = 1 - (1 - 0.01) ** 4
        assert p_block == pytest.approx(0.03940399, abs=1e-12)
        assert encoded_z_error(0.01) == pytest.approx(
            enumerate_majority3(p_block), rel=1e-12
        )
        assert encoded_z_error(0.01) == pytest.approx(
            0.004535660148498261, abs=1e-12
        )

    def test_quadratic_scaling_ratio_converges(self):
        ratios = [encoded_z_error(eps) / eps**2 for eps in (1e-2, 1e-3, 1e-4)]
        # p_block ~ 4*eps, so the ratio tends to 3 * 16 = 48.
        assert ratios[2] == pytest.approx(48.0, rel=0.01)
        assert abs(ratios[1] - ratios[2]) < abs(ratios[0] - ratios[1])

    def test_monotone_in_each_component(self):
        # One component: every node and ancilla outcome fails with e_single.
        values = [encoded_z_error(e) for e in np.linspace(0, 0.4, 30)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_one_node_and_three_ancillas_bitwise(self):
        # A block's one node and three ancillas share e_single, so
        # _any_fails((e, 4)) must equal the node-plus-ancillas form
        # _any_fails((e, 1), (e, 3)) bit for bit: fsum(x, fl(3x)) rounds to
        # the exact 4x.
        rng = np.random.default_rng(23)
        samples = np.concatenate([10.0 ** rng.uniform(-300, 0, 20_000), rng.uniform(0, 1, 20_000)])
        for e in map(float, samples):
            split = majority3(tree_code._any_fails((e, 1), (e, 3)))
            assert encoded_z_error(e) == split, e


def e_hrm_quadrature(sigma2: float, delta: float, kmax: int = 20) -> float:
    """Independent lattice-sum oracle via adaptive quadrature."""

    def density(x):
        return math.exp(-(x**2) / (2 * sigma2)) / math.sqrt(2 * math.pi * sigma2)

    masses = {False: 0.0, True: 0.0}
    for odd in (False, True):
        for k in range(-kmax, kmax + 1):
            center = (2 * k + 1) * SQRT_PI if odd else 2 * k * SQRT_PI
            lo, hi = center - SQRT_PI / 2 + delta, center + SQRT_PI / 2 - delta
            masses[odd] += integrate.quad(density, lo, hi, epsabs=1e-16)[0]
    return masses[True] / (masses[True] + masses[False])


class TestPrepError:
    def test_vanishes_with_squeezing(self):
        assert prep_error(0.0, SQRT_PI / 10) == 0.0
        assert prep_error(1e-6, SQRT_PI / 10) < 1e-12

    def test_coefficients(self):
        sigma2, delta = SQ15.sigma2, SQRT_PI / 10
        expected = 34 * e_hrm(3 * sigma2, delta) + 26 * e_hrm(2 * sigma2, delta)
        assert prep_error(sigma2, delta) == pytest.approx(expected, rel=1e-14)

    def test_against_quadrature_oracle(self):
        sigma2, delta = 0.0158, SQRT_PI / 10
        expected = 34 * e_hrm_quadrature(3 * sigma2, delta) + 26 * e_hrm_quadrature(
            2 * sigma2, delta
        )
        assert prep_error(sigma2, delta) == pytest.approx(expected, rel=1e-6)

    def test_clamped_at_one(self):
        assert prep_error(5.0, 0.0) == 1.0


class TestRepeaterError:
    def test_zeros(self):
        comps = ComponentErrors(0.0, 0.0, 0.0)
        assert repeater_error(comps) == 0.0

    def test_certain_preparation_failure(self):
        comps = ComponentErrors(0.0, 0.0, 1.0)
        assert repeater_error(comps) == 1.0

    def test_composition_formula(self):
        comps = ComponentErrors(0.01, 0.003, 0.005)
        expected = 1 - (
            (1 - 0.01)
            * (1 - 0.005)
            * (1 - encoded_x_error(0.003))
            * (1 - encoded_z_error(0.003)) ** 4
        )
        assert repeater_error(comps) == pytest.approx(expected, rel=1e-14)


def assert_matches_mp(value, reference):
    """value within 1e-13 of the high-precision reference. Below the normal
    range a double holds fewer digits, so there it may be 16 subnormal steps
    off."""
    want = float(reference)
    slack = 0.0 if want >= sys.float_info.min else 16 * 5e-324
    assert value == pytest.approx(want, rel=1e-13, abs=slack)


def leaf_pair_acceptance(spec):
    """The probability that one leaf pair passes, as station_acceptance uses it."""
    return hrm_mod.p_suc(segment_variance(spec), spec.hrm.delta) ** 2


class TestCompositionAgainstMpmath:
    """Every 1 - product of the station composition, from the same float
    components, against its literal form at high precision (reference.py)."""

    @pytest.mark.parametrize("mode", list(DecodingMode))
    @pytest.mark.parametrize("db", [10.0, 15.0, 20.0, 30.0, 40.0])
    def test_published_squeezing_range(self, db, mode):
        pytest.importorskip("mpmath")
        spec = ProtocolSpec(Variant.TWO_WAY_CC, 332, 3.0, SqueezingSpec.from_db(db),
                            HrmPolicy(SQRT_PI / 6))
        comps = component_errors(spec, mode=mode)
        e_qr = repeater_error(comps)
        checks = [
            (majority3(comps.e_single), majority3_mp(comps.e_single)),
            (encoded_x_error(comps.e_single), encoded_x_error_mp(comps.e_single)),
            (encoded_z_error(comps.e_single), encoded_z_error_mp(comps.e_single)),
            (e_qr, repeater_error_mp(comps)),
            (tree_key_rate(spec, mode=mode, components=comps).ex_ab, chain_error_mp(e_qr, 332)),
            (station_acceptance(spec), station_acceptance_mp(leaf_pair_acceptance(spec), 5)),
        ]
        for value, reference in checks:
            assert value == pytest.approx(float(reference), rel=1e-13, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        exponents=st.lists(st.floats(min_value=-300.0, max_value=math.log10(0.5)),
                           min_size=3, max_size=3),
        n_qr=st.integers(min_value=0, max_value=1700),
    )
    def test_log_uniform_components(self, exponents, n_qr):
        pytest.importorskip("mpmath")
        comps = ComponentErrors(*(10.0**x for x in exponents))
        assert_matches_mp(majority3(comps.e_single), majority3_mp(comps.e_single))
        assert_matches_mp(encoded_x_error(comps.e_single), encoded_x_error_mp(comps.e_single))
        assert_matches_mp(encoded_z_error(comps.e_single), encoded_z_error_mp(comps.e_single))
        e_qr = repeater_error(comps)
        assert_matches_mp(e_qr, repeater_error_mp(comps))
        e_station = min(e_qr, 0.5)
        assert_matches_mp(chain_error(e_station, n_qr), chain_error_mp(e_station, n_qr))

    @settings(max_examples=100, deadline=None)
    @given(
        db=st.floats(min_value=10.0, max_value=40.0),
        gap=st.floats(min_value=0.0, max_value=15.0),
        l0=st.floats(min_value=0.1, max_value=50.0),
        n_pairs=st.integers(min_value=1, max_value=500),
    )
    def test_station_acceptance_at_any_margin(self, db, gap, l0, n_pairs):
        # Margins up to 1e-15 short of sqrt(pi)/2 take a pair's acceptance
        # down to ~1e-30, where the literal form cancels.
        pytest.importorskip("mpmath")
        delta = SQRT_PI / 2 * (1.0 - 10.0**-gap)
        spec = ProtocolSpec(Variant.TWO_WAY_CC, 1, l0, SqueezingSpec.from_db(db), HrmPolicy(delta))
        assert_matches_mp(station_acceptance(spec, TreeShape(2 * n_pairs)),
                          station_acceptance_mp(leaf_pair_acceptance(spec), n_pairs))


class TestTreeShape:
    def test_default_cluster_size(self):
        tree = TreeShape()
        assert tree.qubits_per_cluster == 130
        assert tree.n_pairs == 5

    def test_odd_leaf_count_rejected(self):
        with pytest.raises(ValueError):
            TreeShape(n_leaf=9)

    @pytest.mark.parametrize("n_leaf, message", [
        (0, "n_leaf must be >= 1, got 0"),
        (3, "n_leaf must be even: leaves are consumed in pairs, got 3"),
    ])
    def test_leaf_count_errors_name_the_value(self, n_leaf, message):
        with pytest.raises(ValueError) as excinfo:
            TreeShape(n_leaf)
        assert str(excinfo.value) == message

    def test_leaf_count_changes_cost_and_rate_in_both_modes(self):
        wide = TreeShape(n_leaf=12)
        assert wide.qubits_per_cluster == 132
        assert wide.n_pairs == 6
        # Postselected mode: a sixth leaf pair raises the station acceptance.
        spec = cc_spec(n_qr=50, l0=3.0, delta=SQRT_PI / 6)
        assert resource_count(spec, wide).qubits_per_cluster == 132
        assert station_acceptance(spec, wide) > station_acceptance(spec)
        hrm = DecodingMode.HRM_POSTSELECTED
        assert tree_key_rate(spec, wide, hrm).rate > tree_key_rate(spec, mode=hrm).rate
        # Path selection: a sixth pair to choose from lowers the leaf error.
        spec = cc_spec(n_qr=10, l0=5.0)
        narrow_leaf = component_errors(spec).e_leaf
        assert component_errors(spec, wide).e_leaf < narrow_leaf
        assert tree_key_rate(spec, wide).rate > tree_key_rate(spec).rate


class TestComponentVariances:
    def test_leaf_budget_matches_bare_cc_segment(self):
        # Both leaves travel half a segment with outcome rescaling: the
        # Bell-measurement outcome carries 2*sigma2 + (1-sqrt(eta))/sqrt(eta).
        spec = cc_spec(l0=3.0)
        root = math.sqrt(spec.eta)
        assert segment_variance(spec) == pytest.approx(
            2 * SQ15.sigma2 + (1 - root) / root, rel=1e-14
        )
        assert single_qubit_variance(spec) == pytest.approx(
            SQ15.sigma2 + (1 - root) / (2 * root), rel=1e-14
        )

    def test_hrm_mode_components(self):
        spec = cc_spec(delta=SQRT_PI / 10)
        comps = component_errors(spec, mode=DecodingMode.HRM_POSTSELECTED)
        assert comps.e_leaf == pytest.approx(
            e_hrm(segment_variance(spec), SQRT_PI / 10), rel=1e-13
        )
        # Node and ancilla measurements are never postselected, and all
        # share the single-qubit variance.
        assert comps.e_single == e_hrm(single_qubit_variance(spec), 0.0)

    def test_wrong_variant_rejected(self):
        spec = ProtocolSpec(Variant.TWO_WAY_POST, 1, 3.0, SQ15)
        with pytest.raises(ValueError):
            component_errors(spec)


def leaf_error(v_leaf: float, n_pairs: int) -> float:
    """The path-selection quadrature, bypassing the per-command memo."""
    return tree_code._path_selection_leaf_error.__wrapped__(v_leaf, n_pairs)


def leaf_variance_at(db: float, l0: float) -> float:
    return segment_variance(
        ProtocolSpec(Variant.TWO_WAY_CC, 1, l0, SqueezingSpec.from_db(db))
    )


class TestPathSelectionQuadrature:
    @pytest.mark.parametrize("v_leaf", [1e-3, 0.05, 0.1024, 0.25, 0.6, 2.0, 50.0])
    def test_single_pair_is_the_unselected_pair_error(self, v_leaf):
        e = e_hrm(v_leaf, 0.0)
        assert leaf_error(v_leaf, 1) == pytest.approx(e * (2 - e), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n_pairs", [1, 2, 5, 17, 500])
    def test_exact_ends(self, n_pairs):
        assert leaf_error(0.0, n_pairs) == 0.0
        for v_leaf in (400.0, 1e4, 1e12):
            assert leaf_error(v_leaf, n_pairs) == pytest.approx(0.75, rel=1e-12)

    # At 0.0019 the former cell-sum extrapolation read below 0 from 5 pairs on.
    @pytest.mark.parametrize("v_leaf", [0.0019, 0.02, 0.1024, 0.3, 1.0, 5.0])
    def test_more_pairs_never_raise_the_error(self, v_leaf):
        values = [leaf_error(v_leaf, n) for n in range(1, 13)]
        assert all(0.0 <= b <= a for a, b in zip(values, values[1:])), values

    def test_doubling_the_nodes_and_panels_moves_the_value_below_1e10(self, monkeypatch):
        cases = [(leaf_variance_at(15, 3), 5), (leaf_variance_at(12, 6), 10), (0.25, 3)]
        base = [leaf_error(v, n) for v, n in cases]
        monkeypatch.setattr(tree_code, "_LEAF_NODES", 2 * tree_code._LEAF_NODES)
        monkeypatch.setattr(tree_code, "_PANEL_WIDTHS", tree_code._PANEL_WIDTHS / 2)
        for (v, n), value in zip(cases, base):
            assert leaf_error(v, n) == pytest.approx(value, rel=1e-10)

    # From 40 dB at sub-kilometre spacing (0.002) to far past the tree domain,
    # at 1 to 500 pairs. Values that underflow to 0 or a subnormal are
    # compared absolutely.
    @pytest.mark.parametrize("v_leaf", [0.002, 0.0037, 0.01, 0.05, 0.1022, 0.3, 1.0, 5.0])
    def test_converged_against_doubled_nodes_and_panels(self, monkeypatch, v_leaf):
        base = {n: leaf_error(v_leaf, n) for n in (1, 5, 50, 500)}
        monkeypatch.setattr(tree_code, "_LEAF_NODES", 2 * tree_code._LEAF_NODES)
        monkeypatch.setattr(tree_code, "_PANEL_WIDTHS", tree_code._PANEL_WIDTHS / 2)
        for n, value in base.items():
            assert leaf_error(v_leaf, n) == pytest.approx(value, rel=1e-9, abs=sys.float_info.min), n

    def test_tree_recipe_leaf_error(self):
        # 15 dB, 3 km: the leaf error behind every path-selection row of the
        # tree recipe (1.6e-5 from 16 events of the former 1e6-trial run).
        assert leaf_error(leaf_variance_at(15, 3), 5) == pytest.approx(1.8194431081e-05, rel=1e-9)

    def test_small_variance_corner(self):
        # 40 dB, 0.16 km (v_leaf = 0.0037): the whole E_segment of
        # `rate --protocol tree-path-selection --squeezing-db 40 --l0 0.16`,
        # which the former 100/200-cell extrapolation put 5.3% low.
        assert leaf_error(leaf_variance_at(40, 0.16), 5) == pytest.approx(6.24825e-146, rel=1e-5)

    @pytest.mark.parametrize("db,l0,n_pairs", [
        (15, 10, 5), (15, 10, 1), (12, 6, 10), (15, 20, 5), (10, 3, 5),
    ])
    def test_agrees_with_the_sampler(self, db, l0, n_pairs):
        v_leaf = leaf_variance_at(db, l0)
        p = leaf_error(v_leaf, n_pairs)
        estimate = simulate_path_selection(v_leaf, n_pairs, TrialConfig(200_000, seed=29))
        k, n = estimate.successes, estimate.n_effective
        assert abs(k - n * p) <= 4 * math.sqrt(n * p * (1 - p)), (k, n * p)


class TestTreeKeyRate:
    def test_path_selection_is_deterministic(self):
        for l0 in (2.0, 4.0):
            point = tree_key_rate(cc_spec(n_qr=50, l0=l0))
            assert point.p_suc == 1.0

    def test_no_stations_means_no_chain_error(self):
        point = tree_key_rate(cc_spec(n_qr=0))
        assert point.ex_ab == 0.0
        assert point.rate == pytest.approx(1.0)

    def test_perfect_limit(self):
        spec = ProtocolSpec(
            Variant.TWO_WAY_CC, 10, 0.0, SqueezingSpec(0.0)
        )
        point = tree_key_rate(spec)
        assert point.rate == 1.0

    def test_hrm_mode_success_probability(self):
        spec = cc_spec(n_qr=7, l0=3.0, delta=SQRT_PI / 10)
        point = tree_key_rate(spec, mode=DecodingMode.HRM_POSTSELECTED)
        assert point.p_suc == pytest.approx(station_acceptance(spec) ** 7, rel=1e-12)
        assert point.p_suc < 1.0

    def test_station_acceptance_formula(self):
        from gkp_repeater.hrm import p_suc as hrm_p_suc

        spec = cc_spec(delta=SQRT_PI / 6)
        p_pair = hrm_p_suc(segment_variance(spec), SQRT_PI / 6) ** 2
        assert station_acceptance(spec) == pytest.approx(
            1 - (1 - p_pair) ** 5, rel=1e-12
        )


class TestResourceCount:
    def test_thousand_stations(self):
        count = resource_count(cc_spec(n_qr=999))
        assert count.total_qubits == 130_000
        assert count.qubits_per_cluster == 130
        assert count.n_clusters == 1000

    def test_single_sender(self):
        assert resource_count(cc_spec(n_qr=0)).total_qubits == 130

    def test_construction_overhead_reported_not_applied(self):
        count = resource_count(cc_spec(n_qr=9))
        assert count.construction_overhead_multiplier == pytest.approx(190 / 130)
        assert count.total_qubits == 130 * 10

    def test_postselected_mode_costs_more(self):
        spec = cc_spec(n_qr=20, l0=3.0, delta=SQRT_PI / 6)
        probabilistic = resource_count(spec, mode=DecodingMode.HRM_POSTSELECTED)
        deterministic = resource_count(spec, mode=DecodingMode.PATH_SELECTION)
        assert probabilistic.acceptance < 1.0
        assert probabilistic.total_qubits > deterministic.total_qubits


def reference_selected_pair_error(v_leaf: float, n_pairs: int, m: int) -> float:
    """The path-selection leaf error from m x m cells: each residue magnitude
    |r| binned into m cells on [0, sqrt(pi)/2], whose even and odd masses are
    differences of the postselected lattice sums at margin sqrt(pi)/2 - w.
    Cell pairs are keyed by the exact integer (2i+1)**2 + (2j+1)**2 of their
    midpoints, so pairs with equal s merge. A merged cell of mass M holds the
    smallest of n_pairs draws with probability a**n - b**n, b being the mass
    above it and a = b + M; that pair is then wrong (its outcomes not both
    even) with probability wrong/M. The error falls as 1/m**2, with a
    1/m**3 term behind it. This form recomputes the cell masses for every
    cell pair."""
    margins = [SQRT_PI / 2 * ((m - i) / m) for i in range(1, m + 1)]
    even = [0.0] + [hrm_mod.p_cor(v_leaf, d) for d in margins]
    odd = [0.0] + [hrm_mod.p_in(v_leaf, d) for d in margins]
    e = [hi - lo for lo, hi in zip(even, even[1:])]
    o = [hi - lo for lo, hi in zip(odd, odd[1:])]
    mass, wrong = defaultdict(float), defaultdict(float)
    for i in range(m):
        for j in range(m):
            key = (2 * i + 1) ** 2 + (2 * j + 1) ** 2
            mass[key] += (e[i] + o[i]) * (e[j] + o[j])
            wrong[key] += e[i] * o[j] + o[i] * (e[j] + o[j])
    total = above = 0.0
    for key in sorted(mass, reverse=True):
        cell, a = mass[key], above + mass[key]
        if cell > 0.0:
            drop = -math.expm1(n_pairs * math.log1p(-cell / a)) if cell < a else 1.0
            total += wrong[key] / cell * a**n_pairs * drop
        above = a
    return total


def cell_sum(v_leaf: float, n_pairs: int, m: int) -> float:
    """reference_selected_pair_error with each cell's masses and squared odd
    midpoint hoisted out of the cell-pair loop, adding the same terms in the
    same order; the Richardson limits below use it."""
    margins = [SQRT_PI / 2 * ((m - i) / m) for i in range(1, m + 1)]
    even = [0.0] + [hrm_mod.p_cor(v_leaf, d) for d in margins]
    odd = [0.0] + [hrm_mod.p_in(v_leaf, d) for d in margins]
    e = [hi - lo for lo, hi in zip(even, even[1:])]
    o = [hi - lo for lo, hi in zip(odd, odd[1:])]
    cells = list(zip([(2 * i + 1) ** 2 for i in range(m)], e, o, [ei + oi for ei, oi in zip(e, o)]))
    mass, wrong = defaultdict(float), defaultdict(float)
    for sq_i, e_i, o_i, t_i in cells:
        for sq_j, _, o_j, t_j in cells:
            key = sq_i + sq_j
            mass[key] += t_i * t_j
            wrong[key] += e_i * o_j + o_i * t_j
    total = above = 0.0
    for key in sorted(mass, reverse=True):
        cell, a = mass[key], above + mass[key]
        if cell > 0.0:
            drop = -math.expm1(n_pairs * math.log1p(-cell / a)) if cell < a else 1.0
            total += wrong[key] / cell * a**n_pairs * drop
        above = a
    return total


class TestCellSumReference:
    @pytest.mark.parametrize("v_leaf", [
        0.0, 0.02, leaf_variance_at(15, 3), leaf_variance_at(20, 3), leaf_variance_at(40, 3),
        1.0, 400.0, 1e4,
    ])
    @pytest.mark.parametrize("n_pairs", [1, 5, 500])
    def test_hoisted_loop_is_bitwise_the_reference(self, v_leaf, n_pairs):
        for m in (1, 7, 100, 200):
            assert cell_sum(v_leaf, n_pairs, m) == reference_selected_pair_error(v_leaf, n_pairs, m), m

    # With one pair or uniform residues the cell sum is exact at every m and
    # its steps are rounding, so the limit is taken where selection makes it
    # converge as 1/m**2.
    @pytest.mark.parametrize("v_leaf", [
        0.02, leaf_variance_at(15, 3), leaf_variance_at(20, 3), leaf_variance_at(40, 3), 1.0,
    ])
    @pytest.mark.parametrize("n_pairs", [5, 500])
    def test_quadrature_meets_the_richardson_limit(self, v_leaf, n_pairs):
        p50, p100, p200 = (cell_sum(v_leaf, n_pairs, m) for m in (50, 100, 200))
        coarse, fine = (4 * p100 - p50) / 3, (4 * p200 - p100) / 3
        limit = (8 * fine - coarse) / 7
        assert abs(leaf_error(v_leaf, n_pairs) - limit) <= abs(limit - fine)
