from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest

from lap_perturb.almost_regular import (
    ContourError,
    _largest_eigenvalue,
    _walk_generating_function,
    almost_regular,
    almost_regular_series,
    chc_bound,
    chc_bound_half,
    chc_build,
    cm_closed_form,
    complete_graph_chc,
    contour_eigenvalue,
)
from lap_perturb.domain import exact_domain, to_mpf
from lap_perturb.eigen import symmetric_eigen
from lap_perturb.euler import EulerParams, euler_series, taylor_partial_sums
from lap_perturb.graph import (
    build_graph,
    closed_walk_counts,
    complete_graph,
    erdos_renyi,
    perturbed_matrix,
    ring_with_core,
)
from lap_perturb.perturb import coefficients
from oracles import closed_form_table, cm_recursion, reference_contour_eigenvalue

# Closed forms for c_2..c_10 of a one-high-degree-node graph in terms of the
# closed-walk counts w[m] = (A^m)_11 and the gap x; frozen golden vectors.
GOLDEN_CM = {
    2: lambda w, x: Fraction(w[2]) / x,
    3: lambda w, x: Fraction(w[3]) / x**2,
    4: lambda w, x: Fraction(w[4] - 2 * w[2] ** 2) / x**3,
    5: lambda w, x: Fraction(w[5] - 5 * w[2] * w[3]) / x**4,
    6: lambda w, x: Fraction(w[6] - 6 * w[2] * w[4] - 3 * w[3] ** 2 + 7 * w[2] ** 3) / x**5,
    7: lambda w, x: Fraction(
        w[7] - 7 * w[5] * w[2] - 7 * w[4] * w[3] + 28 * w[3] * w[2] ** 2) / x**6,
    8: lambda w, x: Fraction(
        w[8] - 8 * w[6] * w[2] - 8 * w[5] * w[3] - 4 * w[4] ** 2
        + 36 * w[4] * w[2] ** 2 + 36 * w[3] ** 2 * w[2] - 30 * w[2] ** 4) / x**7,
    9: lambda w, x: Fraction(
        w[9] - 9 * w[7] * w[2] - 9 * w[6] * w[3] - 9 * w[5] * w[4]
        + 45 * w[5] * w[2] ** 2 + 90 * w[4] * w[2] * w[3] + 15 * w[3] ** 3
        - 165 * w[3] * w[2] ** 3) / x**8,
    10: lambda w, x: Fraction(
        w[10] - 10 * w[8] * w[2] - 10 * w[7] * w[3] - 10 * w[6] * w[4]
        - 5 * w[5] ** 2 + 55 * w[6] * w[2] ** 2 + 110 * w[5] * w[2] * w[3]
        + 55 * w[4] ** 2 * w[2] + 55 * w[4] * w[3] ** 2 - 220 * w[4] * w[2] ** 3
        - 330 * w[3] ** 2 * w[2] ** 2 + 143 * w[2] ** 5) / x**9,
}


def star(n: int):
    return build_graph(n, [(1, j) for j in range(2, n + 1)])


class TestAlmostRegularClassifier:
    def test_ring_with_core(self):
        arg = almost_regular(ring_with_core(8, 1))
        assert (arg.special, arg.r, arg.x) == (1, 3, 4)

    def test_star(self):
        arg = almost_regular(star(6))
        assert (arg.r, arg.x) == (1, 4)

    def test_float_weights_give_exact_r_and_x(self):
        # each weight 0.3 is the dyadic Fraction(0.3); the float row sums are not exact
        g = _reweighted(ring_with_core(13, 1), 0.3)
        arg = almost_regular(g)
        assert (arg.r, arg.x) == (3 * Fraction(0.3), 9 * Fraction(0.3))
        assert arg.r + arg.x == g.degrees[0]

    def test_regular_graph_rejected(self):
        with pytest.raises(ValueError, match="strictly largest"):
            almost_regular(complete_graph(5))

    def test_uneven_rest_rejected(self, e1):
        with pytest.raises(ValueError, match="common degree"):
            almost_regular(e1)


class TestChcTable:
    def test_first_row_is_walk_counts(self):
        g = ring_with_core(8, 1)
        walks = closed_walk_counts(g, 1, 8)
        chc = chc_build(walks, 8)
        for m in range(1, 9):
            assert chc.value(1, m) == walks.counts[m]

    def test_a22_splits_into_degree_square(self):
        for g in (ring_with_core(8, 1), complete_graph(6), star(7)):
            chc = chc_build(closed_walk_counts(g, 1, 6), 6)
            assert chc.value(2, 4) == chc.value(1, 2) ** 2

    def test_vanishes_above_half_order(self):
        for g in (ring_with_core(9, 2), complete_graph(5)):
            chc = chc_build(closed_walk_counts(g, 1, 10), 10)
            for m in range(1, 11):
                for k in range(m // 2 + 1, m + 1):
                    assert chc.value(k, m) == 0

    def test_complete_graph_closed_form(self):
        for n in range(3, 13):
            chc = chc_build(closed_walk_counts(complete_graph(n), 1, 10), 10)
            for m in range(2, 11):
                for k in range(1, m + 1):
                    assert chc.value(k, m) == complete_graph_chc(n, k, m), (n, k, m)

    def test_complete_graph_first_row_alternating_sum(self):
        for n in (4, 7, 11):
            d_max = n - 1
            chc = chc_build(closed_walk_counts(complete_graph(n), 1, 9), 9)
            for m in range(2, 10):
                expected = sum((-1) ** (m - 1 - j) * d_max**j for j in range(1, m))
                assert chc.value(1, m) == expected


class TestCmClosedForm:
    def test_m2_is_degree_over_gap(self):
        g = ring_with_core(10, 2)
        arg = almost_regular(g)
        chc = chc_build(closed_walk_counts(g, 1, 4), 4)
        assert cm_closed_form(arg, chc, 2) == Fraction(9, arg.x)

    @pytest.mark.parametrize("n,k", [(8, 1), (10, 2), (21, 3)])
    def test_golden_vectors_match_closed_form_and_recursion(self, n, k):
        g = ring_with_core(n, k)
        arg = almost_regular(g)
        walks = closed_walk_counts(g, 1, 10)
        chc = chc_build(walks, 10)
        rec = cm_recursion(arg, 10)
        for m in range(2, 11):
            golden = GOLDEN_CM[m](walks.counts, Fraction(arg.x))
            assert cm_closed_form(arg, chc, m) == golden
            assert rec[m - 2] == golden

    def test_triple_equality_with_general_engine(self):
        for g in (ring_with_core(8, 2), star(9), ring_with_core(13, 1)):
            arg = almost_regular(g)
            chc = chc_build(closed_walk_counts(g, 1, 10), 10)
            rec = cm_recursion(arg, 10)
            table = coefficients(g, 1, 10)
            for m in range(2, 11):
                assert rec[m - 2] == cm_closed_form(arg, chc, m) == table.c_at(m)

    def test_float_weights_match_engine_on_their_exact_values(self):
        # the float gap 12 * 0.3 - 3 * 0.3 is 2.6999999999999993; the closed form
        # must use the exact one, as the engine does on the same dyadic weights
        g = _reweighted(ring_with_core(13, 1), 0.3)
        arg = almost_regular(g)
        chc = chc_build(closed_walk_counts(g, 1, 12), 12)
        table = coefficients(_reweighted(g, Fraction(0.3)), 1, 12, exact_domain())
        assert [cm_closed_form(arg, chc, m) for m in range(2, 13)] == list(table.c)

    def test_half_range_sum_equals_full_range(self):
        g = ring_with_core(9, 1)
        arg = almost_regular(g)
        chc = chc_build(closed_walk_counts(g, 1, 12), 12)
        from lap_perturb.almost_regular import _g_weight

        for m in range(2, 13):
            full = sum(_g_weight(k, m) * chc.value(k, m) for k in range(1, m + 1))
            half = sum(_g_weight(k, m) * chc.value(k, m) for k in range(1, m // 2 + 1))
            assert full == half


class TestChcBound:
    def test_bounds_complete_graph_in_valid_region(self):
        for n in range(3, 13):
            for m in range(2, 11):
                for k in range(1, m // 2 + 1):
                    value = abs(complete_graph_chc(n, k, m))
                    assert value <= chc_bound(n, k, m), (n, k, m)
                    assert value <= chc_bound_half(n, k, m), (n, k, m)

    def test_exact_at_half_order_even_m(self):
        # at k = m/2 every composition is all twos, so A = (N-1)^(m/2) = bound
        for n in (4, 8, 12):
            for m in (2, 4, 6, 8, 10):
                k = m // 2
                assert complete_graph_chc(n, k, m) == chc_bound(n, k, m)

    def test_zero_power_convention_at_m_equals_2k(self):
        assert chc_bound(5, 3, 6) == Fraction(4) ** 6 / Fraction(4) ** 3

    def test_region_validated(self):
        with pytest.raises(ValueError):
            chc_bound(5, 3, 5)
        with pytest.raises(ValueError):
            chc_bound(2, 1, 4)


@lru_cache(maxsize=None)
def _closed_form(n: int, k: int, K: int):
    """The oracle closed-form table of ring_with_core(n, k) up to K."""
    return closed_form_table(almost_regular(ring_with_core(n, k)), K)


class TestAlmostRegularSeries:
    def test_zeta_zero_is_degree(self):
        arg = almost_regular(ring_with_core(9, 1))
        series = almost_regular_series(arg, 0, 6)
        assert all(series.at(K) == 8 for K in series.orders)

    def test_partial_sums_match_general_taylor(self):
        g = ring_with_core(11, 2)
        closed = taylor_partial_sums(closed_form_table(almost_regular(g), 12), Fraction(-1, 2))
        general = almost_regular_series(almost_regular(g), Fraction(-1, 2), 12)
        assert all(closed.at(K) == general.at(K) for K in range(2, 13))

    @pytest.mark.parametrize("n, k, K", [(21, 1, 80), (21, 9, 60)])
    def test_closed_form_table_equals_engine(self, n, k, K):
        assert _closed_form(n, k, K) == coefficients(ring_with_core(n, k), 1, K)

    def test_ring_21_1_converges_to_mu1(self):
        g = ring_with_core(21, 1)
        series = almost_regular_series(almost_regular(g), -1, 80)
        # complement of g leaves node 1 isolated, so mu_1 = n exactly
        assert abs(series.at(80) - 21) < Fraction(1, 10**12)
        assert abs(series.at(40) - 21) < abs(series.at(10) - 21)

    def test_ring_21_9_diverges(self):
        series = almost_regular_series(almost_regular(ring_with_core(21, 9)), -1, 60)
        assert abs(series.at(60)) > 10**60


class TestClosedFormEuler:
    """The Euler transform of the paper's closed-form series."""

    def test_t_zero_collapses_to_plain_series(self):
        table = _closed_form(10, 1, 12)
        eul = euler_series(table, EulerParams(t=0, zeta=Fraction(-1, 2), K_max=12))
        ser = taylor_partial_sums(table, Fraction(-1, 2))
        assert all(eul.at(K) == ser.at(K) for K in range(2, 13))

    def test_extends_convergence_beyond_plain_series(self):
        g = ring_with_core(21, 1)
        table = _closed_form(21, 1, 80)
        mu1 = symmetric_eigen(perturbed_matrix(g, -2), precision_bits=128).eigenvalues[0]
        plain = taylor_partial_sums(table, -2)
        euler = euler_series(table, EulerParams(t=-1, zeta=-2, K_max=80))
        with mpmath.workprec(128):
            assert abs(to_mpf(plain.at(80)) - mu1) > mpmath.mpf(10) ** -3
            assert abs(to_mpf(euler.at(80)) - mu1) < mpmath.mpf(10) ** -8

    def test_ring_21_9_diverges_for_all_t(self):
        table = _closed_form(21, 9, 60)
        for t in (-1, -2, -3):
            eul = euler_series(table, EulerParams(t=t, zeta=-2, K_max=60))
            assert abs(eul.at(60)) > 10**20, t

    def test_singular_transform_rejected(self):
        table = _closed_form(10, 1, 10)
        with pytest.raises(ValueError, match="singular"):
            euler_series(table, EulerParams(t=1, zeta=-1, K_max=10))


class TestContourEigenvalue:
    def test_zeta_zero_is_degree_exactly(self):
        result = contour_eigenvalue(almost_regular(ring_with_core(21, 1)), 0)
        assert result.value == 20
        # the exact degree 12 * 0.3 rounded once, not the float row sum
        result = contour_eigenvalue(almost_regular(_reweighted(ring_with_core(13, 1), 0.3)), 0)
        with mpmath.workprec(128):
            assert result.value == to_mpf(12 * Fraction(0.3))

    def test_agrees_with_series_limit(self):
        arg = almost_regular(ring_with_core(21, 1))
        series = almost_regular_series(arg, -1, 120)
        result = contour_eigenvalue(arg, Fraction(-1), precision_bits=128)
        with mpmath.workprec(128):
            assert abs(result.value - to_mpf(series.at(120))) < mpmath.mpf(10) ** -20

    def test_doubling_is_stable(self):
        arg = almost_regular(ring_with_core(21, 1))
        result = contour_eigenvalue(arg, Fraction(-1, 2), precision_bits=128)
        assert result.last_change < mpmath.mpf(10) ** -10
        assert result.branch_ok

    @pytest.mark.parametrize("bits, rel_tol", [(24, 1e-10), (43, 1e-10), (60, 1e-16)])
    def test_precision_too_coarse_for_tolerance_rejected(self, bits, rel_tol):
        # a coarse working precision stops changing long before rel_tol is met
        arg = almost_regular(ring_with_core(21, 1))
        with pytest.raises(ValueError, match="too coarse"):
            contour_eigenvalue(arg, Fraction(-1, 2), precision_bits=bits, rel_tol=rel_tol)

    def test_pole_inside_contour_rejected(self):
        arg = almost_regular(ring_with_core(21, 1))
        with pytest.raises(ContourError, match="pole"):
            contour_eigenvalue(arg, Fraction(-1), radius=1.0)

    def test_branch_condition_violation_raises(self):
        arg = almost_regular(ring_with_core(21, 9))  # x = 1 makes the ratio huge
        with pytest.raises(ContourError, match="branch condition"):
            contour_eigenvalue(arg, Fraction(-1))

    def test_non_convergence_raises(self):
        # a near-pole radius slows the trapezoid rule; a tight tolerance with a
        # small point cap must be reported, not silently accepted
        arg = almost_regular(ring_with_core(21, 1))
        with pytest.raises(ContourError, match="did not converge"):
            contour_eigenvalue(arg, Fraction(-1), radius=Fraction(17, 100),
                               quad_points=16, max_points=64, rel_tol=1e-14)

    def test_quad_points_must_be_power_of_two(self):
        arg = almost_regular(ring_with_core(21, 1))
        with pytest.raises(ValueError, match="power of two"):
            contour_eigenvalue(arg, Fraction(-1), quad_points=500)


def _reweighted(g, weight):
    return build_graph(g.n, [(u, v, weight) for u, v, _ in g.edges()])


def _star(leaves: int):
    return build_graph(leaves + 1, [(1, v) for v in range(2, leaves + 2)])


def _with_disjoint_k4(g):
    k4 = [(g.n + i, g.n + j) for i in range(1, 5) for j in range(i + 1, 5)]
    return build_graph(g.n + 4, list(g.edges()) + k4)


def _cube9():
    """The 3-cube on nodes 2..9 (node 2 + b for bit string b) without the edges
    2-3 and 8-9, plus node 1 joined to 2, 3, 8 and 9: degrees (4, 3, ..., 3)."""
    cube = [(2 + b, 2 + (b ^ (1 << i))) for b in range(8) for i in range(3) if b < b ^ (1 << i)]
    edges = [e for e in cube if e not in ((2, 3), (8, 9))]
    return build_graph(9, edges + [(1, v) for v in (2, 3, 8, 9)])


class TestWalkGeneratingFunction:
    @staticmethod
    def taylor(P, Q, M):
        """Coefficients of P/Q up to z^M by series division (Q(0) = 1)."""
        s = []
        for k in range(M + 1):
            pk = P[k] if k < len(P) else 0
            s.append(pk - sum(Q[i] * s[k - i] for i in range(1, min(k, len(Q) - 1) + 1)))
        return s

    @pytest.mark.parametrize("g, q", [
        (ring_with_core(21, 1), 1),
        (ring_with_core(13, 1), 5),
        (build_graph(3, [(1, 2), (2, 3)]), 1),
        (build_graph(3, [(1, 2), (2, 3)]), 2),
        (erdos_renyi(9, Fraction(1, 2), 4), 3),
        (_reweighted(ring_with_core(13, 1), 0.3), 1),
        (build_graph(4, [(1, 2, Fraction(3, 2)), (2, 3, 2), (3, 4, Fraction(1, 3)), (1, 4, 5)]), 2),
        (_with_disjoint_k4(ring_with_core(13, 1)), 1),
    ])
    def test_taylor_coefficients_are_the_walk_counts(self, g, q):
        P, Q = _walk_generating_function(g, q)
        assert Q[0] == 1 and Q[-1] != 0 and len(P) <= len(Q)
        assert self.taylor(P, Q, 3 * g.n) == list(closed_walk_counts(g, q, 3 * g.n).counts)

    @pytest.mark.parametrize("n, k", [(8, 1), (13, 1), (21, 1), (21, 2), (31, 3), (41, 4)])
    def test_ring_with_core_has_degree_two(self, n, k):
        # e_1 and the ring's all-ones vector span node 1's Krylov space
        P, Q = _walk_generating_function(ring_with_core(n, k), 1)
        assert Q == [1, -2 * k, -(n - 1)] and P == [1, -2 * k]

    def test_node_that_sees_eigenvalue_zero(self):
        # the path end sees -sqrt 2, 0 and sqrt 2: f = (1 - z^2) / (1 - 2 z^2),
        # and the constant term of the 0 eigenvalue makes deg P = deg Q; the
        # middle node misses 0
        path = build_graph(3, [(1, 2), (2, 3)])
        assert _walk_generating_function(path, 1) == ([1, 0, -1], [1, 0, -2])
        assert _walk_generating_function(path, 2) == ([1], [1, 0, -2])


CROSS_CHECK_RINGS = [(21, 1), (21, 2), (31, 3), (13, 1)]
CROSS_CHECK_GRAPHS = {
    **{f"ring_{n}_{k}": ring_with_core(n, k) for n, k in CROSS_CHECK_RINGS},
    "star_8": _star(8),
    "ring_13_1_weight_3/2": _reweighted(ring_with_core(13, 1), Fraction(3, 2)),
    "ring_13_1_weight_0.3": _reweighted(ring_with_core(13, 1), 0.3),
    "ring_13_1_plus_k4": _with_disjoint_k4(ring_with_core(13, 1)),  # disconnected
    "cube9": _cube9(),  # deg Q = 3
}
CROSS_CHECK_CASES = [
    *((f"ring_{n}_{k}", zeta) for n, k in CROSS_CHECK_RINGS
      for zeta in (Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 4))),
    *((name, Fraction(-1, 2)) for name in list(CROSS_CHECK_GRAPHS)[len(CROSS_CHECK_RINGS):-1]),
    ("cube9", Fraction(-1, 8)),  # at -1/2 the branch condition fails
]


class TestLargestEigenvalue:
    """lambda_1 from the walk generating function's Q against the eigensolver."""

    def test_cube9_has_degree_three(self):
        assert len(_walk_generating_function(CROSS_CHECK_GRAPHS["cube9"], 1)[1]) == 4

    @pytest.mark.parametrize("bits", [128, 256])
    @pytest.mark.parametrize("name", list(CROSS_CHECK_GRAPHS))
    def test_equals_certified_spectrum(self, name, bits):
        arg = almost_regular(CROSS_CHECK_GRAPHS[name])
        Q = _walk_generating_function(arg.graph, 1)[1]
        # R(lambda) = lambda^deg Q * Q(1/lambda) brackets lambda_1 in (r, r + x]
        R = [sum(c * lam ** (len(Q) - 1 - k) for k, c in enumerate(Q))
             for lam in (arg.r, arg.r + arg.x)]
        assert R[0] <= 0 < R[1]
        with mpmath.workprec(bits):
            lam1 = _largest_eigenvalue(Q, arg.r, arg.x)
        assert lam1 == symmetric_eigen(arg.graph.weights, bits).eigenvalues[0]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("r", [1, Fraction(1, 10**6)])
    def test_rounds_once_at_a_midpoint(self, r, offset):
        # a root at, just below or just above the midpoint of two 53-bit floats,
        # from Q(z) = 1 - lambda_1 z; at the midpoint itself ties go to even
        a = float(Fraction(3, 2) * r)
        lam1 = Fraction(a) + Fraction(math.ulp(a)) / 2 + offset * Fraction(1, 2**200)
        with mpmath.workprec(53):
            assert _largest_eigenvalue([1, -lam1], r, r) == to_mpf(lam1)


class TestContourAgainstSpectralSum:
    """P/Q over half the circle against the eigenvector spectral sum over all of it."""

    @pytest.mark.parametrize("name, zeta", CROSS_CHECK_CASES)
    def test_same_points_radius_and_value(self, name, zeta):
        arg = almost_regular(CROSS_CHECK_GRAPHS[name])
        new = contour_eigenvalue(arg, zeta)
        ref = reference_contour_eigenvalue(arg, zeta)
        assert new.points == ref.points
        assert new.radius == ref.radius
        with mpmath.workprec(128):
            assert abs(new.value - ref.value) <= mpmath.mpf(2) ** -120 * abs(ref.value)

    @pytest.mark.parametrize("n, k, kwargs", [
        (21, 9, {}),  # branch condition
        (21, 1, {"radius": 1.0}),  # pole enclosed
        (21, 1, {"radius": Fraction(17, 100), "quad_points": 16, "max_points": 64,
                 "rel_tol": 1e-14}),  # no convergence
    ])
    def test_same_errors(self, n, k, kwargs):
        arg = almost_regular(ring_with_core(n, k))
        messages = []
        for contour in (contour_eigenvalue, reference_contour_eigenvalue):
            with pytest.raises(ContourError) as info:
                contour(arg, Fraction(-1), **kwargs)
            messages.append(re.split(r" = | at | \(", str(info.value))[0])
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("kwargs", [
        {"quad_points": 64, "max_points": 16},
        {"quad_points": 16, "max_points": 16},
        {"quad_points": 500},
        {"precision_bits": 24},
        {"radius": 0},
        {"radius": Fraction(-1, 10)},
    ])
    def test_same_argument_errors(self, kwargs):
        arg = almost_regular(ring_with_core(21, 1))
        messages = []
        for contour in (contour_eigenvalue, reference_contour_eigenvalue):
            with pytest.raises(ValueError) as info:
                contour(arg, Fraction(-1), **kwargs)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
