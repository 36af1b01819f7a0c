from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import from_man_exp
from hypothesis import assume, given, settings, strategies as st

from lap_perturb.digits import matches_printed
from lap_perturb.domain import NumberDomain, _exact_value, exact_domain, float_domain, to_mpf
from lap_perturb.eigen import accuracy_alpha, symmetric_eigen
from lap_perturb.euler import (
    EulerParams,
    binomial,
    convergence_classify,
    euler_k4_estimate,
    euler_series,
    taylor_partial_sums,
)
from lap_perturb.examples_data import E2_Q13_XI, E2_Q3_XI, E2_Q7_XI
from lap_perturb.graph import Graph, build_graph, laplacian
from lap_perturb.perturb import SeriesEvaluation, coefficients

from helpers import (
    T_GRID,
    ZETAS,
    assert_rounded_once,
    assert_table_rounded_once,
    float_weighted,
    random_unique_degree_graphs,
    table_values,
)
from oracles import (
    bisect_classify,
    euler_series_t_minus_one,
    euler_transform_generic,
    exact_table,
    pascal_row,
    pascal_transform,
    reference_euler_series,
    reference_transform,
)


class TestEulerParams:
    def test_t_one_singular_at_zeta_minus_one(self):
        with pytest.raises(ValueError, match="singular"):
            EulerParams(t=Fraction(1), zeta=Fraction(-1), K_max=10)

    def test_one_plus_t_zeta_zero_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            EulerParams(t=Fraction(2), zeta=Fraction(-1, 2), K_max=10)

    def test_valid_params_accepted(self):
        EulerParams(t=Fraction(-3), zeta=Fraction(-1), K_max=5)


class TestBinomials:
    def test_pascal_rows_exact(self):
        assert pascal_row(5) == [1, 5, 10, 10, 5, 1]
        assert binomial(40, 20) == 137846528820

    @pytest.mark.parametrize("t", [Fraction(-3), Fraction(-1), Fraction(0), Fraction(2)])
    def test_unit_coefficient_row_sums(self, t):
        # sum_k C(m-1, k-1) t^(m-k) with all c_k = 1 telescopes to (1 + t)^(m-1)
        for m in range(1, 41):
            total = sum(binomial(m - 1, k - 1) * t ** (m - k) for k in range(1, m + 1))
            assert total == (1 + t) ** (m - 1)


class TestEulerSeries:
    def test_special_case_bit_equal_to_general_transform(self, e1, e2):
        for g, q, K in ((e1, 1, 12), (e1, 5, 12), (e2, 13, 30)):
            table = coefficients(g, q, K)
            general = euler_series(table, EulerParams(t=Fraction(-1), zeta=Fraction(-1), K_max=K))
            special = euler_series_t_minus_one(table, K)
            assert all(general.at(k) == special.at(k) for k in range(2, K + 1))

    @pytest.mark.parametrize("domain", [exact_domain(), float_domain(53), float_domain(128),
                                        float_domain(256)], ids=["exact", "53", "128", "256"])
    def test_bit_equal_to_reference_loop(self, domain):
        # exact: the generic transform's extra k = 1 term and early exit at
        # t = 0 may only add or skip exact zeros.  Float-typed weights: every
        # table value and partial sum is that of the exact graph, rounded once
        for g, q in random_unique_degree_graphs(8):
            if not domain.is_exact:
                typed = float_weighted(g)
                assert_table_rounded_once(typed, coefficients(typed, q, 30, domain),
                                          domain.precision_bits)
                continue
            table = coefficients(g, q, 30, domain)
            for zeta in ZETAS:
                for t in T_GRID:
                    params = EulerParams(t=t, zeta=zeta, K_max=30)
                    got = [euler_series(table, params).partial_sums]
                    if t == 0:
                        got.append(taylor_partial_sums(table, zeta).partial_sums)
                    reference = reference_euler_series(table, params).partial_sums
                    assert all(sums == reference for sums in got), (q, zeta, t)

    def test_float_zeta_and_t_round_the_exact_series_once(self):
        # a float-typed zeta or t is summed at its exact value, so a table from
        # rational weights gives the exact-domain series rounded once
        g, q = random_unique_degree_graphs(1)[0]
        table = coefficients(g, q, 30, float_domain(128))
        exact_table = coefficients(g, q, 30, exact_domain())
        for t, zeta in ((-0.5, Fraction(-1, 3)), (Fraction(-1, 2), -1.0)):
            series = euler_series(table, EulerParams(t=t, zeta=zeta, K_max=30))
            exact = euler_series(exact_table,
                                 EulerParams(t=Fraction(t), zeta=Fraction(zeta), K_max=30))
            assert_rounded_once(series.partial_sums.values(), exact.partial_sums.values(), 128)

    def test_nan_coefficient_raises(self):
        # an infinite float weight has no exact degree, so no table is made of it;
        # build_graph rejects that weight, so the graph is made directly
        weights = (0, math.inf, 0), (math.inf, 0, 1.0), (0, 1.0, 0)
        g = Graph(n=3, weights=weights, is_weighted=True)
        with pytest.raises(ValueError, match="^inf is not a finite number$"):
            coefficients(g, 3, 6, float_domain(53))
        # a table stores exact values, so none is made of a NaN coefficient
        c = (mpmath.mpf(1), mpmath.nan, mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0))
        with pytest.raises(ValueError, match="not a finite number"):
            exact_table(3, 6, mpmath.mpf(1), c, float_domain(53))

    def test_e2_q13_printed_digits(self, e2):
        series = euler_series(coefficients(e2, 13, 30),
                              EulerParams(t=Fraction(-1), zeta=Fraction(-1), K_max=30))
        for K, printed in E2_Q13_XI.items():
            assert matches_printed(series.at(K), printed), (K, printed)

    def test_e2_q7_printed_digits(self, e2):
        series = euler_series(coefficients(e2, 7, 30),
                              EulerParams(t=Fraction(-1), zeta=Fraction(-1), K_max=30))
        for K, printed in E2_Q7_XI.items():
            assert matches_printed(series.at(K), printed), (K, printed)

    def test_e2_q3_diverges_with_printed_digits(self, e2):
        series = euler_series(coefficients(e2, 3, 30),
                              EulerParams(t=Fraction(-1), zeta=Fraction(-1), K_max=30))
        for K, printed in E2_Q3_XI.items():
            assert matches_printed(series.at(K), printed), (K, printed)
        assert series.at(30) < -1800

    def test_k_max_validated(self, e1):
        with pytest.raises(ValueError, match="exceeds"):
            euler_series(coefficients(e1, 1, 4), EulerParams(t=-1, zeta=-1, K_max=10))


class TestRationalInputsRoundOnce:
    """Rational weights, zeta and t in a float domain: every table value and
    partial sum is the exact one rounded once, to nearest (0 ulp)."""

    @pytest.mark.parametrize("bits", [53, 128, 256])
    def test_random_graphs(self, bits):
        for g, q in random_unique_degree_graphs(8):
            assert_table_rounded_once(g, coefficients(g, q, 30, float_domain(bits)), bits)

    @pytest.mark.parametrize("bits", [53, 128, 256])
    def test_e2_q13_full_order(self, e2, bits):
        # summed in mpmath, xi_100 at t = zeta = -1 loses about 28 bits here at
        # 53, 128 and 256 bits alike
        assert_table_rounded_once(e2, coefficients(e2, 13, 100, float_domain(bits)), bits)

    @pytest.mark.parametrize("bits", [53, 128, 256])
    def test_float_typed_e2_q13_full_order(self, e2, bits):
        # the mpmath loop that float-typed weights ran put xi_100 (t = zeta = -1)
        # 3.3e8, 6.0e8 and 4.7e8 ulps from the exact value at 53, 128 and 256 bits
        g = float_weighted(e2)
        assert_table_rounded_once(g, coefficients(g, 13, 100, float_domain(bits)), bits)


class TestPartialSumsOnRead:
    """A series makes each partial sum on its first read, with the eager transform's value."""

    TS = (Fraction(0), Fraction(-1), Fraction(-5, 2))

    @pytest.mark.parametrize("typed, domain", [
        ("rational", exact_domain()), ("rational", float_domain(53)),
        ("rational", float_domain(128)), ("float", float_domain(53)), ("float", float_domain(128)),
    ], ids=["rational-exact", "rational-53", "rational-128", "float-53", "float-128"])
    def test_every_order_equals_the_eager_transform(self, typed, domain):
        for g, q in random_unique_degree_graphs(4):
            source = g if typed == "rational" else float_weighted(g)
            table = coefficients(source, q, 30, domain)
            exact = coefficients(g, q, 30, exact_domain())
            d_q, c = exact.d_q, exact.c
            if not domain.is_exact:
                assert_rounded_once(table_values(source, table), table_values(g, exact),
                                    domain.precision_bits)
            for t in self.TS:
                eager = euler_transform_generic(d_q, (0, *c), t, Fraction(-1), 30)
                series = euler_series(table, EulerParams(t=t, zeta=Fraction(-1), K_max=30))
                with domain.context():
                    expected = {m: eager[m] if domain.is_exact else to_mpf(eager[m])
                                for m in range(2, 31)}
                with mpmath.workprec(24):  # a read rounds at the table's precision
                    got = {m: series.at(m) for m in reversed(range(2, 31))}
                assert got == expected, (q, t)
                if not domain.is_exact:
                    assert all(isinstance(v, mpmath.mpf) for v in got.values())

    @pytest.mark.parametrize("domain", [exact_domain(), float_domain(128)], ids=["exact", "128"])
    def test_classify_makes_only_the_order_it_reads(self, e2, monkeypatch, domain):
        rounded = []
        ratio = NumberDomain.ratio
        def counted(self, numerator, denominator):
            if not self.is_exact:
                rounded.append((numerator, denominator))
            return ratio(self, numerator, denominator)
        mus = [float(v) for v in symmetric_eigen(laplacian(e2)).eigenvalues]
        series = euler_series(coefficients(e2, 13, 30, domain),
                              EulerParams(t=Fraction(-1), zeta=Fraction(-1), K_max=30))
        # every value enters a domain through ``ratio``; count after the table, zeta and t
        monkeypatch.setattr(NumberDomain, "ratio", counted)
        report = convergence_classify(series, mus, K_check=30)
        assert report.matched_index == 2 and report.converged
        assert list(series.partial_sums._cache) == [30]
        assert len(rounded) == (0 if domain.is_exact else 1)
        series.at(30)  # a second read is cached
        assert len(rounded) == (0 if domain.is_exact else 1)

    def test_mapping_behaves_as_the_dict(self, e1):
        series = euler_series(coefficients(e1, 1, 8), EulerParams(t=Fraction(-1), K_max=6))
        sums = series.partial_sums
        assert 2 in sums and 6 in sums and 1 not in sums and 7 not in sums
        assert not sums._cache  # membership makes no sum
        assert len(sums) == 5 and list(sums) == [2, 3, 4, 5, 6]
        assert series.orders == (2, 3, 4, 5, 6)
        as_dict = SeriesEvaluation(q=series.q, zeta=series.zeta, kind=series.kind,
                                   partial_sums=dict(sums), t=series.t)
        assert series == as_dict and as_dict == series
        assert repr(series) == repr(as_dict)

    @pytest.mark.parametrize("K", [-1, 0, 1, 7, 30])
    def test_order_outside_the_series_raises_key_error(self, e1, K):
        series = euler_series(coefficients(e1, 1, 8), EulerParams(t=Fraction(-1), K_max=6))
        with pytest.raises(KeyError):
            series.partial_sums[K]
        with pytest.raises(KeyError):
            series.at(K)
        with pytest.raises(ValueError, match=f"^series has no partial sum at K = {K}$"):
            convergence_classify(series, [4.0, 1.0], K_check=K)


_MEAN_TS = (Fraction(0), Fraction(-1), Fraction(-1, 2), Fraction(2), Fraction(-7, 3))
_MEAN_ZETAS = (Fraction(-1), Fraction(-1, 3), Fraction(1, 2), Fraction(-2))
_TYPED_VALUES = {
    "int": st.integers(-10**6, 10**6),
    "Fraction": st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**20)),
    "float": st.floats(-1e6, 1e6, allow_nan=False),
    "mpf": st.builds(lambda n, e: mpmath.mp.make_mpf(from_man_exp(n, e)),  # n 2^e exactly
                     st.integers(-2**100, 2**100), st.integers(-140, 0)),
}


@st.composite
def _typed_tables(draw):
    """(table, values): d_q and c_2..c_K (K <= 100) of one type, in a domain that type allows.

    The table stores their exact values; its own d_q and c are rounded to the domain.
    """
    kind = draw(st.sampled_from(sorted(_TYPED_VALUES)))
    K = draw(st.integers(2, 100))
    values = draw(st.lists(st.one_of(st.just(0), _TYPED_VALUES[kind]), min_size=K, max_size=K))
    if kind in ("float", "mpf"):
        values = [float(v) if kind == "float" else mpmath.mpf(v) for v in values]  # and the 0s
    bits = draw(st.sampled_from((0, 53, 128) if kind in ("int", "Fraction") else (53, 128)))
    domain = float_domain(bits) if bits else exact_domain()
    return exact_table(1, K, values[0], values[1:], domain), values


class TestEulerMeans:
    """Every order a series reads equals the Pascal-row transform it replaced."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(typed=_typed_tables(), t=st.sampled_from(_MEAN_TS), zeta=st.sampled_from(_MEAN_ZETAS),
           data=st.data())
    def test_every_order_in_any_order_equals_the_pascal_rows(self, typed, t, zeta, data):
        assume(1 + t * zeta != 0)
        table, (d_q, *c) = typed
        K, domain = table.K, table.domain
        pascal = pascal_transform(d_q, (0, *c), t, zeta, K)
        if K <= 20:
            exact = [_exact_value(f) for f in (d_q, 0, *c)]
            assert pascal == reference_transform(exact[0], exact[1:], t, zeta, K)
        with domain.context():
            expected = {m: pascal[m] if domain.is_exact else to_mpf(pascal[m])
                        for m in range(2, K + 1)}
        series = euler_series(table, EulerParams(t=t, zeta=zeta, K_max=K))
        orders = data.draw(st.permutations(range(2, K + 1)))
        for _ in range(2):  # the second pass reads the cache
            with mpmath.workprec(24):  # a read rounds at the table's precision
                got = {m: series.at(m) for m in orders}
            assert got == expected
            assert all(type(v) is (Fraction if domain.is_exact else mpmath.mpf)
                       for v in got.values())

    @pytest.mark.parametrize("q", [3, 7, 13])
    def test_e2_every_order_at_k100(self, e2, q):
        table = coefficients(e2, q, 100)
        for t in (Fraction(-1), Fraction(-3)):
            series = euler_series(table, EulerParams(t=t, zeta=Fraction(-1), K_max=100))
            pascal = pascal_transform(table.d_q, (0, *table.c), t, Fraction(-1), 100)
            assert [series.at(m) for m in range(2, 101)] == pascal[2:]

    @pytest.mark.parametrize("domain", [exact_domain(), float_domain(53), float_domain(128)],
                             ids=["exact", "53", "128"])
    def test_engine_integers_over_the_lcm(self, domain):
        # _exact = (d_q, F, L): F_k / L = c_k over the lcm of the reduced denominators
        graphs = [*random_unique_degree_graphs(6),
                  (build_graph(5, [(1, 2, Fraction(3, 7)), (1, 3, Fraction(5, 2)), (2, 4, 2),
                                   (3, 4, Fraction(1, 6))]), 1),
                  (build_graph(5, [(1, 2), (3, 4)]), 5)]  # node 5 is isolated: every c_j is 0
        for g, q in graphs:
            exact = coefficients(g, q, 30, exact_domain())
            d_q, F, L = coefficients(g, q, 30, domain)._exact
            assert d_q == exact.d_q and type(d_q) is Fraction
            assert len(F) == len(exact.c)
            assert [Fraction(x, L) for x in F] == list(exact.c)
            assert L == math.lcm(*(cj.denominator for cj in exact.c))


class TestEulerK4Estimate:
    def test_e1_values(self, e1):
        assert euler_k4_estimate(e1, 1) == Fraction(135, 32)
        assert euler_k4_estimate(e1, 5) == Fraction(17, 8)

    def test_equals_euler_series_at_k4(self):
        for g, q in random_unique_degree_graphs(40):
            table = coefficients(g, q, 4)
            series = euler_series(table, EulerParams(t=Fraction(-1), zeta=Fraction(-1), K_max=4))
            assert euler_k4_estimate(g, q) == series.at(4)

    def test_all_zero_coefficients_give_degree(self):
        from lap_perturb.graph import build_graph

        # two disjoint edges plus an isolated node: q = 5 has unique degree 0
        g = build_graph(5, [(1, 2), (3, 4)])
        assert euler_k4_estimate(g, 5) == 0


_BIG_FRACTIONS = st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**64))
_SMALL_FRACTIONS = st.one_of(st.just(Fraction(0)),
                             st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)))


@st.composite
def _coefficient_lists(draw):
    """f_1..f_n (n >= M) with mixed signs, zeros and denominators up to 2^64, and M."""
    M = draw(st.integers(1, 25))
    n = M + draw(st.integers(0, 3))
    if draw(st.booleans()):
        coeffs = [Fraction(0)] * n
    else:
        coeffs = draw(st.lists(st.one_of(st.just(Fraction(0)), _SMALL_FRACTIONS, _BIG_FRACTIONS),
                               min_size=n, max_size=n))
    return coeffs, M


class TestGenericTransform:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(f0=_BIG_FRACTIONS, fs=_coefficient_lists(), t=_SMALL_FRACTIONS, z=_SMALL_FRACTIONS)
    def test_exact_branch_equals_reference_loop(self, f0, fs, t, z):
        coeffs, M = fs
        assume(1 + t * z != 0)
        partials = euler_transform_generic(f0, coeffs, t, z, M)
        assert partials == reference_transform(f0, coeffs, t, z, M)
        assert all(type(x) is Fraction for x in partials)

    @pytest.mark.parametrize("coeffs, t, z, M", [
        ([Fraction(1, 3)] * 5, Fraction(2), Fraction(-1, 2), 5),
        ([Fraction(1, 3)] * 3, Fraction(0), Fraction(1, 2), 5),
        ([Fraction(1, 3)] * 3, Fraction(1), Fraction(-1), 5),
    ])
    def test_exact_branch_errors_match_reference(self, coeffs, t, z, M):
        with pytest.raises(ValueError) as expected:
            reference_transform(Fraction(1), coeffs, t, z, M)
        with pytest.raises(ValueError) as got:
            euler_transform_generic(Fraction(1), coeffs, t, z, M)
        assert str(got.value) == str(expected.value)

    def test_geometric_series_inside_radius(self):
        partials = euler_transform_generic(1, [1] * 60, Fraction(1), Fraction(1, 2), 60)
        assert abs(partials[60] - 2) < Fraction(1, 10**9)

    def test_t_zero_reduces_to_taylor(self):
        coeffs = [Fraction(k + 1, 3) for k in range(30)]
        partials = euler_transform_generic(Fraction(2), coeffs, Fraction(0), Fraction(1, 2), 30)
        acc = Fraction(2)
        for m in range(1, 31):
            acc += coeffs[m - 1] * Fraction(1, 2) ** m
            assert partials[m] == acc

    def test_geometric_beyond_radius_accelerated(self):
        # z = -3/2 lies outside the unit disc; t = -1/2 keeps the transform
        # ratio (1+t)z/(1+tz) at -3/7 and recovers 1/(1-z) = 2/5
        partials = euler_transform_generic(1, [1] * 60, Fraction(-1, 2), Fraction(-3, 2), 60)
        assert abs(partials[60] - Fraction(2, 5)) < Fraction(1, 10**10)

    def test_geometric_beyond_radius_positive_t_diverges(self):
        # with t = 1 the same point gives ratio 6 and the transform blows up
        partials = euler_transform_generic(1, [1] * 40, Fraction(1), Fraction(-3, 2), 40)
        assert abs(partials[40]) > 10**20

    def test_singular_weight_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            euler_transform_generic(1, [1] * 5, Fraction(2), Fraction(-1, 2), 5)

    def test_insufficient_coefficients_rejected(self):
        with pytest.raises(ValueError, match="coefficients"):
            euler_transform_generic(1, [1] * 3, Fraction(0), Fraction(1, 2), 5)


class TestConvergenceClassify:
    def test_e2_q13_matches_mu2(self, e2):
        mus = [float(v) for v in symmetric_eigen(laplacian(e2)).eigenvalues]
        series = euler_series(coefficients(e2, 13, 30),
                              EulerParams(t=Fraction(-1), zeta=Fraction(-1), K_max=30))
        report = convergence_classify(series, mus, alpha_threshold=-4.0, K_check=30)
        assert report.matched_index == 2
        assert abs(accuracy_alpha(series.at(20), report.matched_mu) - (-3.68)) < 0.01
        assert report.alpha == accuracy_alpha(series.at(30), report.matched_mu)
        assert report.converged

    def test_e2_q4_never_converges(self, e2):
        mus = [float(v) for v in symmetric_eigen(laplacian(e2)).eigenvalues]
        table = coefficients(e2, 4, 30)
        for t in (-6, -5, -4, -3, -2, -1, 2):  # t = 1 is singular at zeta = -1
            series = euler_series(table, EulerParams(t=Fraction(t), zeta=Fraction(-1), K_max=30))
            report = convergence_classify(series, mus, alpha_threshold=-4.0, K_check=30)
            assert not report.converged, t

    def test_monotone_accuracy_on_convergent_cases(self, e2):
        mus = [float(v) for v in symmetric_eigen(laplacian(e2)).eigenvalues]
        for q in (7, 13):
            series = euler_series(coefficients(e2, q, 30),
                                  EulerParams(t=Fraction(-1), zeta=Fraction(-1), K_max=30))
            report = convergence_classify(series, mus, K_check=30)
            alpha_10, alpha_20 = (accuracy_alpha(series.at(K), report.matched_mu) for K in (10, 20))
            assert alpha_10 > alpha_20 > report.alpha

    def test_exact_hit_floors_alpha(self):
        series = SeriesEvaluation(q=1, zeta=Fraction(-1), kind="euler",
                                  partial_sums={K: Fraction(5) for K in range(2, 31)},
                                  t=Fraction(-1))
        report = convergence_classify(series, [Fraction(5), Fraction(1), Fraction(0)])
        assert report.alpha == -300.0
        assert report.matched_mu == 5 and report.converged

    def test_tie_matches_larger_eigenvalue(self):
        series = SeriesEvaluation(q=1, zeta=Fraction(-1), kind="euler",
                                  partial_sums={K: Fraction(3) for K in range(2, 31)},
                                  t=Fraction(-1))
        report = convergence_classify(series, [Fraction(4), Fraction(2), Fraction(0)])
        assert report.matched_mu == 4 and report.matched_index == 1

    def test_divergent_xi_matches_nearest_eigenvalue(self):
        # every float alpha of a divergent xi rounds to the same value; the exact distance decides
        series = SeriesEvaluation(q=1, zeta=Fraction(-1), kind="euler",
                                  partial_sums={30: Fraction(-10**16)}, t=Fraction(-1))
        report = convergence_classify(series, [10.0, 5.0, 1e-15])
        assert report.matched_mu == 1e-15 and report.matched_index == 3
        assert report.alpha == accuracy_alpha(Fraction(-10**16), 1e-15)
        assert not report.converged

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.lists(st.integers(-6, 6), min_size=1, max_size=10),
           kind=st.sampled_from(["float", "mpf", "Fraction"]),
           x=st.integers(-32, 32), xi_kind=st.sampled_from(["float", "mpf", "Fraction"]))
    def test_bisection_equals_the_linear_exact_scan(self, values, kind, x, xi_kind):
        # eigenvalues on the halves and xi on the quarters: repeated values,
        # exact ties between neighbours, and xi beyond either end
        make = {"float": lambda v, d: v / d, "mpf": lambda v, d: mpmath.mpf(v) / d,
                "Fraction": Fraction}
        mus = [make[kind](v, 2) for v in sorted(values, reverse=True)]
        xi = make[xi_kind](x, 4)
        series = SeriesEvaluation(q=1, zeta=Fraction(-1), kind="euler",
                                  partial_sums={30: xi}, t=Fraction(-1))
        report = convergence_classify(series, mus)
        exact = _exact_value(xi)
        best = min(range(len(mus)), key=lambda i: abs(exact - _exact_value(mus[i])))
        assert report.matched_index == best + 1
        assert report.matched_mu is mus[best]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.lists(st.integers(-8, 8), min_size=1, max_size=12),
           kind=st.sampled_from(["float", "mpf", "Fraction"]),
           x=st.one_of(st.integers(-40, 40), st.sampled_from([-10**20, 10**20])),
           xi_kind=st.sampled_from(["float", "mpf", "Fraction"]))
    def test_report_equals_the_fraction_bisection(self, values, kind, x, xi_kind):
        # eigenvalues on the thirds and xi on the sixths: repeated values, exact
        # ties, xi equal to an eigenvalue and xi beyond either end of the spectrum
        make = {"float": lambda v, d: v / d, "mpf": lambda v, d: mpmath.mpf(v) / d,
                "Fraction": Fraction}
        mus = [make[kind](v, 3) for v in sorted(values, reverse=True)]
        series = SeriesEvaluation(q=1, zeta=Fraction(-1), kind="euler",
                                  partial_sums={30: make[xi_kind](x, 6)}, t=Fraction(-1))
        report = convergence_classify(series, mus)
        assert report == bisect_classify(series, mus)
        assert report.matched_mu is bisect_classify(series, mus).matched_mu

    @pytest.mark.parametrize("mus, xi, index", [
        ([5.0, 4.0, 4.0, 4.0, 2.0, 2.0], Fraction(3), 2),  # a tie between repeated values
        ([Fraction(7, 3), Fraction(1, 3), Fraction(1, 3)], Fraction(4, 3), 1),  # an exact tie
        ([mpmath.mpf(3), mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(0)], mpmath.mpf(1), 2),
        ([2.0, 1.0, 1.0], Fraction(1), 2),  # xi equal to a repeated eigenvalue
        ([2.5, 1.5, 0.5], Fraction(10**30), 1),  # above the spectrum
        ([2.5, 1.5, 0.5], -1e300, 3),  # below it
        ([4.0, 4.0, 4.0], Fraction(4), 1),
        ([4.0, 4.0, 4.0], Fraction(5), 1),
        ([4.0, 4.0, 4.0], Fraction(3), 1),
        ([Fraction(1, 3), 0.25], mpmath.mpf(0.3), 1),  # a mixed spectrum, compared exactly
    ])
    def test_matches_the_fraction_bisection(self, mus, xi, index):
        series = SeriesEvaluation(q=1, zeta=Fraction(-1), kind="euler", partial_sums={30: xi},
                                  t=Fraction(-1))
        report = convergence_classify(series, mus)
        assert report.matched_index == index
        assert report == bisect_classify(series, mus)

    @pytest.mark.parametrize("mus, threshold, K_check", [
        ([], -4.0, 4),
        ([4.0, math.nan], -4.0, 4),
        ([mpmath.inf, 1.0], -4.0, 4),
        ([4.0, -math.inf], -4.0, 4),
        ([1.0, 2.0], -4.0, 4),
        ([Fraction(1), Fraction(1), Fraction(2)], -4.0, 4),
        ([4.0, 1.0], math.nan, 4),
        ([4.0, 1.0], math.inf, 4),
        ([4.0, 1.0], -math.inf, 4),
        ([4.0, 1.0], -4.0, 30),
        ([4.0, 1.0], -4.0, 1),
    ])
    def test_errors_equal_the_fraction_bisection(self, e1, mus, threshold, K_check):
        series = taylor_partial_sums(coefficients(e1, 1, 4), -1)
        with pytest.raises(ValueError) as expected:
            bisect_classify(series, mus, threshold, K_check)
        with pytest.raises(ValueError) as got:
            convergence_classify(series, mus, threshold, K_check)
        assert str(got.value) == str(expected.value)

    def test_repeated_eigenvalue_matches_its_first_index(self):
        series = SeriesEvaluation(q=1, zeta=Fraction(-1), kind="euler",
                                  partial_sums={30: Fraction(3)}, t=Fraction(-1))
        report = convergence_classify(series, [5.0, 4.0, 4.0, 4.0, 2.0, 2.0])
        assert report.matched_index == 2  # 4 and 2 tie; the first 4 wins
        report = convergence_classify(series, [5.0, 2.0, 2.0, 1.0])
        assert report.matched_index == 2

    def test_empty_oracle_rejected(self, e1):
        series = taylor_partial_sums(coefficients(e1, 1, 4), -1)
        with pytest.raises(ValueError, match="empty"):
            convergence_classify(series, [], K_check=4)

    @pytest.mark.parametrize("mus, threshold", [
        ([4.0, math.nan], -4.0),
        ([math.inf, 1.0], -4.0),
        ([4.0, 1.0], math.nan),
        ([4.0, 1.0], math.inf),
        ([4.0, 1.0], -math.inf),
    ], ids=["nan-mu", "inf-mu", "nan-threshold", "inf-threshold", "minus-inf-threshold"])
    def test_non_finite_input_rejected(self, e1, mus, threshold):
        series = taylor_partial_sums(coefficients(e1, 1, 4), -1)
        with pytest.raises(ValueError, match="finite"):
            convergence_classify(series, mus, threshold, K_check=4)

    def test_unsorted_oracle_rejected(self, e1):
        series = taylor_partial_sums(coefficients(e1, 1, 4), -1)
        with pytest.raises(ValueError, match="descending"):
            convergence_classify(series, [1.0, 2.0], K_check=4)

    def test_missing_k_check_rejected(self, e1):
        series = taylor_partial_sums(coefficients(e1, 1, 4), -1)
        with pytest.raises(ValueError, match="partial sum"):
            convergence_classify(series, [4.0, 1.0], K_check=30)
