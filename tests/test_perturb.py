from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

import lap_perturb.perturb as perturb
from lap_perturb.domain import NumberDomain, _exact_value, exact_domain, float_domain
from lap_perturb.eigen import symmetric_eigen
from lap_perturb.examples_data import example_graph
from lap_perturb.euler import EulerParams, euler_series, taylor_partial_sums
from lap_perturb.graph import (
    build_graph,
    degree_profile,
    erdos_renyi,
    laplacian,
    perturbed_matrix,
    ring_with_core,
)
from helpers import (
    assert_rounded_once,
    assert_table_rounded_once,
    float_weighted,
    random_tree,
    random_unique_degree_graphs,
    table_values,
)
from lap_perturb.sweep import ExperimentConfig, run_sweep
from oracles import explicit_c2_c3_c4, integer_recursion, reference_coefficients
from lap_perturb.perturb import (
    CoefficientTable,
    NonUniqueDegreeError,
    beta_rows,
    coefficient_bounds_ok,
    coefficient_table_to_json,
    coefficients,
    default_domain,
    reconstruct_eigenvector,
)


class TestCoefficients:
    def test_e1_q1_low_orders(self, e1):
        table = coefficients(e1, 1, 6)
        assert [table.c_at(j) for j in range(2, 7)] == [
            Fraction(2), Fraction(0), Fraction(-5, 2), Fraction(0), Fraction(13, 2)]

    def test_e1_q5_low_orders(self, e1):
        table = coefficients(e1, 5, 6)
        assert [table.c_at(j) for j in range(2, 7)] == [
            Fraction(0), Fraction(0), Fraction(2), Fraction(0), Fraction(-8)]

    def test_c1_is_zero_and_beta_q_column_vanishes(self, e2):
        table = coefficients(e2, 7, 8)
        assert table.c_at(1) == 0
        assert all(row[6] == 0 for row in beta_rows(e2, 7, 8))

    def test_non_unique_degree_rejected(self, e2):
        with pytest.raises(NonUniqueDegreeError):
            coefficients(e2, 1, 4)  # degree 4 is shared

    def test_low_order_rejected(self, e1):
        with pytest.raises(ValueError):
            coefficients(e1, 1, 1)

    def test_recursion_matches_explicit_formulas(self):
        for g, q in random_unique_degree_graphs(60):
            table = coefficients(g, q, 4)
            c2, c3, c4 = explicit_c2_c3_c4(g, q)
            assert (table.c_at(2), table.c_at(3), table.c_at(4)) == (c2, c3, c4)

    def test_tree_odd_coefficients_vanish(self):
        checked = 0
        for seed in range(40):
            g = random_tree(5 + seed % 6, seed)
            profile = degree_profile(g)
            if not profile.unique_nodes:
                continue
            for q in profile.unique_nodes:
                table = coefficients(g, q, 12)
                assert all(table.c_at(j) == 0 for j in range(3, 13, 2))
                checked += 1
        assert checked >= 20

    def test_weighted_path_agrees_with_unweighted_at_unit_weights(self, e1):
        weighted = build_graph(5, [(u, v, Fraction(1)) for u, v, _ in e1.edges()])
        assert coefficients(weighted, 1, 8).c == coefficients(e1, 1, 8).c

    def test_float_domain_tracks_exact(self, e2):
        exact = coefficients(e2, 13, 10, exact_domain())
        approx = coefficients(e2, 13, 10, float_domain(128))
        for j in range(2, 11):
            err = abs(float(exact.c_at(j)) - float(approx.c_at(j)))
            assert err < 1e-12 * max(1.0, abs(float(exact.c_at(j))))

    def test_weighted_graph_coefficients(self):
        # star with rational weights: c2 = sum w^2/(d1 - d_leaf), leaves non-adjacent
        g = build_graph(4, [(1, 2, Fraction(1, 2)), (1, 3, 2), (1, 4, 3)])
        d = g.degrees
        table = coefficients(g, 1, 4)
        expected_c2 = sum(
            g.weight(1, k) ** 2 / (d[0] - d[k - 1]) for k in (2, 3, 4)
        )
        assert table.c_at(2) == expected_c2
        assert table.c_at(3) == 0  # no triangles

    def test_bit_length_profile_reports_growth(self, e2):
        table = coefficients(e2, 13, 20)
        profile = table.bit_length_profile()
        assert profile[0][0] == 2 and profile[-1][0] == 20
        assert profile[-1][1] > profile[0][1]

    def test_json_export_uses_p_over_q(self, e1):
        import json

        data = json.loads(coefficient_table_to_json(coefficients(e1, 1, 4)))
        assert data == {"q": 1, "K": 4, "c": ["2/1", "0/1", "-5/2"]}


_weights = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))


@st.composite
def _weighted_graphs(draw):
    """Graphs on 1..9 nodes whose edges carry weights p/q with 1 <= p, q <= 9."""
    n = draw(st.integers(1, 9))
    edges = [(u, v, draw(_weights))
             for u in range(1, n + 1) for v in range(u + 1, n + 1) if draw(st.booleans())]
    return build_graph(n, edges)


@st.composite
def _graphs_with_isolated_node(draw):
    """A weighted path on 2..8 nodes plus optional chords, and an isolated last node."""
    n = draw(st.integers(2, 8))
    edges = [(u, u + 1, draw(_weights)) for u in range(1, n)]
    edges += [(u, v, draw(_weights))
              for u in range(1, n + 1) for v in range(u + 2, n + 1) if draw(st.booleans())]
    return build_graph(n + 1, edges)


def _fractional_float_weighted():
    """(graph, q) pairs from two ER(20, 3/10) graphs with full-significand float weights."""
    rng = random.Random(2024)
    for seed in range(2):
        base = erdos_renyi(20, Fraction(3, 10), 700 + seed)
        g = build_graph(20, [(u, v, rng.uniform(0.1, 2)) for u, v, _ in base.edges()])
        for q in sorted(degree_profile(g).unique_nodes)[:2]:
            yield g, q


def _assert_same_table(g, table, reference):
    """``table`` and the beta rows of its node equal the (table, rows) of ``reference_coefficients``."""
    reference, reference_beta = reference
    beta = beta_rows(g, table.q, table.K, table.domain)
    assert table.d_q == reference.d_q
    assert table.c == reference.c
    assert beta == reference_beta
    if table.domain.is_exact:
        values = (table.d_q, *table.c, *(b for row in beta for b in row))
        assert all(type(v) is Fraction for v in values)


class TestIntegerEngine:
    """The fraction-free exact branch against the plain Fraction recursion."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(g=_weighted_graphs(), K=st.integers(2, 12), data=st.data())
    def test_matches_fraction_recursion(self, g, K, data):
        unique = sorted(degree_profile(g).unique_nodes)
        assume(unique)
        q = data.draw(st.sampled_from(unique))
        _assert_same_table(g, coefficients(g, q, K), reference_coefficients(g, q, K))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(g=_graphs_with_isolated_node(), K=st.integers(2, 12))
    def test_isolated_unique_node_has_zero_coefficients(self, g, K):
        table = coefficients(g, g.n, K)
        assert all(cj == 0 for cj in table.c)
        _assert_same_table(g, table, reference_coefficients(g, g.n, K))

    def test_e2_q13_full_order(self, e2):
        table = coefficients(e2, 13, 100)
        reference = reference_coefficients(e2, 13, 100)
        _assert_same_table(e2, table, reference)
        assert table.bit_length_profile() == reference[0].bit_length_profile()

    @pytest.mark.parametrize("bits", [53, 128, 256])
    def test_float_typed_weights_round_once(self, bits):
        # float-typed weights run the same integer engine at their exact values
        checked = 0
        for seed in range(3):
            g = float_weighted(erdos_renyi(20, Fraction(1, 2), 500 + seed))
            for q in sorted(degree_profile(g).unique_nodes)[:2]:
                assert_table_rounded_once(g, coefficients(g, q, 12, float_domain(bits)), bits)
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("bits", [53, 128, 256])
    def test_rational_weights_round_once(self, bits):
        # the same graphs with rational weights: 0 ulp from the exact table
        checked = 0
        for seed in range(3):
            g = erdos_renyi(20, Fraction(1, 2), 500 + seed)
            for q in sorted(degree_profile(g).unique_nodes)[:2]:
                assert_rounded_once(table_values(g, coefficients(g, q, 12, float_domain(bits))),
                                    table_values(g, coefficients(g, q, 12, exact_domain())), bits)
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("bits", [53, 128, 256])
    def test_fractional_float_weights_round_once(self, bits):
        # full-significand weights: W near 2^55, so A takes several digits
        checked = 0
        for g, q in _fractional_float_weighted():
            assert_table_rounded_once(g, coefficients(g, q, 30, float_domain(bits)), bits)
            checked += 1
        assert checked >= 2

    def test_near_tied_float_degrees_give_finite_coefficients(self):
        # nodes 1 and 4 have exact degrees 2^-55 (2.8e-17) apart; their float
        # row sums tie.  The gap is real, so the coefficients are huge
        g = build_graph(4, [(1, 2, 0.1), (1, 3, 0.2), (4, 2, 0.30000000000000004)])
        assert degree_profile(g).unique_nodes == {1, 2, 3, 4}
        assert g.degrees[0] - g.degrees[3] == Fraction(-1, 2**55)
        table = coefficients(g, 1, 12, float_domain(53))
        assert all(mpmath.isfinite(cj) for cj in table.c)
        assert_table_rounded_once(g, table, 53)
        assert mpmath.nstr(table.c_at(4), 3) == "-3.24e+15"
        assert mpmath.nstr(table.c_at(12), 3) == "-7.17e+81"

    def test_float_typed_isolated_node_yields_mpf_zeros(self):
        g = build_graph(4, [(1, 2, 0.5), (2, 3, 1.25)])  # node 4 has the unique degree 0
        table = coefficients(g, 4, 6, float_domain(128))
        assert table._exact == (0, (0,) * 5, 1)
        assert all(isinstance(cj, mpmath.mpf) and cj == 0 for cj in table.c)
        assert_table_rounded_once(g, table, 128)

    def test_float_branch_isolated_node_yields_mpf(self):
        g = build_graph(4, [(1, 2), (2, 3)])  # node 4 has the unique degree 0
        table = coefficients(g, 4, 6, float_domain(128))
        assert all(isinstance(cj, mpmath.mpf) and cj == 0 for cj in table.c)


def _scaled(g, q):
    """(a, d, m, W, D): the integer weights, row sums and multipliers of ``_expand``."""
    qi = q - 1
    W = math.lcm(*(Fraction(w).denominator for row in g.weights for w in row))
    a = [[int(w * W) for w in row] for row in g.weights]
    d = [sum(row) for row in a]
    D = math.lcm(*(d[qi] - d[r] for r in range(g.n) if r != qi))
    m = [0 if r == qi else D // (d[qi] - d[r]) for r in range(g.n)]
    return a, d, m, W, D


def _integer_reference(g, q, K):
    """(d_q, c, beta rows, largest bit length) from the Python-int ``integer_recursion``."""
    a, d, m, W, D = _scaled(g, q)
    C, B = integer_recursion(a, q - 1, {r: x for r, x in enumerate(m) if r != q - 1}, K)
    c = tuple(Fraction(Cj, W * D ** (j - 1)) for j, Cj in enumerate(C, start=2))
    rows = tuple(tuple(Fraction(x, D ** j) for x in row) for j, row in enumerate(B[:K], start=1))
    bits = max(abs(x).bit_length() for x in (*C, *(x for row in B[:K] for x in row)))
    return Fraction(d[q - 1], W), c, rows, bits


def _engine_bound(g, q, K):
    """log2 of the engine's bound on every scaled value of the table of node q."""
    a, d, m, _, _ = _scaled(g, q)
    return perturb._bound_bits(max(map(abs, m)), max(d), d[q - 1],
                               max(abs(x * row[q - 1]) for x, row in zip(m, a)), K)


# 2^70 / 3^5: scaled weights above 2^63, so the neighbour sums take several base-2^k digits of A
HUGE_SCALE = Fraction(2**70, 3**5)


def _count_digits(monkeypatch) -> list:
    """Record the number of digit matrices of every ``_residue_recursion`` call from now on."""
    counts = []
    digits = perturb._digits

    def counted(a, rho):
        k, A = digits(a, rho)
        counts.append(len(A))
        return k, A
    monkeypatch.setattr(perturb, "_digits", counted)
    return counts


class TestResidueEngine:
    """The int64 residue engine against the Python-int loop and the Fraction oracle."""

    @pytest.mark.parametrize("make, q, K", [
        (lambda: erdos_renyi(100, Fraction(1, 20), 7), 30, 100),
        (lambda: example_graph("e2"), 13, 100),
    ], ids=["er100", "e2"])
    def test_matches_integer_recursion(self, make, q, K):
        g = make()
        d_q, c, rows, bits = _integer_reference(g, q, K)
        table = coefficients(g, q, K)
        assert (table.d_q, table.c) == (d_q, c)
        assert beta_rows(g, q, K) == rows
        assert bits <= _engine_bound(g, q, K)

    @pytest.mark.parametrize("g", [
        ring_with_core(8, 1),
        build_graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (4, 5)]),
        build_graph(6, [(1, 2, Fraction(1, 2)), (1, 3, 2), (2, 3, 3), (3, 4, Fraction(5, 3)),
                        (4, 5, 1), (1, 6, 7)]),
    ], ids=["ring8", "small", "weighted"])
    def test_scaled_weights_scale_every_coefficient(self, monkeypatch, g):
        # c_j(sA) = s c_j(A) and d_q(sA) = s d_q(A); sA's integers exceed 2^63
        scaled = build_graph(g.n, [(u, v, HUGE_SCALE * w) for u, v, w in g.edges()])
        q = sorted(degree_profile(g).unique_nodes)[0]
        digits = _count_digits(monkeypatch)
        table, big = coefficients(g, q, 30), coefficients(scaled, q, 30)
        # the plain table's A is one digit, the scaled table's takes several
        assert digits[0] == 1 and digits[1] > 1 and len(digits) == 2
        assert big.d_q == HUGE_SCALE * table.d_q
        assert big.c == tuple(HUGE_SCALE * cj for cj in table.c)
        d_q, c, rows, bits = _integer_reference(scaled, q, 30)
        assert (big.d_q, big.c) == (d_q, c) and beta_rows(scaled, q, 30) == rows
        assert bits <= _engine_bound(scaled, q, 30)

    @pytest.mark.parametrize("g, count", [
        # a path whose heavy first edge gives nodes 1 and 2 the two largest degrees
        *((build_graph(5, [(1, 2, w), (1, 3, 2), (3, 4, 1), (4, 5, 3)]), count) for w, count in [
            (2**26, 1), (3 * 2**27 + 1, 2), (Fraction(2**100 + 1, 3), 4), (HUGE_SCALE, 3)]),
        # the largest degree just below and at 2^27, every weight below it
        (build_graph(4, [(1, 2, 2**27 - 3), (1, 3, 2), (3, 4, 1)]), 1),
        (build_graph(4, [(1, 2, 2**27 - 2), (1, 3, 2), (3, 4, 1)]), 2),
    ], ids=["2^26", "3*2^27+1", "(2^100+1)/3", "2^70/3^5", "degree-2^27-1", "degree-2^27"])
    def test_weights_of_several_digits_match_integer_recursion(self, monkeypatch, g, count):
        digits = _count_digits(monkeypatch)
        for q in sorted(degree_profile(g).unique_nodes):
            d_q, c, rows, bits = _integer_reference(g, q, 30)
            table = coefficients(g, q, 30)
            assert (table.d_q, table.c) == (d_q, c)
            assert beta_rows(g, q, 30) == rows
            assert bits <= _engine_bound(g, q, 30)
        assert set(digits) == {count}

    def test_beta_rows_from_several_primes_match_the_oracle(self, e2):
        g = build_graph(e2.n, [(u, v, Fraction(1 + (u * v) % 5, 1 + (u + v) % 3))
                               for u, v, _ in e2.edges()])
        q = sorted(degree_profile(g).unique_nodes)[0]
        assert len(perturb._crt(_engine_bound(g, q, 15))[0]) >= 5
        _, reference_beta = reference_coefficients(g, q, 15)
        assert beta_rows(g, q, 15) == reference_beta

    @pytest.mark.parametrize("scale", [1, HUGE_SCALE], ids=["float-sums", "per-prime-sums"])
    def test_sliced_sums_stay_exact(self, monkeypatch, e2, scale):
        # scale 1 gives A one digit, HUGE_SCALE several
        # with slices of 4 terms every int64 sum of the engine is reduced many times
        g = build_graph(e2.n, [(u, v, scale * w) for u, v, w in e2.edges()])
        reference = (coefficients(g, 13, 30), beta_rows(g, 13, 30))
        monkeypatch.setattr(perturb, "_SLICE", 4)
        assert (coefficients(g, 13, 30), beta_rows(g, 13, 30)) == reference

    def test_symmetric_residues_round_trip(self):
        crt = perturb._crt(200.0)
        M = math.prod(crt[0].tolist())
        assert M > 2**202
        values = [0, 1, -1, M // 2, -(M // 2), 3**120, -(2**190) + 12345]
        assert perturb._symmetric(perturb._residues(values, crt[0]), crt) == values

    def test_primes_descend_from_the_top_of_the_range(self):
        primes = perturb._primes(1 << 14)[0].tolist()
        assert primes == sorted(primes, reverse=True) and primes[0] < 2**26
        top = [x for x in range(2**26 - 1, 2**26 - 1000, -1)
               if all(x % f for f in range(2, 8192))]
        assert primes[:len(top)] == top


def _record_runs(monkeypatch) -> list:
    """Record the prime counts of the nodes of every ``_residue_recursion`` run from now on."""
    runs = []
    recursion = perturb._residue_recursion

    def counted(digits, run, K, rows):
        runs.append([len(crt[0]) for _, _, _, crt, _ in run])
        return recursion(digits, run, K, rows)
    monkeypatch.setattr(perturb, "_residue_recursion", counted)
    return runs


def _isolated_and_others():
    """Six nodes of unique degrees 5, 3, 2, 1/2, 3/2 and, isolated, 0."""
    return build_graph(6, [(1, 2), (1, 3), (1, 4, Fraction(1, 2)), (1, 5), (2, 3),
                           (2, 5, Fraction(1, 2))])


class TestStackedEngine:
    """One ``_expand`` over all unique nodes of a graph stacks their residues
    in runs; each node's d, C, B, W and D equal those of a run of that node
    alone and of the Python-int loop."""

    @staticmethod
    def _check(g, K, rows=True, oracle_nodes=None):
        nodes = tuple(sorted(degree_profile(g).unique_nodes))
        stacked = list(perturb._expand(g, nodes, K, None, least_K=0, rows=rows)[1])
        for q, run in zip(nodes, stacked):
            assert run == next(perturb._expand(g, (q,), K, None, least_K=0, rows=rows)[1])
            if oracle_nodes is not None and q not in oracle_nodes:
                continue
            a, d, m, W, D = _scaled(g, q)
            C, B = integer_recursion(a, q - 1, {r: x for r, x in enumerate(m) if r != q - 1}, K)
            assert run == (d[q - 1], C, B[:K] if rows else None, (W, D))
        return nodes, stacked

    @pytest.mark.parametrize("K", [2, 3, 30, 100])
    @pytest.mark.parametrize("name", ["e1", "e2", "e3"])
    def test_examples(self, name, K):
        nodes, _ = self._check(example_graph(name), K)
        assert len(nodes) > 1

    def test_er20_graphs(self, monkeypatch):
        runs = _record_runs(monkeypatch)
        for seed in range(20):
            g = erdos_renyi(20, Fraction(1, 2), 600 + seed)
            if degree_profile(g).unique_nodes:  # 19 of the 20 graphs, most with several
                before = len(runs)
                nodes, _ = self._check(g, 30)
                assert len(runs[before]) == len(nodes)  # all in the first run

    @pytest.mark.parametrize("K", [2, 3, 30])
    def test_nodes_of_several_digits_and_prime_counts(self, monkeypatch, K):
        g = build_graph(5, [(1, 2, HUGE_SCALE), (1, 3, 2), (3, 4, 1), (4, 5, 3)])
        digits, runs = _count_digits(monkeypatch), _record_runs(monkeypatch)
        nodes, _ = self._check(g, K)
        shared = runs[:len(runs) - len(nodes)]  # then _check runs each node alone
        assert digits[0] > 1 and len({P for run in shared for P in run}) > 1
        assert len(shared) == (1 if K < 30 else len(nodes))  # at K = 30 a node takes 56% of the cap

    @pytest.mark.parametrize("K", [2, 3, 30, 100])
    def test_isolated_node_among_others(self, monkeypatch, K):
        g = _isolated_and_others()
        assert _engine_bound(g, 6, K) == -math.inf
        runs = _record_runs(monkeypatch)
        nodes, stacked = self._check(g, K)
        assert nodes == (1, 2, 3, 4, 5, 6)
        shared = runs[:len(runs) - 6]  # then _check runs each node alone
        assert sum(map(len, shared)) == 6 and len(shared[-1]) > 1
        assert shared[-1][-1] == 1  # node 6 takes one prime
        assert stacked[-1][1] == [0] * (K - 1)

    @pytest.mark.parametrize("K, rows", [(3, True), (30, False)])
    def test_float_typed_weights(self, K, rows):
        rng = random.Random(5)
        g = build_graph(8, [(u, v, rng.uniform(0.1, 2))
                            for u, v, _ in erdos_renyi(8, Fraction(1, 2), 4).edges()])
        assert not g._rational_weights
        self._check(g, K, rows)

    def test_byte_cap_splits_distinct_weights_into_runs(self, monkeypatch):
        # weight (61 u + v) / 64 on edge (u, v): every node is unique and takes about 100 primes
        g = build_graph(60, [(u, v, Fraction(61 * u + v, 64))
                             for u, v, _ in erdos_renyi(60, Fraction(1, 2), 3).edges()])
        digits, runs = _count_digits(monkeypatch), _record_runs(monkeypatch)
        nodes, _ = self._check(g, 4, rows=False, oracle_nodes={1, 30, 60})
        assert len(nodes) == 60 and len(digits) == 1 + 60  # one for all the nodes, then one each
        shared = runs[:len(runs) - 60]  # then _check runs each node alone
        assert len(shared) > 1 and max(map(len, shared)) > 1 and sum(map(len, shared)) == 60
        for run in shared:  # each run is one node or stays within the cap
            assert len(run) == 1 or sum(run) * 4 * g.n * 8 <= perturb._RUN_BYTES

    def test_runs_are_made_as_they_are_reached(self, monkeypatch):
        # the constants of each run go once its values are taken: with the CRT constants
        # uncached, taking all 60 values holds a few runs' residues, where making every run
        # first held 8.4 MB
        g = build_graph(60, [(u, v, Fraction(61 * u + v, 64))
                             for u, v, _ in erdos_renyi(60, Fraction(1, 2), 3).edges()])
        nodes = tuple(range(1, 61))
        monkeypatch.setattr(perturb, "_crt_constants", perturb._crt_constants.__wrapped__)
        runs = _record_runs(monkeypatch)
        next(perturb._expand(g, (1,), 8, None, least_K=2, rows=False)[1])  # caches of the graph
        tracemalloc.start()
        try:
            values = perturb._expand(g, nodes, 8, None, least_K=2, rows=False)[1]
            next(values)
            assert len(runs) == 2  # the first run only
            assert sum(1 for _ in values) == 59
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(runs) > 10 and peak < 6 * perturb._RUN_BYTES


class TestStack:
    """After ``_stack``, the coefficients calls for its nodes read one stacked
    ``_expand``; their tables equal those of lone calls, in value and type."""

    @staticmethod
    def _tables(g, nodes, K, domain):
        return [(t, t._exact, _typed([t.d_q, *t.c])) for t in
                (coefficients(g, q, K, domain) for q in nodes)]

    @pytest.mark.parametrize("g, K, domain", [
        (example_graph("e3"), 30, float_domain(128)),
        (example_graph("e2"), 12, exact_domain()),
        (erdos_renyi(20, Fraction(1, 2), 600), 30, float_domain(53)),
        (_isolated_and_others(), 3, None),
        (build_graph(6, [(1, 2, 0.1), (1, 3, 0.75), (2, 4, 1.5), (3, 5, 2.0), (4, 6, 0.3)]),
         12, float_domain(128)),
    ])
    def test_stacked_tables_equal_lone_tables(self, monkeypatch, g, K, domain):
        nodes = tuple(sorted(degree_profile(g).unique_nodes))
        runs = _record_runs(monkeypatch)
        perturb._stack(g, nodes, K, domain)
        stacked = self._tables(g, nodes, K, domain)
        assert len(runs) == 1 and len(runs[0]) == len(nodes) > 1 and perturb._stacked.run == []
        assert stacked == self._tables(g, nodes, K, domain)
        assert len(runs) == 1 + len(nodes)

    def test_any_other_call_drops_the_stack(self, monkeypatch):
        g, domain = example_graph("e3"), float_domain(53)
        nodes = tuple(sorted(degree_profile(g).unique_nodes))
        lone = self._tables(g, nodes, 30, domain)
        runs = _record_runs(monkeypatch)
        for q, K, d in [(nodes[1], 30, domain), (nodes[0], 12, domain),
                        (nodes[0], 30, exact_domain()), (nodes[0], 30, None)]:
            perturb._stack(g, nodes, 30, domain)
            coefficients(g, q, K, d)
            assert perturb._stacked.run == []
        perturb._stack(g, nodes, 30, domain)
        coefficients(example_graph("e2"), 13, 30, domain)
        assert perturb._stacked.run == [] and list(map(len, runs)) == [1] * 5
        perturb._stack(g, nodes, 30, domain)
        assert self._tables(g, nodes[:1], 30, domain) == lone[:1]
        assert self._tables(g, nodes[2:], 30, domain) == lone[2:]  # on their own
        assert list(map(len, runs)) == [1] * 5 + [len(nodes)] + [1] * (len(nodes) - 2)

    def test_arguments_are_checked_by_the_stack(self):
        g = example_graph("e3")
        with pytest.raises(perturb.NonUniqueDegreeError):
            perturb._stack(g, (1, 2, 3), 30, None)
        with pytest.raises(ValueError, match="K must be at least 2"):
            perturb._stack(g, (1,), 1, None)


    def test_threads_stacking_one_graph_keep_their_own_runs(self, e2):
        # a tiny switch interval makes the threads interleave inside _stack and coefficients
        nodes, domain = (3, 4, 7, 13), exact_domain()
        expected = [coefficients(e2, q, 12, domain)._exact for q in nodes]
        got, errors = [], []

        def stack_and_read(barrier):
            barrier.wait()
            try:
                for _ in range(500):
                    perturb._stack(e2, nodes, 12, domain)
                    got.append([coefficients(e2, q, 12, domain)._exact for q in nodes])
            except Exception as error:  # collected for the assertion below
                errors.append(error)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            barrier = threading.Barrier(2)
            threads = [threading.Thread(target=stack_and_read, args=(barrier,)) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and len(got) == 1000 and all(tables == expected for tables in got)


class TestCrtCache:
    """``_crt_constants`` keeps at most its cap in bytes, and what it keeps
    changes no value."""

    @staticmethod
    def _retained() -> int:
        return sum(sum(map(sys.getsizeof, constants[1])) + sys.getsizeof(constants[3])
                   for constants, _ in perturb._crt_constants.entries.values())

    def test_distinct_weights_stay_under_the_cap(self, monkeypatch):
        # every node of an ER(60, 1/2) graph with distinct weights takes hundreds of primes
        g = build_graph(60, [(u, v, 61 * u + v) for u, v, _ in erdos_renyi(60, Fraction(1, 2), 3).edges()])
        nodes = tuple(range(1, 61))
        perturb._crt_constants.cache_clear()
        perturb._stack(g, nodes, 30, None)
        cached = [coefficients(g, q, 30)._exact for q in nodes]
        assert 0 < self._retained() <= perturb._CRT_CACHE_BYTES
        assert len(perturb._crt_constants.entries) < 60
        monkeypatch.setattr(perturb, "_crt_constants", perturb._crt_constants.__wrapped__)
        assert cached[::7] == [coefficients(g, q, 30)._exact for q in nodes[::7]]

    def test_a_k30_sweep_keeps_every_entry_it_uses(self):
        config = ExperimentConfig(q_selector="all_unique", trials=40, n_grid=(20, 60),
                                  p_grid=(Fraction(1, 5), Fraction(1, 2)), seed=3)
        perturb._crt_constants.cache_clear()
        run_sweep(config)
        first = {key: id(constants) for key, (constants, _) in perturb._crt_constants.entries.items()}
        run_sweep(config)
        again = {key: id(constants) for key, (constants, _) in perturb._crt_constants.entries.items()}
        assert len(first) > 10 and again == first


class TestRoundOnRead:
    """A table stores only its exact values; ``d_q`` and ``c`` enter its domain on first read."""

    DOMAINS = [exact_domain(), float_domain(53), float_domain(256)]
    IDS = ["exact", "53", "256"]

    def test_a_table_stores_only_its_exact_values(self):
        assert [f.name for f in dataclasses.fields(CoefficientTable)] == ["q", "K", "domain",
                                                                          "_exact"]

    @pytest.mark.parametrize("domain", DOMAINS, ids=IDS)
    def test_coefficients_rounds_nothing_and_each_read_once(self, monkeypatch, e2, domain):
        made = []
        ratio = NumberDomain.ratio

        def counted(self, numerator, denominator):
            made.append(self)
            return ratio(self, numerator, denominator)
        monkeypatch.setattr(NumberDomain, "ratio", counted)
        table = coefficients(e2, 13, 30, domain)
        assert made == []
        c = table.c
        assert made == [domain] * 29
        assert table.d_q == 10 and table.c is c and table.c_at(30) is c[-1]
        assert made == [domain] * 30  # each read is cached

    @pytest.mark.parametrize("domain", DOMAINS, ids=IDS)
    def test_two_threads_first_read_one_table(self, e2, domain):
        # a tiny switch interval makes the threads interleave inside the first reads
        lone = coefficients(e2, 13, 30, domain)
        expected = _typed([*lone.c, lone.d_q])
        got = []

        def read(table, barrier):
            barrier.wait()
            got.append(_typed([*table.c, table.d_q]))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                table, barrier = CoefficientTable(13, 30, domain, lone._exact), threading.Barrier(2)
                threads = [threading.Thread(target=read, args=(table, barrier)) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 80 and all(values == expected for values in got)

    @pytest.mark.parametrize("domain", DOMAINS, ids=IDS)
    def test_a_stacked_table_equals_and_hashes_like_its_lone_twin(self, e2, domain):
        nodes = (3, 4, 7, 13)
        perturb._stack(e2, nodes, 30, domain)
        stacked = [coefficients(e2, q, 30, domain) for q in nodes]
        assert perturb._stacked.run == []
        lone = [coefficients(e2, q, 30, domain) for q in nodes]
        assert all(table.c for table in lone)  # a read leaves equality and hash as they were
        assert stacked == lone and list(map(hash, stacked)) == list(map(hash, lone))
        assert len(set(stacked)) == len(nodes)


# SHA-256 of the value types and exact values of the tables (d_q, c and
# ``_exact``) and beta rows of ``_table_cases``, made one node per call
TABLES_SHA256 = "057895ac3869a00cf73eda84f3e97e0b7e69232a206a9272a59e59d25df16494"


def _table_cases():
    e3_file = build_graph(10, [(u, v, Fraction(2**28 + (u * v) % 7, 3))
                               for u, v, _ in example_graph("e3").edges()])
    floats = build_graph(6, [(1, 2, 0.1), (1, 3, 0.75), (2, 4, 1.5), (3, 5, 2.0), (4, 6, 0.3)])
    for g, K, domains in [
        (example_graph("e2"), 30, (exact_domain(), float_domain(53), float_domain(128))),
        (example_graph("e3"), 30, (float_domain(128),)),
        (e3_file, 30, (exact_domain(), float_domain(53))),
        (_isolated_and_others(), 12, (exact_domain(), float_domain(128))),
        (floats, 12, (float_domain(53), float_domain(128))),
    ]:
        for q in sorted(degree_profile(g).unique_nodes):
            for domain in domains:
                yield g, q, K, domain


def _typed(values) -> list:
    """Each value's type name and exact value (an mpf's repr shows only the ambient digits)."""
    return [(type(v).__name__, _exact_value(v)) for v in values]


class TestTablesUnchanged:
    def test_tables_and_rows_keep_their_values_and_types(self):
        digest = hashlib.sha256()
        for g, q, K, domain in _table_cases():
            table = coefficients(g, q, K, domain)
            rows = beta_rows(g, q, min(K, 6), domain)
            digest.update(repr((q, K, domain, _typed([table.d_q, *table.c]), table._exact,
                                [_typed(row) for row in rows])).encode())
        assert digest.hexdigest() == TABLES_SHA256


with mpmath.workprec(600):
    COERCED = (Fraction(-1, 3), 0.1, 2**200 + 1, mpmath.mpf(1) / 3)  # the mpf has 600 bits


def _entering(made: str, g, domain) -> list:
    """The values that ``made`` takes from exact ones into ``domain``, as one list."""
    if made == "beta_rows":
        return [b for row in beta_rows(g, 13, 20, domain) for b in row]
    if made == "coerce":
        return [domain.coerce(x) for x in COERCED]
    table = coefficients(g, 13, 20, domain)
    if made == "coefficients":
        return [table.d_q, *table.c]
    series = euler_series(table, EulerParams(t=Fraction(-7, 3), zeta=Fraction(-1, 3), K_max=20))
    return [series.zeta, series.t, *series.partial_sums.values()]


class TestLazyBeta:
    """Beta rows are made only on request, by ``beta_rows``."""

    @pytest.mark.parametrize("made", ["beta_rows", "coefficients", "coerce", "series"])
    @pytest.mark.parametrize("ambient", [24, 512])
    @pytest.mark.parametrize("bits", [53, 128, 256])
    def test_read_at_another_working_precision_is_rounded_at_the_tables(self, e2, bits, ambient,
                                                                         made):
        # a float domain rounds once at its own precision, whatever the working precision
        with mpmath.workprec(ambient):
            values = _entering(made, e2, float_domain(bits))
            assert mpmath.mp.prec == ambient
        exact = (list(map(_exact_value, COERCED)) if made == "coerce"
                 else _entering(made, e2, exact_domain()))
        assert_rounded_once(values, exact, bits)

    @pytest.mark.parametrize("name", ["coefficients", "beta_rows", "reconstruct_eigenvector"])
    def test_bad_arguments_raise_as_coefficients_does(self, e2, name):
        call = {
            "coefficients": coefficients,
            "beta_rows": beta_rows,
            "reconstruct_eigenvector": lambda g, q, K: reconstruct_eigenvector(g, q, -1, K),
        }[name]
        for q in (0, 21):
            with pytest.raises(ValueError, match=rf"^node {q} out of range 1\.\.20$"):
                call(e2, q, 4)
        with pytest.raises(NonUniqueDegreeError, match="^node 1 does not have a unique degree$"):
            call(e2, 1, 4)
        with pytest.raises(ValueError, match="^K must be at least "):
            call(e2, 13, -1)


class TestIntegerScaling:
    """Scaling the weights to integers leaves the graph and its other nodes as they were."""

    def test_graph_equality_and_hash_unchanged(self, e2):
        g = build_graph(e2.n, e2.edges())
        fresh = build_graph(e2.n, e2.edges())
        before = hash(g)
        coefficients(g, 13, 10)
        assert g == fresh and fresh == g
        assert hash(g) == before == hash(fresh)
        assert repr(g) == repr(fresh)

    def test_float_typed_weight_in_exact_domain_raises(self):
        g = build_graph(3, [(1, 2, 0.5), (2, 3, 1)])
        with pytest.raises(TypeError,
                           match=r"^exact_rational domain cannot represent 0\.5; use a float domain$"):
            coefficients(g, 1, 4, exact_domain())

    @pytest.mark.parametrize("edges", [[(1, 2), (2, 3, 1.0)], [(1, 2, 1.0), (2, 3)]],
                             ids=["int-first", "float-first"])
    def test_a_float_weight_equal_to_an_int_takes_the_float_route(self, edges):
        g = build_graph(3, edges)  # node 2 has the unique degree 2
        assert default_domain(g) == float_domain(128)
        table = coefficients(g, 2, 6)
        assert table.domain == float_domain(128)
        assert table._exact == coefficients(build_graph(3, [(1, 2), (2, 3)]), 2, 6)._exact
        assert all(isinstance(cj, mpmath.mpf) for cj in table.c)
        for bits in (53, 128, 256):
            assert_table_rounded_once(g, coefficients(g, 2, 6, float_domain(bits)), bits)

    def test_fraction_and_int_weights_stay_exact(self):
        g = build_graph(3, [(1, 2, Fraction(2)), (2, 3, 2)])
        assert default_domain(g) == exact_domain()
        table = coefficients(g, 2, 6)
        assert all(type(cj) is Fraction for cj in (table.d_q, *table.c))
        assert table.c == coefficients(build_graph(3, [(1, 2, 2), (2, 3, 2)]), 2, 6).c

    @pytest.mark.parametrize("domain", [exact_domain(), float_domain(128)], ids=["exact", "128"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "rational"])
    def test_two_nodes_of_one_graph_match_fresh_copies(self, domain, weighted):
        def make():
            g = erdos_renyi(20, Fraction(1, 2), 502)
            if weighted:
                g = build_graph(20, [(u, v, Fraction(1 + (u * v) % 5, 1 + (u + v) % 3))
                                     for u, v, _ in g.edges()])
            return g
        shared = make()
        nodes = sorted(degree_profile(shared).unique_nodes)[:2]
        assert len(nodes) == 2
        for q in nodes:
            fresh = coefficients(make(), q, 20, domain)
            table = coefficients(shared, q, 20, domain)
            assert table == fresh
            assert table._exact == fresh._exact


class TestExplicitFormulas:
    def test_star_center(self):
        for n in (4, 6, 9):
            g = build_graph(n, [(1, j) for j in range(2, n + 1)])
            c2, c3, c4 = explicit_c2_c3_c4(g, 1)
            assert c2 == Fraction(n - 1, n - 2)
            assert c3 == 0

    def test_non_unique_rejected(self):
        g = build_graph(4, [(1, 2), (3, 4)])
        with pytest.raises(NonUniqueDegreeError):
            explicit_c2_c3_c4(g, 1)


class TestCoefficientBounds:
    def test_e1_strict_bounds(self, e1):
        table = coefficients(e1, 1, 6)
        report = coefficient_bounds_ok(e1, 1, table)
        assert report.c2_ok and report.c3_ok and report.c4_ok
        assert abs(table.c_at(2)) == 2 < 3  # (A^2)_11 = 3

    def test_e2_q7_hypothesis_report(self, e2):
        table = coefficients(e2, 7, 10)
        report = coefficient_bounds_ok(e2, 7, table)
        assert [j for j, _ in report.hypothesis] == list(range(2, 11))
        assert all(isinstance(ok, bool) for _, ok in report.hypothesis)
        assert report.strict_bounds_ok

    def test_triangle_free_c3_is_zero(self):
        g = random_tree(8, 2)
        q = max(degree_profile(g).unique_nodes, key=lambda u: g.degrees[u - 1])
        table = coefficients(g, q, 4)
        assert table.c_at(3) == 0
        assert coefficient_bounds_ok(g, q, table).c3_ok

    def test_strict_bounds_on_random_graphs(self):
        for g, q in random_unique_degree_graphs(40):
            report = coefficient_bounds_ok(g, q, coefficients(g, q, 4))
            assert report.strict_bounds_ok

    def test_weighted_graph_rejected(self):
        g = build_graph(3, [(1, 2, 2), (2, 3, 1)])
        with pytest.raises(ValueError, match="unweighted"):
            coefficient_bounds_ok(g, 1, coefficients(g, 1, 2))


class TestTaylorPartialSums:
    def test_zeta_zero_gives_degree(self, e1):
        series = taylor_partial_sums(coefficients(e1, 1, 8), 0)
        assert all(series.at(K) == 3 for K in series.orders)

    def test_e1_q1_fourth_order(self, e1):
        series = taylor_partial_sums(coefficients(e1, 1, 4), -1)
        assert series.at(4) == Fraction(5, 2)
        assert series.at(2) == 3 + coefficients(e1, 1, 2).c_at(2)  # d_q + c2 zeta^2

    def test_e2_q3_initially_near_mu3_then_diverges(self, e2):
        mus = symmetric_eigen(laplacian(e2)).eigenvalues
        mu3 = float(mus[2])
        series = taylor_partial_sums(coefficients(e2, 3, 60), -1)
        closest = min(abs(float(series.at(K)) - mu3) for K in range(2, 11))
        assert closest < 0.5
        assert abs(float(series.at(60))) > 1e10

    def test_k_max_validated(self, e1):
        with pytest.raises(ValueError):
            taylor_partial_sums(coefficients(e1, 1, 4), -1, K_max=9)


class TestReconstructEigenvector:
    def test_k0_is_unit_vector(self, e1):
        v = reconstruct_eigenvector(e1, 1, -1, 0)
        assert v == (1, 0, 0, 0, 0)

    def test_k1_components(self, e1):
        zeta = Fraction(-1, 2)
        v = reconstruct_eigenvector(e1, 1, zeta, 1)
        d = e1.degrees
        for r in range(2, 6):
            expected = zeta * e1.weight(r, 1) / (d[0] - d[r - 1])
            assert v[r - 1] == expected
        assert v[0] == 1

    def test_q_component_is_exactly_one(self, e2):
        v = reconstruct_eigenvector(e2, 13, Fraction(-1, 3), 12)
        assert v[12] == 1

    def test_residual_small_where_series_converges(self):
        g = ring_with_core(21, 1)
        table = coefficients(g, 1, 40)
        xi = taylor_partial_sums(table, -1, 40).at(40)
        v = reconstruct_eigenvector(g, 1, -1, 40)
        lap = laplacian(g)
        res = [sum(lap[i][j] * v[j] for j in range(21)) - xi * v[i] for i in range(21)]
        rnorm = math.sqrt(sum(float(r) ** 2 for r in res))
        rnorm /= math.sqrt(sum(float(x) ** 2 for x in v))
        assert rnorm < 1e-9

    def test_residual_small_inside_radius_e2(self, e2):
        zeta = Fraction(-1, 4)
        table = coefficients(e2, 7, 40)
        xi = taylor_partial_sums(table, zeta, 40).at(40)
        v = reconstruct_eigenvector(e2, 7, zeta, 40)
        w = perturbed_matrix(e2, zeta)
        res = [sum(w[i][j] * v[j] for j in range(20)) - xi * v[i] for i in range(20)]
        rnorm = math.sqrt(sum(float(r) ** 2 for r in res))
        rnorm /= math.sqrt(sum(float(x) ** 2 for x in v))
        assert rnorm < 1e-12
