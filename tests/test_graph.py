from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from lap_perturb.domain import _exact_value, exact_domain
from lap_perturb.examples_data import example_graph
from lap_perturb.eigen import symmetric_eigen
from lap_perturb.graph import (
    Graph,
    antiregular,
    build_graph,
    closed_walk_counts,
    complete_graph,
    degree_profile,
    erdos_renyi,
    format_edge_list,
    graph_from_json,
    graph_to_json,
    _perturbed_rows,
    laplacian,
    parse_edge_list,
    perturbed_matrix,
    ring_with_core,
)
from lap_perturb.perturb import _stack, coefficients
from lap_perturb.sweep import _perturbed_spectrum, select_nodes
from oracles import reference_erdos_renyi

# the grid on which the vectorised draws must equal the scalar generator:
# both ends of [0, 1] and one ulp of 2^-64 inside them, a float p and a string
ER_SIZES = (0, 1, 2, 3, 20, 57, 200)
ER_PROBABILITIES = (0, 1, Fraction(1, 5), Fraction(1, 2), Fraction(4, 5), 0.2, "1/3",
                    Fraction(1, 2**64), 1 - Fraction(1, 2**64))
ER_SEEDS = (0, 7, -1, 2**64 - 5, 2**64 + 3, 2**70)


def assert_same_generated_graph(g, ref) -> None:
    """Equal value and hash, and equal cached degrees and integer weights, types included."""
    assert g == ref and hash(g) == hash(ref)
    assert {type(w) for row in g.weights for w in row} == {type(w) for row in ref.weights for w in row}
    assert g.is_weighted is ref.is_weighted
    assert g.degrees == ref.degrees
    assert list(map(type, g.degrees)) == list(map(type, ref.degrees))
    assert g._integer_weights == ref._integer_weights
    assert type(g._integer_weights[0]) is type(ref._integer_weights[0])
    assert g._rational_weights is ref._rational_weights


def brute_force_closed_walks(g, q: int, M: int) -> list:
    """Independent oracle: enumerate all closed walks of length m at node q."""
    counts = [1] + [0] * M
    n = g.n

    def walk(node: int, remaining: int):
        if remaining == 0:
            return 1 if node == q else 0
        total = 0
        for nxt in range(1, n + 1):
            if g.weight(node, nxt) != 0:
                total += walk(nxt, remaining - 1)
        return total

    for m in range(1, M + 1):
        counts[m] = walk(q, m)
    return counts


class TestBuildGraph:
    def test_e1_tree_degrees(self):
        g = build_graph(5, [(1, 3), (1, 4), (1, 5), (2, 5)])
        assert g.degrees == (3, 1, 1, 1, 2)
        assert not g.is_weighted

    def test_empty_graph(self):
        g = build_graph(2, [])
        assert g.degrees == (0, 0)

    def test_weighted_degrees(self):
        g = build_graph(3, [(1, 2, Fraction("2.5"))])
        assert g.is_weighted
        assert g.degrees == (Fraction(5, 2), Fraction(5, 2), 0)

    def test_exact_degrees_keep_their_types(self, e2):
        assert all(type(d) is int for d in e2.degrees)
        g = build_graph(3, [(1, 2, Fraction(1, 3)), (2, 3, Fraction(1, 6))])
        assert g.degrees == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))
        assert all(type(d) is Fraction for d in g.degrees)

    @pytest.mark.parametrize("rows", [
        ((0, Fraction(3, 7), Fraction(3, 7)), (Fraction(3, 7), 0, 0), (Fraction(3, 7), 0, 0)),
        ((0, 2, 5), (2, 0, 0), (5, 0, 0)),
        ((0, 0.1, 0.2), (0.1, 0, 0), (0.2, 0, 0)),
        ((0, Fraction(1, 3), 0.25, 2), (Fraction(1, 3), 0, 0, 1), (0.25, 0, 0, 0), (2, 1, 0, 0)),
        ((0, mpmath.mpf(0.5), 3), (mpmath.mpf(0.5), 0, 0), (3, 0, 0)),
        ((0, 1, 0), (1, 0, 0), (0, 0, 0)),  # node 3 is isolated
        ((0, Fraction(0), 2), (Fraction(0), 0, 0), (2, 0, 0)),  # an explicit Fraction(0)
        ((0, 0.0, 2), (0.0, 0, 0), (2, 0, 0)),  # an explicit 0.0
    ], ids=["Fraction", "int", "float", "mixed", "mpf", "isolated", "Fraction-zero", "float-zero"])
    def test_degrees_are_the_row_sums_with_their_types(self, rows):
        # sum(row) as it is, taken at the exact weights when it is not rational
        g = Graph(n=len(rows), weights=rows, is_weighted=True)
        expected = [s if isinstance(s := sum(row), (int, Fraction)) else sum(map(_exact_value, row))
                    for row in rows]
        assert list(g.degrees) == expected
        assert list(map(type, g.degrees)) == list(map(type, expected))

    def test_symmetry_and_zero_diagonal(self):
        g = build_graph(4, [(1, 2), (2, 3, 2), (1, 4)])
        for i in range(4):
            assert g.weights[i][i] == 0
            for j in range(4):
                assert g.weights[i][j] == g.weights[j][i]

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(1, 1)], "self-loop"),
            ([(1, 2), (2, 1)], "duplicate"),
            ([(0, 2)], "out of range"),
            ([(1, 6)], "out of range"),
            ([(1, 2, 0)], "non-positive"),
            ([(1, 2, -3)], "non-positive"),
            ([(1, 2, math.inf)], r"^edge \(1, 2\) has non-finite weight inf$"),
            ([(1, 2, mpmath.inf), (2, 3)], "non-finite"),
            ([(1, 2, math.nan)], "non-finite"),
        ],
    )
    def test_rejects_bad_edges(self, edges, message):
        with pytest.raises(ValueError, match=message):
            build_graph(5, edges)


class TestDegreeProfile:
    def test_e1_unique_nodes(self, e1):
        prof = degree_profile(e1)
        assert prof.unique_nodes == {1, 5}
        assert prof.kappa(1) == 1 and prof.kappa(5) == 1

    def test_e2_kappa_13(self, e2):
        prof = degree_profile(e2)
        assert 13 in prof.unique_nodes
        assert prof.degrees[12] == 10
        assert prof.kappa(13) == Fraction(1, 2)

    def test_integer_weights_are_read_once_at_their_exact_value(self):
        g = build_graph(3, [(1, 2, Fraction(1, 2)), (2, 3, Fraction(2, 3))])
        assert g._integer_weights == (6, ((0, 3, 0), (3, 0, 4), (0, 4, 0)))
        assert g._integer_weights is g._integer_weights
        unit = build_graph(3, [(1, 2), (2, 3)])
        assert unit._integer_weights == (1, unit.weights)
        assert g._rational_weights and unit._rational_weights
        # a float or mpf weight counts at its dyadic value, whatever its value
        for w, scaled in ((1.0, (1, 1)), (mpmath.mpf(2), (1, 2)), (0.1, (2**55, 3602879701896397))):
            typed = build_graph(3, [(1, 2), (2, 3, w)])
            assert typed._integer_weights == (scaled[0], ((0, scaled[0], 0),
                                                          (scaled[0], 0, scaled[1]),
                                                          (0, scaled[1], 0)))
            assert not typed._rational_weights
        mixed = build_graph(3, [(1, 2, Fraction(1, 3)), (2, 3, 0.5)])
        assert mixed._integer_weights == (6, ((0, 2, 0), (2, 0, 3), (0, 3, 0)))
        assert not mixed._rational_weights

    def test_regular_graph_has_no_unique_nodes(self):
        prof = degree_profile(complete_graph(5))
        assert prof.unique_nodes == frozenset()

    def test_degrees_equal_row_sums(self, e2):
        prof = degree_profile(e2)
        assert prof.degrees == tuple(sum(row) for row in e2.weights)


class TestClosedWalks:
    def test_matches_brute_force_enumeration(self, e1):
        for g, q in [(e1, 1), (e1, 5), (ring_with_core(7, 1), 1),
                     (erdos_renyi(7, Fraction(1, 2), 11), 3)]:
            counts = closed_walk_counts(g, q, 6).counts
            assert list(counts) == brute_force_closed_walks(g, q, 6)

    def test_complete_graph_closed_form(self):
        for n in (3, 5, 8):
            counts = closed_walk_counts(complete_graph(n), 2, 9).counts
            for m in range(10):
                expected = ((n - 1) ** m - (-1) ** m) // n + (-1) ** m
                assert counts[m] == expected

    def test_tree_odd_walks_vanish(self, e1):
        counts = closed_walk_counts(e1, 1, 7).counts
        assert counts[0] == 1 and counts[1] == 0
        assert counts[2] == e1.degrees[0]
        assert all(counts[m] == 0 for m in (1, 3, 5, 7))

    def test_m_zero(self, e1):
        assert closed_walk_counts(e1, 4, 0).counts == (1,)

    @pytest.mark.parametrize("weight", [Fraction(3, 2), 0.3])
    def test_uniform_weights_scale_the_unweighted_counts_exactly(self, weight):
        # every weight w: (A^m)_11 = w^m times the unweighted count, with w at
        # its exact (dyadic) value for a float; summing floats would round
        g = ring_with_core(13, 1)
        weighted = build_graph(13, [(u, v, weight) for u, v, _ in g.edges()])
        plain = closed_walk_counts(g, 1, 12).counts
        counts = closed_walk_counts(weighted, 1, 12).counts
        assert counts == tuple(c * Fraction(weight) ** m for m, c in enumerate(plain))


class TestGenerators:
    def test_ring_with_core_degrees(self):
        g = ring_with_core(8, 1)
        assert g.degrees[0] == 7
        assert all(d == 3 for d in g.degrees[1:])

    def test_ring_with_core_kappa(self):
        for k in (1, 2, 5):
            g = ring_with_core(31, k)
            prof = degree_profile(g)
            assert prof.unique_nodes == {1}
            assert prof.kappa(1) == Fraction(1, 31 - 2 * k - 2)

    def test_ring_with_core_rejects_non_unique_core(self):
        with pytest.raises(ValueError, match="unique core degree"):
            ring_with_core(8, 3)

    def test_antiregular_degree_vector(self):
        assert antiregular(10).degrees == (5, 5, 4, 6, 3, 7, 2, 8, 1, 9)

    def test_antiregular_matches_embedded_example(self, e3):
        assert antiregular(10).weights == e3.weights

    @pytest.mark.parametrize("n", [4, 5, 7, 10, 13])
    def test_antiregular_exactly_one_repeated_degree(self, n):
        d = sorted(antiregular(n).degrees)
        repeats = sum(1 for i in range(len(d) - 1) if d[i] == d[i + 1])
        assert repeats == 1

    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi(15, Fraction(3, 10), 42)
        b = erdos_renyi(15, Fraction(3, 10), 42)
        c = erdos_renyi(15, Fraction(3, 10), 43)
        assert a.weights == b.weights
        assert a.weights != c.weights

    @pytest.mark.parametrize("p", ER_PROBABILITIES, ids=repr)
    @pytest.mark.parametrize("n", ER_SIZES)
    def test_erdos_renyi_matches_scalar_generator(self, n, p):
        for seed in ER_SEEDS:
            assert_same_generated_graph(erdos_renyi(n, p, seed), reference_erdos_renyi(n, p, seed))

    @pytest.mark.parametrize("n, p, seed", [(1000, Fraction(1, 20), 7), (2000, "1/3", 2**64 - 5)])
    def test_erdos_renyi_matches_scalar_generator_at_scale(self, n, p, seed):
        assert_same_generated_graph(erdos_renyi(n, p, seed), reference_erdos_renyi(n, p, seed))

    @pytest.mark.parametrize("n, p, seed", [(0, Fraction(1, 2), 1), (20, Fraction(1, 5), 3),
                                            (57, Fraction(1, 2), 2**64 - 5)])
    def test_a_drawn_graph_makes_its_rows_only_when_read(self, n, p, seed):
        g = erdos_renyi(n, p, seed)
        assert "weights" not in vars(g) and "_integer_weights" not in vars(g)
        assert_same_generated_graph(g, reference_erdos_renyi(n, p, seed))
        adjacency = g._weight_array[1]
        assert g.weights == tuple(tuple(row) for row in adjacency.tolist())
        assert g.weights is g.weights

    def test_a_sweep_trial_reads_no_weight_row(self):
        g = erdos_renyi(40, Fraction(1, 4), 5)
        nodes = select_nodes(g, "all_unique")
        _perturbed_spectrum(g, Fraction(-1))
        _perturbed_spectrum(g, Fraction(-1, 3))
        _stack(g, nodes, 30, exact_domain())
        assert [coefficients(g, q, 30, exact_domain()) for q in nodes]
        assert "weights" not in vars(g) and "_integer_weights" not in vars(g)

    @pytest.mark.parametrize("p", [0, Fraction(1, 2), 1])
    def test_erdos_renyi_negative_node_count(self, p):
        with pytest.raises(ValueError, match="^node count must be non-negative$"):
            erdos_renyi(-3, p, 0)

    @pytest.mark.parametrize("n", [-3, 0, 5])
    @pytest.mark.parametrize("p", [Fraction(-1, 10), Fraction(11, 10), -1e-300, "3/2"], ids=repr)
    def test_erdos_renyi_p_outside_unit_interval(self, n, p):
        with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\]$"):
            erdos_renyi(n, p, 0)

    def test_generated_graphs_are_simple_and_symmetric(self):
        graphs = [erdos_renyi(10, 0.4, s) for s in range(4)]
        graphs += [ring_with_core(9, 2), antiregular(7), complete_graph(6)]
        for g in graphs:
            for i in range(g.n):
                assert g.weights[i][i] == 0
                assert g.degrees[i] == sum(g.weights[i])
                for j in range(g.n):
                    assert g.weights[i][j] == g.weights[j][i]


class TestLaplacian:
    def test_rows_sum_to_zero(self, e2):
        for row in laplacian(e2):
            assert sum(row) == 0

    def test_weighted_rows_sum_to_zero(self):
        g = build_graph(4, [(1, 2, Fraction(1, 3)), (2, 3, 2), (3, 4, Fraction(7, 5))])
        for row in laplacian(g):
            assert sum(row) == 0

    def test_float_weighted_rows_sum_to_zero_exactly(self):
        # node 2's float row sum 0.1 + 0.2 is 0.30000000000000004; its degree is exact
        g = build_graph(3, [(1, 2, 0.1), (2, 3, 0.2)])
        L = laplacian(g)
        assert all(sum(map(_exact_value, row)) == 0 for row in L)
        spectrum = symmetric_eigen(L, 128).eigenvalues
        bound = mpmath.ldexp(max(map(abs, spectrum)), -128)
        assert min(map(abs, spectrum)) <= bound


def _fraction_weighted():
    """e3's edges with weights (2^28 + (u v mod 7)) / 3, and a graph of small fractions."""
    e3 = example_graph("e3")
    return [build_graph(e3.n, [(u, v, Fraction(2**28 + u * v % 7, 3)) for u, v, _ in e3.edges()]),
            build_graph(5, [(1, 2, Fraction(1, 3)), (2, 3, 2), (3, 4, Fraction(7, 5)),
                            (1, 5, Fraction(5, 2))])]


MATRIX_ZETAS = (Fraction(-1, 3), Fraction(-7, 5), Fraction(1, 2), -1, -10**12)


class TestPerturbedRows:
    """M(zeta) made from the weight array rounds each entry as float() rounds
    the exact entry of ``perturbed_matrix``, and carries that array."""

    @pytest.mark.parametrize("zeta", MATRIX_ZETAS, ids=str)
    @pytest.mark.parametrize("g", [erdos_renyi(20, Fraction(1, 2), 9), example_graph("e1"),
                                   example_graph("e2"), example_graph("e3"), *_fraction_weighted()],
                             ids=["er20", "e1", "e2", "e3", "e3-28-bit", "fractions"])
    def test_same_float_matrix_as_perturbed_matrix(self, g, zeta):
        exact = perturbed_matrix(g, zeta)
        rows = _perturbed_rows(g, zeta)
        if g._weight_array[0] == 3 and zeta == -10**12:  # u a_ij is beyond 2^53
            assert rows is None
            return
        expected = np.array(exact, dtype=float)
        assert np.array(rows, dtype=float).tobytes() == expected.tobytes()
        assert rows.array.tobytes() == expected.tobytes()
        assert np.array(tuple(rows), dtype=float).tobytes() == expected.tobytes()  # read row by row
        assert not np.signbit(rows.array[rows.array == 0]).any()
        if isinstance(zeta, int) and g._weight_array[0] == 1:
            assert rows == exact and {type(x) for row in rows for x in row} == {int}

    def test_none_where_floats_would_not_round_once(self):
        floats = build_graph(3, [(1, 2, 0.75), (2, 3, 0.5)])
        huge = build_graph(3, [(1, 2, Fraction(2**70, 243)), (2, 3, 1)])
        g = erdos_renyi(12, Fraction(1, 2), 4)
        assert _perturbed_rows(floats, Fraction(-1, 3)) is None
        assert _perturbed_rows(huge, -1) is None and huge._weight_array[1].dtype == object
        assert _perturbed_rows(g, -0.5) is None and _perturbed_rows(g, mpmath.mpf(-1)) is None
        assert _perturbed_rows(g, Fraction(1, 2**53)) is None
        assert _perturbed_rows(g, -2**53) is None
        assert _perturbed_rows(build_graph(2, []), -10**400) is None


class TestFormats:
    def test_edge_list_round_trip(self, e1):
        assert parse_edge_list(format_edge_list(e1)).weights == e1.weights

    def test_edge_list_comments_and_weights(self):
        text = """
        # a weighted triangle plus an isolated node
        n 4
        1 2        # unit weight
        2 3 0.5
        1 3 7/2
        """
        g = parse_edge_list(text)
        assert g.n == 4
        assert g.weight(2, 3) == Fraction(1, 2)
        assert g.weight(1, 3) == Fraction(7, 2)
        assert g.weight(1, 2) == 1

    def test_edge_list_requires_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_edge_list("1 2\n")

    def test_json_round_trip(self):
        g = build_graph(4, [(1, 2), (2, 3, Fraction(1, 3)), (3, 4, 2)])
        g2 = graph_from_json(graph_to_json(g))
        assert g2.weights == g.weights

    def test_zero_denominator_weight_rejected(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_edge_list("n 2\n1 2 -1/0\n")
        with pytest.raises(ValueError, match="zero denominator"):
            graph_from_json('{"n": 2, "edges": [[1, 2, "1/0"]]}')

    @pytest.mark.parametrize("weight", ["true", "false", "null"])
    def test_json_non_number_weight_rejected(self, weight):
        # a bool weight would pass build_graph's 0 < w check; None would raise TypeError
        with pytest.raises(ValueError, match=rf"^edge \[1, 2, {weight}\] has weight {weight}, "):
            graph_from_json(f'{{"n": 3, "edges": [[1, 2, {weight}], [2, 3, 2]]}}')

    def test_json_two_element_edge_rejected(self):
        with pytest.raises(ValueError, match=r"^edge \[1, 2\] is not a \[u, v, weight\] list"):
            graph_from_json('{"n": 3, "edges": [[1, 2], [2, 3, 2]]}')

    @pytest.mark.parametrize("key", ["n", "edges"])
    def test_json_missing_key_rejected(self, key):
        data = {"n": 2, "edges": [[1, 2, 1]]}
        del data[key]
        with pytest.raises(ValueError, match=f"no '{key}' key"):
            graph_from_json(json.dumps(data))

    @pytest.mark.parametrize("weight", ["Infinity", "NaN"])
    def test_json_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match=r"^edge \(1, 2\) has non-finite weight "):
            graph_from_json(f'{{"n": 2, "edges": [[1, 2, {weight}]]}}')
