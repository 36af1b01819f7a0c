"""Shared seeded graph samplers for the property-style tests."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath.libmp import to_rational

from lap_perturb.domain import _exact_value, exact_domain
from lap_perturb.euler import EulerParams, euler_series, taylor_partial_sums
from lap_perturb.graph import Graph, build_graph, degree_profile, erdos_renyi
from lap_perturb.perturb import beta_rows, coefficients
from oracles import round_to_nearest

T_GRID = (Fraction(-3), Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(2))
ZETAS = (Fraction(-1), Fraction(-1, 3))


def random_unique_degree_graphs(count: int, max_n: int = 12):
    """Seeded stream of (graph, q) pairs where q has the largest unique degree."""
    found = []
    seed = 0
    while len(found) < count:
        seed += 1
        n = 4 + seed % (max_n - 3)
        p = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))[seed % 3]
        g = erdos_renyi(n, p, 10_000 + seed)
        profile = degree_profile(g)
        if not profile.unique_nodes:
            continue
        q = max(profile.unique_nodes, key=lambda u: profile.degrees[u - 1])
        found.append((g, q))
    return found


def float_weighted(g: Graph) -> Graph:
    """Copy of ``g`` with every weight a Python float, so no weight counts as rational."""
    return build_graph(g.n, [(u, v, float(w)) for u, v, w in g.edges()])


def exact_copy(g: Graph) -> Graph:
    """Copy of ``g`` with every weight the ``Fraction`` it stands for (a float or mpf is dyadic)."""
    return build_graph(g.n, [(u, v, _exact_value(w)) for u, v, w in g.edges()])


def mpf_value(x) -> Fraction:
    """The exact value of an mpf."""
    return Fraction(*to_rational(x._mpf_))


def table_values(g: Graph, table) -> list:
    """d_q and every c_j of a coefficient table of ``g``, then every beta_jr of its node."""
    rows = beta_rows(g, table.q, table.K, table.domain)
    return [table.d_q, *table.c, *(b for row in rows for b in row)]


def assert_rounded_once(values, exact_values, bits: int) -> None:
    """Each value is an mpf equal to its exact counterpart rounded to nearest at ``bits``."""
    for value, x in zip(values, exact_values, strict=True):
        assert isinstance(value, mpmath.mpf)
        assert mpf_value(value) == round_to_nearest(x, bits)


def assert_table_rounded_once(g: Graph, table, bits: int) -> None:
    """Every d_q, c_j and beta_jr of ``table``, a float table of ``g``, and every
    Taylor and Euler partial sum of it over ZETAS x T_GRID, is the value of
    the exact table of ``exact_copy(g)`` rounded once at ``bits`` (0 ulp)."""
    exact, exact_values = _exact_table(exact_copy(g), table.q, table.K)
    assert_rounded_once(table_values(g, table), exact_values, bits)
    for zeta in ZETAS:
        series = [(taylor_partial_sums(table, zeta), taylor_partial_sums(exact, zeta))]
        for t in T_GRID:
            params = EulerParams(t=t, zeta=zeta, K_max=table.K)
            series.append((euler_series(table, params), euler_series(exact, params)))
        for rounded, exact_series in series:
            assert rounded.orders == exact_series.orders
            assert_rounded_once(rounded.partial_sums.values(),
                                exact_series.partial_sums.values(), bits)


@lru_cache(maxsize=8)
def _exact_table(g: Graph, q: int, K: int) -> tuple:
    """The exact table of node q and its ``table_values``, kept for the checks at other precisions."""
    table = coefficients(g, q, K, exact_domain())
    return table, tuple(table_values(g, table))


def random_tree(n: int, seed: int) -> Graph:
    """Random attachment tree: node j links to an earlier node chosen by a LCG."""
    state = seed
    edges = []
    for j in range(2, n + 1):
        state = (1103515245 * state + 12345) % (1 << 31)
        edges.append((1 + state % (j - 1), j))
    return build_graph(n, edges)
