"""Shared seeded graph samplers for the property-style tests."""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath.libmp import to_rational

from lap_perturb.graph import Graph, build_graph, degree_profile, erdos_renyi
from lap_perturb.perturb import beta_rows
from oracles import round_to_nearest


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


def random_tree(n: int, seed: int) -> Graph:
    """Random attachment tree: node j links to an earlier node chosen by a LCG."""
    state = seed
    edges = []
    for j in range(2, n + 1):
        state = (1103515245 * state + 12345) % (1 << 31)
        edges.append((1 + state % (j - 1), j))
    return build_graph(n, edges)
