"""Undirected weighted graphs: construction, degree analytics, walks, generators, I/O.

Nodes are addressed 1-based everywhere in the public API (matrices, edge
lists, node arguments); internal storage is 0-based.  Weights stay exact
(int or Fraction) whenever the inputs are exact, so downstream coefficient
computations can run in rational arithmetic.  Every layer reads the exact
degrees of ``Graph.degrees``: a float or mpf weight counts as its dyadic value.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf
from operator import not_

import numpy as np

from .domain import _exact_value, _integer_ratio, _over_lcm, _rational, parse_number

_FLOAT_INTEGERS = 1 << 53  # every integer below it is exact in float64

__all__ = [
    "Graph",
    "DegreeProfile",
    "WalkCounts",
    "build_graph",
    "degree_profile",
    "closed_walk_counts",
    "laplacian",
    "perturbed_matrix",
    "erdos_renyi",
    "antiregular",
    "ring_with_core",
    "complete_graph",
    "parse_edge_list",
    "format_edge_list",
    "graph_to_json",
    "graph_from_json",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with non-negative edge weights.

    ``weights`` is a tuple of row tuples (symmetric, zero diagonal); entries
    are ints for unweighted graphs and Fractions/floats otherwise.  Instances
    are immutable and safe to share across threads.  ``degrees`` and the
    exact integer form of the weights as one array (``_weight_array``) are
    read from ``weights`` once, on first use.  A graph from ``erdos_renyi``
    arrives with its ``degrees``, its ``_weight_array`` (the 0/1 array it
    was drawn in) and ``_rational_weights`` already set (``_unit_graph``).
    It makes its ``weights`` rows on first read: the same values and types.
    """

    n: int
    weights: tuple
    is_weighted: bool

    def __getattr__(self, name: str):
        # reached only for an attribute not in the instance: a drawn graph's rows before a read
        if name != "weights" or "_weight_array" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        weights = tuple(map(tuple, map(np.ndarray.tolist, self._weight_array[1])))
        self.__dict__["weights"] = weights
        return weights

    @cached_property
    def degrees(self) -> tuple:
        """Nodal strengths: exact row sums of the weight matrix (1-based order).

        A row of ints or Fractions keeps its ``sum``; other rows add the exact
        (``_exact_value``) weights, so a NaN or infinite weight raises ValueError.
        The non-zero weights are added to the sum of the zeros, which keeps the
        type ``sum(row)`` has without a ``Fraction`` addition per int zero.
        """
        return tuple(s if _rational(s := sum(filter(None, row), sum(filter(not_, row))))
                     else sum(map(_exact_value, row)) for row in self.weights)

    @cached_property
    def _weight_array(self) -> tuple:
        """(W, a): W the lcm of the weight denominators and a = W A as one n x n array.

        Each weight counts at its exact value (``_over_lcm``), so a float or
        mpf weight at its dyadic one.  One pass collects the distinct
        (type, weight) pairs, so an int 1 does not hide a float 1.0 that
        equals it, and records in ``_rational_weights`` whether every weight
        is rational (``_rational``).  A graph of int weights has W = 1.
        a is an integer array (int64 here; a drawn graph's is its uint8
        array) when every row's sum of |W A|, and so every entry and row
        sum, is below 2^53 and exact in float64.  Else it holds the same
        Python ints as an object array.
        """
        distinct = set().union(*(zip(map(type, row), row) for row in self.weights))
        self.__dict__["_all_rational"] = all(_rational(w) for _, w in distinct)
        W, a = 1, self.weights
        if not all(t is int for t, _ in distinct):
            ws = [w for _, w in distinct]
            nums, W = _over_lcm(ws)
            scaled = dict(zip(ws, nums))
            a = [list(map(scaled.__getitem__, row)) for row in a]
        fits = max((sum(map(abs, row)) for row in a), default=0) < _FLOAT_INTEGERS
        return W, np.array(a, dtype=np.int64 if fits else object).reshape(self.n, self.n)

    @property
    def _rational_weights(self) -> bool:
        """Whether every weight is rational: no float or mpf of any value."""
        if "_all_rational" not in self.__dict__:
            self._weight_array  # its one pass records the answer
        return self.__dict__["_all_rational"]

    def weight(self, u: int, v: int):
        """Edge weight between 1-based nodes ``u`` and ``v`` (0 if absent)."""
        return self.weights[u - 1][v - 1]

    def edges(self) -> tuple:
        """All edges as (u, v, weight) with u < v, 1-based."""
        out = []
        for i in range(self.n):
            row = self.weights[i]
            for j in range(i + 1, self.n):
                if row[j] != 0:
                    out.append((i + 1, j + 1, row[j]))
        return tuple(out)

@dataclass(frozen=True)
class DegreeProfile:
    """Degrees, the set of unique-degree nodes, and their degree-gap parameter.

    ``kappa_per_node[q]`` is the reciprocal of the smallest degree gap
    ``|d_q - d_k|`` over ``k != q``; it is defined only for nodes whose
    degree no other node shares.
    """

    degrees: tuple
    unique_nodes: frozenset
    kappa_per_node: dict

    def kappa(self, q: int):
        return self.kappa_per_node[q]


@dataclass(frozen=True)
class WalkCounts:
    """Closed-walk counts (A^m)_qq for m = 0..M at a single node."""

    node: int
    counts: tuple

    @property
    def max_order(self) -> int:
        return len(self.counts) - 1


def build_graph(n: int, edges) -> Graph:
    """Build a graph from 1-based edges ``(u, v)`` or ``(u, v, weight)``.

    Rejects self-loops, duplicate unordered pairs, out-of-range indices and
    non-positive or non-finite weights.  ``is_weighted`` is set iff any
    weight differs from 1.
    """
    if n < 0:
        raise ValueError("node count must be non-negative")
    rows = [[0] * n for _ in range(n)]
    seen = set()
    weighted = False
    for edge in edges:
        if len(edge) == 2:
            u, v = edge
            w = 1
        elif len(edge) == 3:
            u, v, w = edge
        else:
            raise ValueError(f"edge must be (u, v) or (u, v, weight): {edge!r}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) out of range 1..{n}")
        if u == v:
            raise ValueError(f"self-loop at node {u} is not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        if not 0 < w < inf:
            kind = "non-positive" if w <= 0 else "non-finite"
            raise ValueError(f"edge {key} has {kind} weight {w!r}")
        if w != 1:
            weighted = True
        rows[u - 1][v - 1] = w
        rows[v - 1][u - 1] = w
    return Graph(n=n, weights=tuple(tuple(r) for r in rows), is_weighted=weighted)


def _unit_graph(adj: np.ndarray) -> Graph:
    """The graph of a symmetric 0/1 integer array with zero diagonal, taken unchecked.

    A generator's array is valid by construction, so ``build_graph``'s
    per-edge checks are skipped.  The array is the graph's ``_weight_array``
    and its row sums are ``degrees``, with the values and types their own
    passes would give.  The weight rows are read from it, one ``tolist`` per
    row, when ``weights`` is first read.
    """
    g = object.__new__(Graph)
    g.__dict__.update(n=len(adj), is_weighted=False, degrees=tuple(adj.sum(1).tolist()),
                      _weight_array=(1, adj), _all_rational=True)
    return g


def degree_profile(g: Graph) -> DegreeProfile:
    """Degrees, unique-degree nodes, and per-node kappa = 1/min gap."""
    d = g.degrees
    counts = Counter(d)
    unique = frozenset(i + 1 for i in range(g.n) if counts[d[i]] == 1)
    kappa = {}
    for q in unique:
        gaps = [abs(d[q - 1] - d[k]) for k in range(g.n) if k != q - 1]
        if not gaps:
            continue
        kappa[q] = Fraction(1) / min(gaps)
    return DegreeProfile(degrees=d, unique_nodes=unique, kappa_per_node=kappa)


def closed_walk_counts(g: Graph, q: int, M: int) -> WalkCounts:
    """Counts (A^m)_qq for m = 0..M via iterated matrix-vector products.

    Exact integers for unweighted graphs and exact rationals otherwise: a
    float or mpf weight is taken at its exact (dyadic) value.  Arbitrary walk
    lengths are safe (Python bignums).
    """
    if M < 0:
        raise ValueError("M must be non-negative")
    if not (1 <= q <= g.n):
        raise ValueError(f"node {q} out of range")
    qi = q - 1
    vec = [0] * g.n
    vec[qi] = 1
    counts = [1]
    rows = [[w if type(w) is int else _exact_value(w) for w in row] for row in g.weights]
    for _ in range(M):
        vec = [sum(rows[i][j] * vec[j] for j in range(g.n) if vec[j] != 0) for i in range(g.n)]
        counts.append(vec[qi])
    return WalkCounts(node=q, counts=tuple(counts))


def laplacian(g: Graph) -> tuple:
    """Laplacian diag(degrees) - weights as a tuple of rows; rows sum to zero."""
    return perturbed_matrix(g, -1)


def perturbed_matrix(g: Graph, zeta) -> tuple:
    """diag(degrees) + zeta * weights, exact; zeta = -1 is the Laplacian, +1 the signless one.

    With (W, a = W A) from ``_weight_array`` and zeta = u / v from
    ``_integer_ratio``, so a float or mpf weight or zeta at its dyadic value:
    when v W = 1 the entries are the ints u a_ij and, on the diagonal, the
    row sums d_i of a.  Else every entry is a ``Fraction``: u a_ij / (v W),
    and d_i / W on the diagonal.  No entry is a float, so none is -0.0.
    """
    W, a = g._weight_array
    u, v = _integer_ratio(zeta)
    ints = v * W == 1
    rows = a.tolist()
    # one entry per distinct integer of a: a sparse or drawn graph has few
    scaled = {x: u * x if ints else Fraction(u * x, v * W) for x in set().union(*rows)}
    rows = [list(map(scaled.__getitem__, row)) for row in rows]
    for i, d in enumerate(a.sum(1).tolist()):
        rows[i][i] = d if ints else Fraction(d, W)
    return tuple(map(tuple, rows))


class _ArrayRows(tuple):
    """A matrix as a tuple of rows that also hands numpy its float64 array.

    ``np.array(rows, dtype=float)`` takes the array through ``__array__``
    and reads no row; hash and equality are the tuple's.
    """

    def __array__(self, dtype=None, copy=None):
        return self.array.astype(dtype or self.array.dtype, copy=bool(copy))


def _perturbed_rows(g: Graph, zeta) -> tuple:
    """``perturbed_matrix(g, zeta)`` rounded once per entry, as rows with their float64 array.

    With a = W A and zeta = u / v, an entry is the product u a_ij over v W,
    and a diagonal one the row sum of a over W: ints when v W = 1, else the
    float of the exact entry, never -0.0.  They are made in int64 and one
    float64 division while every integer is below 2^53, else in Python ints,
    whose true division also rounds once.  The rows are read from the array,
    one ``tolist`` per row.  Where an entry is beyond the float64 range this
    is ``perturbed_matrix(g, zeta)`` alone, which ``symmetric_eigen`` rejects.
    """
    W, a = g._weight_array
    u, v = _integer_ratio(zeta)
    top = max(int(a.max(initial=1)), -int(a.min(initial=0)))  # max(|a_ij|, 1)
    fits = a.dtype != object and v * W < _FLOAT_INTEGERS and abs(u) * top < _FLOAT_INTEGERS
    M = np.multiply(a, u, dtype=np.int64 if fits else object)
    d = a.sum(1).astype(M.dtype)
    try:
        if v * W != 1:
            M = M / (v * W)
            d = d / W
        np.fill_diagonal(M, d)
        rows = _ArrayRows(map(tuple, map(np.ndarray.tolist, M)))
        rows.array = M.astype(np.float64, copy=False)
    except OverflowError:
        return perturbed_matrix(g, zeta)
    return rows


# ---------------------------------------------------------------------------
# Generators.  All are pure functions of their arguments (including seed).
# ---------------------------------------------------------------------------

_SM64_MASK = (1 << 64) - 1


def _splitmix64(seed: int, count: int) -> np.ndarray:
    """Outputs 1..count of the splitmix64 generator seeded with ``seed``, as uint64.

    numpy's uint64 arithmetic wraps mod 2^64, as the generator does.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed & _SM64_MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def erdos_renyi(n: int, p, seed: int) -> Graph:
    """G(n, p): each unordered pair is an edge independently with probability p.

    Uses the splitmix64 generator so results are identical across platforms
    and library versions: pair (u, v) with u < v (lexicographic order) gets
    the next 64-bit draw z, and the edge exists iff z < floor(p * 2^64).
    splitmix64 is counter-based (Steele, Lea and Flood, OOPSLA 2014): draw
    k = 1, 2, ... is mix(seed + k * 0x9E3779B97F4A7C15 mod 2^64), so
    ``_splitmix64`` makes all n(n-1)/2 draws at once in numpy.
    """
    p = Fraction(p)
    if not (0 <= p <= 1):
        raise ValueError("p must lie in [0, 1]")
    if n < 0:
        raise ValueError("node count must be non-negative")
    threshold = int(p * (1 << 64))
    adj = np.zeros((n, n), dtype=np.uint8)
    # the strict upper triangle, read in row-major order, is the (u, v) order;
    # 2^64 (p = 1) is beyond uint64, and every draw is below it
    adj[np.tri(n, k=-1, dtype=bool).T] = (
        _splitmix64(seed, n * (n - 1) // 2) < np.uint64(threshold)
        if threshold <= _SM64_MASK else 1)
    return _unit_graph(adj | adj.T)


def antiregular(n: int) -> Graph:
    """Graph on n nodes where exactly two nodes share a degree, all others unique.

    Construction: node j joins every lower-indexed node iff j is even.  For
    n = 10 this yields the degree vector (5, 5, 4, 6, 3, 7, 2, 8, 1, 9) and
    an integer Laplacian spectrum.
    """
    if n < 2:
        raise ValueError("antiregular graphs need at least 2 nodes")
    edges = [(i, j) for j in range(2, n + 1, 2) for i in range(1, j)]
    return build_graph(n, edges)


def ring_with_core(n: int, k: int) -> Graph:
    """Core node 1 adjacent to all; nodes 2..n form a 2k-nearest-neighbor ring.

    Node 1 gets the unique degree n - 1 while every ring node has degree
    2k + 1, so the core degree is unique iff 2k + 2 < n (enforced).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 2 * k + 2 < n:
        raise ValueError(f"need 2k + 2 < n for a unique core degree (n={n}, k={k})")
    m = n - 1  # ring size
    edges = [(1, v) for v in range(2, n + 1)]
    for i in range(m):
        for s in range(1, k + 1):
            # k < m/2, so each ring edge appears for exactly one (i, s)
            j = (i + s) % m
            edges.append((2 + i, 2 + j) if i < j else (2 + j, 2 + i))
    return build_graph(n, edges)


def complete_graph(n: int) -> Graph:
    """Complete graph K_n."""
    return build_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


# ---------------------------------------------------------------------------
# Edge-list and JSON formats.
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header ``n <count>``, lines ``u v [weight]``.

    ``#`` starts a comment; indices are 1-based; weights parse as exact
    rationals (decimal or p/q notation).
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise ValueError(f"line {lineno}: expected header 'n <count>'")
            n = int(parts[1])
            continue
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v [weight]'")
        u, v = int(parts[0]), int(parts[1])
        if len(parts) == 3:
            w = parse_number(parts[2])
            w = int(w) if w.denominator == 1 else w
            edges.append((u, v, w))
        else:
            edges.append((u, v))
    if n is None:
        raise ValueError("missing 'n <count>' header line")
    return build_graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    for u, v, w in g.edges():
        lines.append(f"{u} {v}" if w == 1 else f"{u} {v} {w}")
    return "\n".join(lines) + "\n"


def _weight_to_json(w):
    if isinstance(w, Fraction) and w.denominator != 1:
        return f"{w.numerator}/{w.denominator}"
    if isinstance(w, Fraction):
        return int(w)
    return w


def graph_to_json(g: Graph) -> str:
    edges = [[u, v, _weight_to_json(w)] for u, v, w in g.edges()]
    return json.dumps({"n": g.n, "edges": edges})


def graph_from_json(text: str) -> Graph:
    """Read the ``{"n": N, "edges": [[u, v, w], ...]}`` form that ``graph_to_json`` writes.

    A weight is a JSON number or a string ``parse_number`` reads.  A
    non-object document, a missing key, an ``n`` that is not an integer, an
    edge that is not a three-element list, a node index that is not an
    integer, or a weight that is ``true``, ``false`` or ``null`` raises
    ValueError naming the key or the edge.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    for key in ("n", "edges"):
        if key not in data:
            raise ValueError(f"graph JSON has no {key!r} key")
    if type(data["n"]) is not int:  # a JSON integer; true and false are bools
        raise ValueError(f"graph JSON key 'n' is {json.dumps(data['n'])}, not an integer")
    edges = []
    for edge in data["edges"]:
        if not isinstance(edge, list) or len(edge) != 3:
            raise ValueError(f"edge {json.dumps(edge)} is not a [u, v, weight] list")
        u, v, w = edge
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge {json.dumps(edge)} has a node index that is not an integer")
        if isinstance(w, str):
            w = parse_number(w)
        elif isinstance(w, bool) or not isinstance(w, (int, float)):
            raise ValueError(f"edge {json.dumps(edge)} has weight {json.dumps(w)}, not a number")
        edges.append((u, v, w))
    return build_graph(data["n"], edges)
