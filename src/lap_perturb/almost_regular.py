"""Closed-form series machinery for graphs with one high-degree node.

An "almost regular" graph has a single special node (index 1) of degree
d_max while every other node shares a common degree r; x = d_max - r is the
degree gap, both read from the exact ``Graph.degrees``.  For these graphs
the perturbation coefficients c_m have a closed form in the characteristic
coefficients

    A[k, m] = sum over compositions m = j_1 + ... + j_k (j_i > 0)
              of prod_i (A^{j_i})_11,

built from closed-walk counts at the special node.  This module provides
the A[k, m] recursion, the paper's closed form for c_m (``cm_closed_form``,
a cross-check of ``perturb.coefficients``, which builds every coefficient
table), complete-graph formulas and bounds for A[k, m], and a
contour-integral evaluation of the eigenvalue.  The contour reads the
walk generating function f(z) = sum_m (A^m)_11 z^m as the rational function
P/Q that the exact walk counts fix (Berlekamp-Massey), sums half of the
circle (the integrand is conjugate-symmetric), and takes its radius from
lambda_1, f's nearest pole, a root of Q (no eigensolver).  The closed-form
coefficient table (its exact c_m over their lcm, stored as every table is),
the specialised constant-gap recursion for c_m and the eigenvector
spectral-sum contour are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .domain import _over_lcm, to_mpf
from .euler import binomial, taylor_partial_sums
from .graph import Graph, WalkCounts, closed_walk_counts
from .perturb import SeriesEvaluation, coefficients

__all__ = [
    "AlmostRegularGraph",
    "ChcTable",
    "ContourResult",
    "ContourError",
    "almost_regular",
    "chc_build",
    "cm_closed_form",
    "complete_graph_chc",
    "chc_bound",
    "chc_bound_half",
    "almost_regular_series",
    "contour_eigenvalue",
]


class ContourError(RuntimeError):
    """Contour evaluation failed: pole enclosed, branch violated, or no convergence."""


@dataclass(frozen=True)
class AlmostRegularGraph:
    """A graph whose node 1 has the unique top degree and all others share degree r."""

    graph: Graph
    special: int
    r: object
    x: object


def almost_regular(g: Graph) -> AlmostRegularGraph:
    """Validate and wrap a graph with one high-degree node (node 1 by convention).

    r and x come from the exact degrees ``g.degrees``: a float or mpf weight
    is taken at its exact (dyadic) value, as in ``closed_walk_counts``.
    """
    if g.n < 2:
        raise ValueError("need at least two nodes")
    d_max, r, *rest = g.degrees
    if any(di != r for di in rest):
        raise ValueError("nodes 2..n must share a common degree")
    if not d_max > r:
        raise ValueError("node 1 must have the strictly largest degree")
    return AlmostRegularGraph(graph=g, special=1, r=r, x=d_max - r)


@dataclass(frozen=True)
class ChcTable:
    """Characteristic coefficients A[k, m] for 1 <= k <= m <= M at node 1.

    ``A[k, m] = 0`` whenever k > m/2 because (A^1)_11 = 0; out-of-range
    lookups return 0.
    """

    walks: WalkCounts
    M: int
    values: tuple  # values[k-1][m-1]

    def value(self, k: int, m: int):
        if k < 1 or m < 1:
            raise ValueError("k and m must be positive")
        if k > m:
            return 0
        if m > self.M:
            raise IndexError(f"m = {m} beyond table order {self.M}")
        return self.values[k - 1][m - 1]


def chc_build(walks: WalkCounts, M: int) -> ChcTable:
    """Build A[k, m] from A[1, m] = (A^m)_11 via the composition recursion

        A[k, m] = sum_{j=1}^{m-k+1} (A^j)_11 A[k-1, m-j].
    """
    if walks.max_order < M:
        raise ValueError(f"walk counts cover m <= {walks.max_order}, need {M}")
    w = walks.counts
    rows = [[w[m] for m in range(1, M + 1)]]
    for k in range(2, M + 1):
        prev = rows[-1]
        row = [0] * M
        for m in range(k, M + 1):
            row[m - 1] = sum(w[j] * prev[m - j - 1] for j in range(1, m - k + 2))
        rows.append(row)
    return ChcTable(walks=walks, M=M, values=tuple(tuple(r) for r in rows))


def _g_weight(k: int, m: int) -> Fraction:
    """g_k(m) = ((-1)^(k-1) / k) C(m+k-2, k-1); g_1(m) = 1."""
    return Fraction((-1) ** (k - 1), k) * binomial(m + k - 2, k - 1)


def cm_closed_form(arg: AlmostRegularGraph, chc: ChcTable, m: int) -> Fraction:
    """c_m = x^(1-m) sum_{k=1}^{m} g_k(m) A[k, m], exact.

    The k-sum may run to m instead of floor(m/2) because A[k, m] vanishes
    beyond that point.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if chc.M < m:
        raise ValueError(f"chc table covers m <= {chc.M}")
    total = sum(_g_weight(k, m) * chc.value(k, m) for k in range(1, m + 1))
    return Fraction(total) / Fraction(arg.x) ** (m - 1)


def complete_graph_chc(N: int, k: int, m: int) -> int:
    """A[k, m] for the complete graph K_N in closed form (exact integer):

        (-1)^m (N-1)^k sum_r C(k+r-1, r) C(m-k-r-1, m-2k-r) (-1)^r (N-1)^r.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if k < 1 or m < 2:
        raise ValueError("need k >= 1 and m >= 2")
    total = 0
    for r in range(0, m - 2 * k + 1):
        total += (
            binomial(k + r - 1, r)
            * binomial(m - k - r - 1, m - 2 * k - r)
            * (-1) ** r
            * (N - 1) ** r
        )
    return (-1) ** m * (N - 1) ** k * total


def chc_bound(N: int, k: int, m: int) -> Fraction:
    """Upper bound for |A[k, m]| valid for 2k <= m, N >= 3:

        (N-1)^m / (N-1-(m-2k)/(m-k))^k * (m-k)^(m-k) / ((m-2k)^(m-2k) k^k),

    with the 0^0 = 1 convention at m = 2k (where the bound is exact).
    """
    if N < 3:
        raise ValueError("bound requires N >= 3")
    if k < 1 or 2 * k > m:
        raise ValueError("bound holds in the region 1 <= k <= m/2")
    # 0^0 = 1 at m = 2k: both (m-2k)^(m-2k) and the optimizer x = (m-2k)/(m-k)
    # degenerate consistently there.
    base = Fraction(N - 1) - Fraction(m - 2 * k, m - k)
    num = Fraction(N - 1) ** m * Fraction(m - k) ** (m - k)
    den = base**k * Fraction(max(m - 2 * k, 1)) ** (m - 2 * k) * Fraction(k) ** k
    return num / den


def chc_bound_half(N: int, k: int, m: int) -> Fraction:
    """The x = 1/2 variant of the bound: 2^(m-k) (N-1)^m / (N-3/2)^k."""
    if N < 3:
        raise ValueError("bound requires N >= 3")
    if k < 1 or 2 * k > m:
        raise ValueError("bound holds in the region 1 <= k <= m/2")
    return Fraction(2) ** (m - k) * Fraction(N - 1) ** m / Fraction(2 * N - 3, 2) ** k


def almost_regular_series(arg: AlmostRegularGraph, zeta, K: int) -> SeriesEvaluation:
    """Taylor partial sums up to K of the eigenvalue branching from d_max.

    The table comes from ``perturb.coefficients`` in its default domain:
    exact for rational weights, and 128-bit floats for float-typed ones.
    Each call rebuilds the table; to sum at several zeta or t, build it once
    and call ``euler.taylor_partial_sums`` or ``euler.euler_series``.
    """
    return taylor_partial_sums(coefficients(arg.graph, arg.special, K), zeta)


@dataclass(frozen=True)
class ContourResult:
    """Converged contour evaluation plus its quadrature diagnostics."""

    value: object
    radius: object
    points: int
    branch_ok: bool
    last_change: object


def _walk_generating_function(g: Graph, q: int) -> tuple:
    """(P, Q), exact coefficient lists lowest order first, with Q(0) = 1 and

        sum_m (A^m)_qq z^m = P(z) / Q(z).

    Q is the connection polynomial of the minimal linear recurrence of the
    walk counts (Berlekamp-Massey over ``Fraction``s).  Its length L, the
    number of distinct eigenvalues node q sees (the dimension of e_q's
    Krylov space), is at most n, so the counts for m = 0..2n fix it;
    P = Q * sum_m w_m z^m mod z^L.  Node q sees the eigenvalue 0 exactly when
    deg P = deg Q = L - 1; otherwise deg Q = L.
    """
    w = closed_walk_counts(g, q, 2 * g.n).counts
    C, B = [Fraction(1)], [Fraction(1)]
    L, shift, b = 0, 1, Fraction(1)
    for k in range(len(w)):
        d = sum(c * w[k - i] for i, c in enumerate(C))  # deg C <= L <= k
        if d == 0:
            shift += 1
            continue
        T, coef = C, d / b
        C = C + [0] * (shift + len(B) - len(C))
        for i, bi in enumerate(B):
            C[i + shift] -= coef * bi
        if 2 * L <= k:
            L, B, b, shift = k + 1 - L, T, d, 1
        else:
            shift += 1
    P = [sum(C[i] * w[k - i] for i in range(min(k + 1, len(C)))) for k in range(L)]
    while C[-1] == 0:
        C.pop()
    while P and P[-1] == 0:
        P.pop()
    return P, C


def _largest_eigenvalue(Q: list, r, x) -> mpmath.mpf:
    """lambda_1 of an almost-regular graph from its node 1's Q, correctly rounded.

    R(lambda) = lambda^deg Q * Q(1/lambda), the product of (lambda - lambda_i) over the
    nonzero eigenvalues node 1 sees, has R(r) <= 0 < R(r + x): lambda_2 <= r by Cauchy
    interlacing (without node 1 every row sum is <= r), r < lambda_1 < r + x by Perron-
    Frobenius (node 1's component is not regular).  Bisection on the grid 1/scale, on which
    lie all rounding boundaries above r > 2^-bitlen(den r), ends at lo or inside (lo, lo + 1).
    """
    scale = _over_lcm((r, x))[1] << (mpmath.mp.prec + r.denominator.bit_length())
    terms = [c * scale**k for k, c in enumerate(_over_lcm(Q)[0])]
    lo, hi, exact = int(r * scale), int((r + x) * scale), False
    while hi - lo > 1:
        mid, value = (lo + hi) // 2, 0
        for t in terms:  # value = L scale^deg R(mid / scale), L Q's common denominator, by Horner
            value = value * mid + t
        lo, hi, exact = (lo, mid, exact) if value > 0 else (mid, hi, value == 0)
    return to_mpf(Fraction(lo, scale) if exact else Fraction(2 * lo + 1, 2 * scale))


def contour_eigenvalue(
    arg: AlmostRegularGraph,
    zeta,
    radius=None,
    quad_points: int = 512,
    precision_bits: int = 128,
    rel_tol=1e-10,
    max_points: int = 2**14,
) -> ContourResult:
    """Evaluate the eigenvalue near d_max as a circle contour integral:

        d_q + (zeta / (2 pi r)) * integral e^{-i theta}
              log(1 - zeta e^{-i theta} / (x r f(r e^{i theta}))) d theta,

    where f(z) = sum_m (A^m)_11 z^m is the closed-walk generating function at
    node 1, the rational function P/Q of the exact walk counts
    (``_walk_generating_function``), its coefficients rounded once and
    evaluated by Horner (``mpmath.polyval``).  Uses the periodic trapezoid
    rule with point doubling until the value changes by less than rel_tol
    (relative).  A, zeta, x and r are real, so the integrand at 1 - theta
    turns is the conjugate of that at theta: only theta in [0, 1/2] is
    evaluated, the interior points counted twice by their real part.

    The radius defaults to half of 1/lambda_1, f's nearest pole: lambda_1 is the
    only root of lambda^deg Q * Q(1/lambda) in (r, r + x] (``_largest_eigenvalue``).

    Raises ValueError unless quad_points is a power of two, at least 4 and
    below max_points (the first doubling would pass the cap), unless a given
    radius is positive, and unless 2**-precision_bits <= 2**-10 rel_tol: a
    coarser working precision stops changing long before rel_tol is met.
    Raises ContourError when the circle encloses the generating function's
    nearest pole (radius >= 1/lambda_1), when |zeta/(x z f(z))| >= 1 somewhere
    on the circle (log branch condition), or when doubling up to
    ``max_points`` does not converge.
    """
    if quad_points < 4 or quad_points & (quad_points - 1) != 0:
        raise ValueError("quad_points must be a power of two, at least 4")
    if not quad_points < max_points:
        raise ValueError(f"quad_points = {quad_points} must be below max_points = {max_points}")
    if not 2.0 ** (10 - precision_bits) <= rel_tol:
        raise ValueError(f"precision_bits = {precision_bits} is too coarse for rel_tol = {rel_tol}")
    if radius is not None and not radius > 0:
        raise ValueError(f"radius must be positive, not {radius}")
    P, Q = _walk_generating_function(arg.graph, arg.special)
    with mpmath.workprec(precision_bits):
        pole = 1 / _largest_eigenvalue(Q, arg.r, arg.x)
        r = to_mpf(radius) if radius is not None else pole / 2
        if not r < pole:
            raise ContourError(
                f"radius {mpmath.nstr(r, 8)} encloses the generating-function pole at "
                f"{mpmath.nstr(pole, 8)}"
            )
        z = to_mpf(zeta)
        x = to_mpf(arg.x)
        d_q = to_mpf(arg.r + arg.x)
        if z == 0:
            return ContourResult(value=d_q, radius=r, points=quad_points,
                                 branch_ok=True, last_change=mpmath.mpf(0))
        # f = num / den, coefficients highest order first as mpmath.polyval takes them
        num, den = ([to_mpf(c) for c in reversed(cs)] for cs in (P, Q))

        def integrand(i, points):
            """Real part of the integrand at theta = i / points turns."""
            e = mpmath.expjpi(mpmath.mpf(2 * i) / points)  # e^{2 pi i theta}
            zz = r * e
            ratio = z * mpmath.polyval(den, zz) / (x * zz * mpmath.polyval(num, zz))
            if abs(ratio) >= 1:
                raise ContourError(
                    f"branch condition violated on the contour: |zeta/(x z f(z))| = "
                    f"{mpmath.nstr(abs(ratio), 8)} >= 1"
                )
            return (mpmath.conj(e) * mpmath.log(1 - ratio)).real

        P = quad_points
        total = (integrand(0, P) + integrand(P // 2, P)
                 + 2 * sum(integrand(i, P) for i in range(1, P // 2)))
        value = d_q + (z / (r * P)) * total
        while True:
            # odd points i and 2P - i of the doubled grid are conjugate
            total = total + 2 * sum(integrand(i, 2 * P) for i in range(1, P, 2))
            P *= 2
            new_value = d_q + (z / (r * P)) * total
            change = abs(new_value - value)
            value = new_value
            if change <= to_mpf(rel_tol) * max(1, abs(value)):
                break
            if P >= max_points:
                raise ContourError(
                    f"quadrature did not converge by {max_points} points "
                    f"(last change {mpmath.nstr(change, 6)})"
                )
        return ContourResult(value=value, radius=r, points=P, branch_ok=True,
                             last_change=change)
