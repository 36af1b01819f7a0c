"""Reference implementations kept only as test oracles.

``reference_coefficients`` is the plain beta recursion that
``perturb.coefficients`` ran before it became one fraction-free loop that
walks neighbour lists.  It divides ``Fraction``s by every degree gap at
every step, so it is slow, but it is the textbook form of the recursion:
the engine must reproduce its values exactly.  ``integer_recursion`` is that
fraction-free loop on Python ints, which the library ran before its residue
engine (and, on mpmath reals, for float-typed weights until they too moved
onto the engine at their dyadic values); the engine's scaled integers must
equal its own.

``reference_euler_series`` is the Euler transform loop that ``euler_series``
ran before every partial-sum series went through one generic transform:
an inner sum over k = m..2 per order, with no k = 1 term and no early exit
at t = 0.  ``euler_series`` and ``taylor_partial_sums`` must match it bit
for bit in the exact domain.  ``euler_transform_generic`` lists every
partial sum of the library's integer core ``euler._transform`` at once, as
reduced ``Fraction``s.  ``reference_transform`` is the generic transform
loop that ran before the core moved onto integers over one common
denominator; it reduces a ``Fraction`` at every inner-sum term, and on
``Fraction`` inputs the integer loop must return the same values.  A
float-domain series equals ``round_to_nearest`` of it, taken on the exact
values of the table's d_q and c.
``pascal_transform`` is the integer loop of ``euler._transform`` before it
took the Euler means of the Taylor numerators: it builds the inner sums by
Pascal rows, O(M^2) integer steps.  Every order a series reads must equal
its entry.  ``bisect_classify`` is ``euler.convergence_classify`` as it
bisected the spectrum on ``Fraction`` keys; the integer bisection must give
the same report and raise the same errors.
``euler_series_t_minus_one`` evaluates the t = -1, zeta = -1 case by its own
formula, as an independent reference for the general transform.

``reference_erdos_renyi`` is the generator that ``graph.erdos_renyi`` ran
before it drew all pairs at once in numpy: one scalar splitmix64 step per
pair, and the edge list through ``build_graph``.  The vectorised draws must
give the same graph, with the same cached degrees and integer weights.

``round_to_nearest`` rounds a rational to a given number of significand bits
with integer arithmetic alone, the reference for values that a float domain
rounds once from an exact one.

``reference_residual`` sums max_k ||M v_k - lambda_k v_k||_2 in Python
floats, one row at a time, as a cross-check for the numpy residual that
``eigen.symmetric_eigen`` reports at 53 bits.  ``eigsy_eigenvalues`` is
``mpmath.eigsy`` (Householder tridiagonalisation and implicit QL), which
``symmetric_eigen`` ran above 53 bits before it refined a float64 start in
exact arithmetic; at three times the precision it is the reference for the
refined eigenvalues.

``reference_contour_eigenvalue`` is the contour integral that
``almost_regular.contour_eigenvalue`` ran before it took the walk generating
function as the rational P/Q of the exact walk counts and summed half the
circle: it builds f(z) = sum_k (v_k)_1^2 / (1 - lambda_k z) from the 128-bit
eigenvectors and sums every quadrature point.  It shares neither the walk
counts nor the half-circle sum with the library, so it cross-checks both.

``explicit_c2_c3_c4`` gives c2..c4 from the paper's closed neighbour-sum
formulas, and ``cm_recursion`` the c_m of a one-high-degree-node graph from
the beta recursion specialised to its constant degree gap.  Neither shares
code with ``perturb.coefficients`` or with the closed form
``almost_regular.cm_closed_form``, so each cross-checks both.
``closed_form_table`` fills a whole coefficient table from that closed
form, the paper's explicit series for almost-regular graphs, so that its
Taylor and Euler sums can be checked against those of the engine's table.
Every table built here, like one from the engine, stores only its exact
values, put over their lcm by ``exact_table``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import comb, inf, isfinite, lcm, sqrt
from operator import mul

import mpmath

from lap_perturb.almost_regular import (
    AlmostRegularGraph,
    ContourError,
    ContourResult,
    chc_build,
    cm_closed_form,
)
from lap_perturb.domain import NumberDomain, _exact_value, _over_lcm, exact_domain, to_mpf
from lap_perturb.eigen import accuracy_alpha, symmetric_eigen
from lap_perturb.euler import ConvergenceReport, EulerParams, _numerator, _transform
from lap_perturb.graph import Graph, build_graph, closed_walk_counts, degree_profile
from lap_perturb.perturb import (
    CoefficientTable,
    NonUniqueDegreeError,
    SeriesEvaluation,
    default_domain,
)


def pascal_row(m: int) -> list:
    """Row m of Pascal's triangle: [C(m, 0), ..., C(m, m)], exact integers."""
    return [comb(m, k) for k in range(m + 1)]


def exact_table(q: int, K: int, d_q, c, domain: NumberDomain) -> CoefficientTable:
    """The table of d_q and c_2..c_K in ``domain``, stored as their exact values over their lcm.

    Each value, an int, Fraction, float or mpf, counts at its exact value;
    NaN or an infinity raises the ValueError of ``_integer_ratio``.
    """
    return CoefficientTable(q, K, domain, (_exact_value(d_q), *_over_lcm(c)))


def reference_coefficients(g: Graph, q: int, K: int) -> tuple:
    """(coefficient table, beta rows) via the beta recursion around the unique degree d_q.

    beta_1r = a_rq / (d_q - d_r) and, for j > 1,

        beta_jr = (sum_{l != q} beta_{j-1,l} a_rl
                   - sum_{k=1}^{j-2} beta_kr c_{j-k}) / (d_q - d_r),

    where the c convolution reuses c_m = sum_{l != q} beta_{m-1,l} a_ql, in
    ``Fraction``s.  Rows and coefficients are produced interleaved: beta_1,
    c_2, beta_2, c_3, ..., beta_K.  The rows are those ``perturb.beta_rows``
    gives.
    """
    if K < 2:
        raise ValueError("K must be at least 2")
    profile = degree_profile(g)
    if q not in profile.unique_nodes:
        raise NonUniqueDegreeError(f"node {q} does not have a unique degree")
    domain = exact_domain()

    with domain.context():
        a = [[domain.coerce(w) for w in row] for row in g.weights]
        d = g.degrees
        n = g.n
        qi = q - 1
        others = [r for r in range(n) if r != qi]
        d_q = domain.coerce(d[qi])
        zero = d_q * 0
        inv_gap = [zero] * n
        for r in others:
            inv_gap[r] = 1 / domain.coerce(d[qi] - d[r])

        beta_rows = []
        c = {}
        row1 = [zero] * n
        for r in others:
            row1[r] = a[r][qi] * inv_gap[r]
        beta_rows.append(row1)
        c[2] = sum(row1[r] * a[qi][r] for r in others)

        for j in range(2, K + 1):
            prev = beta_rows[j - 2]
            row = [zero] * n
            for r in others:
                s = sum(prev[l] * a[r][l] for l in others)
                for k in range(1, j - 1):
                    s -= beta_rows[k - 1][r] * c[j - k]
                row[r] = s * inv_gap[r]
            beta_rows.append(row)
            if j + 1 <= K:
                c[j + 1] = sum(row[r] * a[qi][r] for r in others)

        table = exact_table(q, K, d_q, [c[j] for j in range(2, K + 1)], domain)
        return table, tuple(tuple(row) for row in beta_rows)


def integer_recursion(a, qi: int, m: dict, K: int) -> tuple:
    """The fraction-free beta recursion on the integer weights a, in Python ints; returns (C, B).

    With a multiplier m_r for each r != q,

        B_1r = m_r a_rq,
        B_jr = m_r (sum_{l != q} B_{j-1,l} a_rl - sum_{k=1}^{j-2} B_kr C_{j-k}),
        C_j  = sum_{r != q} B_{j-1,r} a_qr,

    C lists C_2..C_K and B the rows B_1..max(K, 1), with B_jq = 0.  Every sum
    walks neighbour lists.
    """
    n = len(a)
    # per row r, the pairs (l, a_rl) with a_rl != 0 and l != q, in node order
    nbrs = [[(l, w) for l, w in enumerate(row) if w != 0 and l != qi] for row in a]
    prev = [0] * n
    for r in m:
        prev[r] = m[r] * a[r][qi]
    cols = {r: [prev[r]] for r in m}  # cols[r] = [B_1r, ..., B_jr]
    B = [prev]
    C = []  # C_2, C_3, ...
    for j in range(2, K + 1):
        # prev is row B_{j-1}; C holds C_2..C_{j-1}, so conv pairs with B_1r..B_{j-2,r}
        conv = [-x for x in reversed(C)]
        C.append(sum(prev[l] * w for l, w in nbrs[qi]))
        row = [0] * n
        for r in m:
            s = sum(prev[l] * w for l, w in nbrs[r])
            row[r] = m[r] * sum(map(mul, cols[r], conv), s)  # map stops at len(conv)
            cols[r].append(row[r])
        B.append(row)
        prev = row
    return C, B


def euler_transform_generic(f0, coeffs, t, z, M: int) -> list:
    """Partial sums of the Euler t-transform of f0 + sum_k f_k z^k, by ``euler._transform``.

    ``coeffs`` supplies f_1..f_M; the result list has M + 1 ``Fraction``s,
    entry m being the transform truncated after the m-th outer term (entry
    0 = f0).  Each input, an int, Fraction, float or mpf, is taken at its
    exact value; NaN or inf raises ValueError.  Each entry is reduced once.
    """
    fs = list(coeffs)
    if len(fs) < M:
        raise ValueError(f"need {M} coefficients, got {len(fs)}")
    f0, H, x, den, step = _transform(f0, *_over_lcm(fs[:M]), t, z)
    partials = [f0]
    for m in range(1, M + 1):
        partials.append(f0 + Fraction(_numerator(H, x, m), den))
        den *= step
    return partials


def reference_transform(f0, coeffs, t, z, M: int) -> list:
    """Partial sums of the Euler t-transform of f0 + sum_k f_k z^k.

    ``coeffs`` supplies f_1..f_M; the result list has M + 1 entries, entry m
    being the transform truncated after the m-th outer term (entry 0 = f0).
    With t = 0 the m-th inner sum collapses to f_m, giving plain partial sums
    in O(M) operations.
    """
    fs = list(coeffs)
    if len(fs) < M:
        raise ValueError(f"need {M} coefficients, got {len(fs)}")
    denom = 1 + t * z
    if denom == 0:
        raise ValueError("singular transform: 1 + t*z = 0")
    w = z / denom
    partials = [f0]
    acc = f0
    wpow = 1
    for m in range(1, M + 1):
        wpow = wpow * w
        row = pascal_row(m - 1)
        tpow = 1
        inner = None
        for k in range(m, 0, -1):
            term = row[k - 1] * tpow * fs[k - 1]
            inner = term if inner is None else inner + term
            tpow = tpow * t
            if tpow == 0:  # t = 0: the remaining terms are all zero
                break
        acc = acc + inner * wpow
        partials.append(acc)
    return partials


def pascal_transform(f0, coeffs, t, z, M: int) -> list:
    """Partial sums 0..M of the Euler t-transform of f0 + sum_k f_k z^k, by Pascal rows on integers.

    The integer loop that ``euler._transform`` ran before it took the Euler
    means of the Taylor numerators.  Each input is taken at its exact value;
    with f_k = F_k / L over the lcm L of their denominators, t = a/b and
    z/(1 + t z) = p/s, the m-th inner sum is S_m / (L b^(m-1)) for

        S_m = sum_k C(m-1, k-1) a^(m-k) G_k,   G_k = F_k b^(k-1),

    the head of the row G after m - 1 Pascal steps r_i <- a r_i + r_(i+1),
    and partial sum m is f0 + N_m / (L s (b s)^(m-1)) with
    N_m = N_(m-1) b s + S_m p^m.  O(M^2) integer steps.
    """
    fs = list(coeffs)
    if len(fs) < M:
        raise ValueError(f"need {M} coefficients, got {len(fs)}")
    f0, t, z = map(_exact_value, (f0, t, z))
    fs = [_exact_value(f) for f in fs[:M]]
    denom = 1 + t * z
    if denom == 0:
        raise ValueError("singular transform: 1 + t*z = 0")
    w = z / denom
    a, b = t.numerator, t.denominator
    p, s = w.numerator, w.denominator
    L = lcm(*(f.denominator for f in fs))
    G, bpow = [], 1
    for f in fs:
        G.append(f.numerator * (L // f.denominator) * bpow)
        bpow *= b
    partials, num, ppow, den, row = [f0], 0, 1, L * s, G
    for _ in fs:
        ppow *= p
        num = num * b * s + row[0] * ppow
        partials.append(f0 + Fraction(num, den))
        den *= b * s
        row = [a * x + y for x, y in zip(row, row[1:])]
    return partials


def bisect_classify(series: SeriesEvaluation, oracle_eigenvalues, alpha_threshold: float = -4.0,
                    K_check: int = 30) -> ConvergenceReport:
    """``euler.convergence_classify`` as it bisected on ``Fraction`` keys.

    Each eigenvalue it visits becomes its exact ``Fraction``; the nearer of
    the last eigenvalue above xi (at the first index of its value) and the
    first at or below it is matched, the larger on an exact tie.
    """
    mus = list(oracle_eigenvalues)
    if not mus:
        raise ValueError("oracle spectrum is empty")
    if not all(mu == mu and abs(mu) != inf for mu in mus):  # mu == mu fails for NaN
        raise ValueError("oracle eigenvalues must be finite")
    if any(mus[i] < mus[i + 1] for i in range(len(mus) - 1)):
        raise ValueError("oracle eigenvalues must be sorted descending")
    if not isfinite(alpha_threshold):
        raise ValueError(f"alpha threshold must be finite, not {alpha_threshold}")
    if K_check not in series.partial_sums:
        raise ValueError(f"series has no partial sum at K = {K_check}")

    xi = series.partial_sums[K_check]
    x = _exact_value(xi)
    key = lambda mu: -_exact_value(mu)  # ascending along the descending spectrum
    below = bisect_left(mus, -x, key=key)  # mus[:below] > x >= mus[below:]
    candidates = []
    if below > 0:  # the first index of the least eigenvalue above x
        candidates.append(bisect_left(mus, key(mus[below - 1]), hi=below, key=key))
    if below < len(mus):
        candidates.append(below)
    best = min(candidates, key=lambda i: abs(x - _exact_value(mus[i])))  # a tie: the first
    alpha = accuracy_alpha(xi, mus[best])
    return ConvergenceReport(
        q=series.q, kind=series.kind, t=series.t, zeta=series.zeta, matched_mu=mus[best],
        matched_index=best + 1, alpha=alpha, alpha_threshold=alpha_threshold, K_check=K_check,
        converged=alpha <= alpha_threshold,
    )


def _inner_weight_sums(coeff_at, t, K_max: int):
    """Yield (m, sum_{k=2}^m C(m-1, k-1) t^(m-k) c_k) for m = 2..K_max."""
    for m in range(2, K_max + 1):
        row = pascal_row(m - 1)
        tpow = 1
        inner = None
        for k in range(m, 1, -1):  # t^(m-k) built incrementally from k = m down
            term = row[k - 1] * tpow * coeff_at(k)
            inner = term if inner is None else inner + term
            tpow = tpow * t
        yield m, inner


def reference_euler_series(table: CoefficientTable, params: EulerParams) -> SeriesEvaluation:
    """Euler t-transform partial sums of the coefficient table's series.

    For zeta = -1 the weight (zeta/(1 + t*zeta))^m reduces to (1/(t-1))^m;
    the generic form is evaluated either way, and stays exact for rational
    t, zeta, and coefficients.
    """
    if params.K_max > table.K:
        raise ValueError(f"K_max = {params.K_max} exceeds table order {table.K}")
    domain = table.domain
    with domain.context():
        t = domain.coerce(params.t)
        zeta = domain.coerce(params.zeta)
        denom = 1 + t * zeta
        if denom == 0:
            raise ValueError("singular transform: 1 + t*zeta = 0")
        w = zeta / denom
        sums = {}
        acc = table.d_q
        wpow = w  # w^1
        for m, inner in _inner_weight_sums(table.c_at, t, params.K_max):
            wpow = wpow * w
            acc = acc + inner * wpow
            sums[m] = acc
        return SeriesEvaluation(
            q=table.q, zeta=zeta, kind="euler", partial_sums=sums, t=t
        )


def euler_series_t_minus_one(table: CoefficientTable, K_max: int) -> SeriesEvaluation:
    """Independent evaluation of the t = -1, zeta = -1 special case.

    Computes d_q + sum_m ( sum_k C(m-1, k-1) (-1)^k c_k ) / 2^m directly;
    kept as a second code path so the general transform can be checked
    bit-for-bit against it in exact mode.
    """
    if K_max > table.K:
        raise ValueError(f"K_max = {K_max} exceeds table order {table.K}")
    domain = table.domain
    with domain.context():
        sums = {}
        acc = table.d_q
        for m in range(2, K_max + 1):
            row = pascal_row(m - 1)
            inner = sum(row[k - 1] * (-1) ** k * table.c_at(k) for k in range(2, m + 1))
            if domain.is_exact:
                acc = acc + Fraction(1, 2**m) * inner
            else:
                acc = acc + inner / (domain.coerce(2) ** m)
            sums[m] = acc
        return SeriesEvaluation(
            q=table.q, zeta=domain.coerce(-1), kind="euler", partial_sums=sums,
            t=domain.coerce(-1),
        )


def explicit_c2_c3_c4(g: Graph, q: int, domain: NumberDomain | None = None) -> tuple:
    """c2, c3, c4 from the closed neighbor-sum formulas (independent of the recursion).

    c2 sums squared weights over reciprocal degree gaps; c3 runs over
    mutually connected neighbor pairs of q; c4 adds the triple neighbor sum
    minus a squared-gap correction.  Matches ``coefficients`` exactly in
    rational arithmetic.
    """
    profile = degree_profile(g)
    if q not in profile.unique_nodes:
        raise NonUniqueDegreeError(f"node {q} does not have a unique degree")
    if domain is None:
        domain = default_domain(g)

    with domain.context():
        a = [[domain.coerce(w) for w in row] for row in g.weights]
        d = [sum(row) for row in a]
        n = g.n
        qi = q - 1
        others = [r for r in range(n) if r != qi]
        inv = {r: 1 / (d[qi] - d[r]) for r in others}

        c2 = sum(a[r][qi] ** 2 * inv[r] for r in others)
        inner = {
            r: sum(a[k][qi] * a[k][r] * inv[k] for k in others)
            for r in others
        }
        c3 = sum(a[r][qi] * inv[r] * inner[r] for r in others)
        triple = sum(
            a[r][qi] * inv[r] * sum(a[r][l] * inv[l] * inner[l] for l in others)
            for r in others
        )
        c4 = triple - sum(a[r][qi] ** 2 * inv[r] ** 2 for r in others) * c2
        return c2, c3, c4


def cm_recursion(arg: AlmostRegularGraph, K: int) -> tuple:
    """c_2..c_K by the specialized beta recursion with the constant gap x.

    Iterates, for l != 1,

        beta_jl = ( sum_{m != 1} beta_{j-1,m} a_lm
                    - sum_m a_1m sum_{k=1}^{j-2} beta_kl beta_{j-k-1,m} ) / x,

    from beta_1l = a_l1 / x, and reads off c_{j+1} = sum_l beta_jl a_1l.
    Independent of the general engine; used to cross-check the closed form.
    """
    if K < 2:
        raise ValueError("K must be at least 2")
    g = arg.graph
    n = g.n
    a = [[Fraction(w) for w in row] for row in g.weights]
    x = Fraction(arg.x)
    others = list(range(1, n))

    beta = []  # beta[j-1][l] for l in 0..n-1 with slot 0 unused (kept 0)
    row1 = [Fraction(0)] * n
    for l in others:
        row1[l] = a[l][0] / x
    beta.append(row1)
    c = {2: sum(row1[l] * a[0][l] for l in others)}

    for j in range(2, K):
        prev = beta[j - 2]
        row = [Fraction(0)] * n
        for l in others:
            s = sum(prev[m] * a[l][m] for m in others)
            for m in others:
                if a[0][m] == 0:
                    continue
                conv = sum(beta[k - 1][l] * beta[j - k - 2][m] for k in range(1, j - 1))
                s -= a[0][m] * conv
            row[l] = s / x
        beta.append(row)
        c[j + 1] = sum(row[l] * a[0][l] for l in others)
    return tuple(c[j] for j in range(2, K + 1))


def closed_form_table(arg: AlmostRegularGraph, K: int) -> CoefficientTable:
    """The closed-form c_2..c_K at the special node as an exact coefficient table.

    Each c_m is ``cm_closed_form`` over the ``chc_build`` table of the exact
    walk counts, and d_q = r + x; O(K^3) ``Fraction`` operations.
    """
    if K < 2:
        raise ValueError("K must be at least 2")
    chc = chc_build(closed_walk_counts(arg.graph, arg.special, K), K)
    return exact_table(arg.special, K, arg.r + arg.x,
                       [cm_closed_form(arg, chc, m) for m in range(2, K + 1)], exact_domain())


_SM64_MASK = (1 << 64) - 1


def _splitmix64(state: int) -> tuple:
    """One step of the splitmix64 generator; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _SM64_MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _SM64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _SM64_MASK
    z ^= z >> 31
    return state, z


def reference_erdos_renyi(n: int, p, seed: int) -> Graph:
    """G(n, p) by one scalar splitmix64 step per pair (u, v), u < v in lexicographic order."""
    p = Fraction(p)
    if not (0 <= p <= 1):
        raise ValueError("p must lie in [0, 1]")
    threshold = int(p * (1 << 64))
    state = seed & _SM64_MASK
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            state, z = _splitmix64(state)
            if z < threshold:
                edges.append((u, v))
    return build_graph(n, edges)


def round_to_nearest(x: Fraction, bits: int) -> Fraction:
    """x rounded to the nearest value m 2^e with |m| < 2^bits, ties to even m."""
    if x == 0:
        return x
    p, q = abs(x.numerator), x.denominator
    e = p.bit_length() - q.bit_length() - bits  # p / (q 2^e) lies in [2^(bits-1), 2^(bits+1))
    if Fraction(p, q) >= Fraction(2) ** (e + bits):
        e += 1
    m = round(Fraction(p, q) / Fraction(2) ** e)  # Fraction.__round__ ties to even
    return (1 if x > 0 else -1) * m * Fraction(2) ** e


def reference_residual(matrix, spectrum) -> float:
    """max_k ||M v_k - lambda_k v_k||_2 of a 53-bit spectrum, summed term by term in Python.

    A non-finite column sum of squares raises RuntimeError.
    """
    rows = [[float(x) for x in row] for row in matrix]
    n = len(rows)
    worst = 0.0
    for lam, col in zip(spectrum.eigenvalues, spectrum.eigenvectors):
        acc = 0.0
        for i in range(n):
            ri = sum(rows[i][j] * col[j] for j in range(n)) - lam * col[i]
            acc += ri * ri
        if not acc < inf:  # also NaN, which max() would read as 0
            raise RuntimeError("non-finite eigenvector residual")
        worst = max(worst, acc)
    return sqrt(worst)


def eigsy_eigenvalues(matrix, precision_bits: int) -> list:
    """Eigenvalues of a symmetric matrix by ``mpmath.eigsy`` at ``precision_bits``, descending.

    Each entry is rounded once to that precision first.
    """
    with mpmath.workprec(precision_bits):
        values = mpmath.eigsy(mpmath.matrix([[to_mpf(x) for x in row] for row in matrix]),
                              eigvals_only=True)
        return sorted((values[k] for k in range(len(matrix))), reverse=True)


def reference_contour_eigenvalue(
    arg: AlmostRegularGraph,
    zeta,
    radius=None,
    quad_points: int = 512,
    precision_bits: int = 128,
    rel_tol=1e-10,
    max_points: int = 2**14,
) -> ContourResult:
    """The contour integral of ``contour_eigenvalue`` over the spectral sum, every point summed:

        d_q + (zeta / (2 pi r)) * integral e^{-i theta}
              log(1 - zeta e^{-i theta} / (x r f(r e^{i theta}))) d theta,

    where f(z) = sum_k ((v_k)_1)^2 / (1 - lambda_k z) is the closed-walk
    generating function at node 1, from the adjacency spectral decomposition.
    Same arguments, checks and errors as the library function.
    """
    if quad_points < 4 or quad_points & (quad_points - 1) != 0:
        raise ValueError("quad_points must be a power of two, at least 4")
    if not quad_points < max_points:
        raise ValueError(f"quad_points = {quad_points} must be below max_points = {max_points}")
    if not 2.0 ** (10 - precision_bits) <= rel_tol:
        raise ValueError(f"precision_bits = {precision_bits} is too coarse for rel_tol = {rel_tol}")
    if radius is not None and not radius > 0:
        raise ValueError(f"radius must be positive, not {radius}")
    g = arg.graph
    with mpmath.workprec(precision_bits):
        spec = symmetric_eigen(g.weights, precision_bits=precision_bits)
        lam = [to_mpf(v) for v in spec.eigenvalues]
        wts = [to_mpf(col[0]) ** 2 for col in spec.eigenvectors]
        lam1 = lam[0]
        if lam1 <= 0:
            raise ContourError("adjacency spectral radius must be positive")
        pole = 1 / lam1
        r = to_mpf(radius) if radius is not None else pole / 2
        if not 0 < r < pole:
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

        def f_gen(zz):
            return sum(w / (1 - lv * zz) for w, lv in zip(wts, lam))

        def integrand(theta):
            zz = r * mpmath.expjpi(2 * theta)  # theta in turns: e^{2 pi i theta}
            fval = f_gen(zz)
            ratio = z / (x * zz * fval)
            if abs(ratio) >= 1:
                raise ContourError(
                    f"branch condition violated on the contour: |zeta/(x z f(z))| = "
                    f"{mpmath.nstr(abs(ratio), 8)} >= 1"
                )
            return mpmath.conj(mpmath.expjpi(2 * theta)) * mpmath.log(1 - ratio)

        P = quad_points
        total = sum(integrand(mpmath.mpf(i) / P) for i in range(P))
        value = d_q + (z / (r * P)) * total.real
        while True:
            odd = sum(integrand(mpmath.mpf(2 * i + 1) / (2 * P)) for i in range(P))
            total = total + odd
            P *= 2
            new_value = d_q + (z / (r * P)) * total.real
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
