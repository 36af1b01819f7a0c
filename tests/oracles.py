"""Reference implementations kept only as test oracles.

``reference_coefficients`` is the plain beta recursion that
``perturb.coefficients`` ran before its exact branch became a fraction-free
integer recursion and its float branch began to walk neighbour lists.  In
the exact domain it divides ``Fraction``s by every degree gap at every step,
so it is slow, but it is the textbook form of the recursion: both branches
of the engine must reproduce its values exactly (in a float domain, bit for
bit at the same precision).
"""

from __future__ import annotations

from lap_perturb.domain import NumberDomain, exact_domain
from lap_perturb.graph import Graph, degree_profile
from lap_perturb.perturb import CoefficientTable, NonUniqueDegreeError


def reference_coefficients(g: Graph, q: int, K: int,
                           domain: NumberDomain | None = None) -> CoefficientTable:
    """Coefficient table via the beta recursion around the unique degree d_q.

    beta_1r = a_rq / (d_q - d_r) and, for j > 1,

        beta_jr = (sum_{l != q} beta_{j-1,l} a_rl
                   - sum_{k=1}^{j-2} beta_kr c_{j-k}) / (d_q - d_r),

    where the c convolution reuses c_m = sum_{l != q} beta_{m-1,l} a_ql.
    Rows and coefficients are produced interleaved: beta_1, c_2, beta_2,
    c_3, ..., beta_K.
    """
    if K < 2:
        raise ValueError("K must be at least 2")
    profile = degree_profile(g)
    if q not in profile.unique_nodes:
        raise NonUniqueDegreeError(f"node {q} does not have a unique degree")
    if domain is None:
        domain = exact_domain()

    with domain.context():
        a = [[domain.coerce(w) for w in row] for row in g.weights]
        d = [sum(row) for row in a]
        n = g.n
        qi = q - 1
        others = [r for r in range(n) if r != qi]
        zero = d[qi] * 0
        inv_gap = [zero] * n
        for r in others:
            inv_gap[r] = 1 / (d[qi] - d[r])

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

        return CoefficientTable(
            q=q,
            K=K,
            d_q=d[qi],
            c=tuple(c[j] for j in range(2, K + 1)),
            beta=tuple(tuple(row) for row in beta_rows),
            domain=domain,
        )
