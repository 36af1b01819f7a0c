"""Partial sums of the degree-perturbation series, Euler summation and convergence diagnostics.

The Euler t-transform rewrites a Taylor series f0 + sum f_k z^k as

    f0 + sum_m [ sum_k C(m-1, k-1) f_k t^(m-k) ] (z / (1 + t z))^m,

with a tunable parameter t; it often converges where the plain series does
not.  At t = 0 it is the plain Taylor series, so ``euler_transform_generic``
is the one loop behind every partial-sum series in the package, and
``_table_series`` its one caller: the Taylor and Euler series of a
coefficient table, whether the table comes from the recursion or from the
almost-regular closed form, and the four-term estimate.

The core takes every input at its exact rational value (a finite float or
mpf real is a dyadic rational) and runs on integers: with the f_k over their
common denominator, t = a/b and z/(1 + t z) = p/s, each partial sum is one
integer ratio, reduced once.  Each table is summed on its exact coefficients
(or the exact values of its stored ones) at the exact zeta and t, and a
float domain rounds each partial sum once at the table's precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, isfinite, lcm

from .domain import NumberDomain, _exact_value, to_mpf
from .eigen import accuracy_alpha
from .perturb import CoefficientTable, SeriesEvaluation, coefficients

__all__ = [
    "EulerParams",
    "ConvergenceReport",
    "binomial",
    "euler_series",
    "taylor_partial_sums",
    "euler_k4_estimate",
    "euler_transform_generic",
    "convergence_classify",
]


def binomial(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


@dataclass(frozen=True)
class EulerParams:
    """Tuning parameter t, perturbation parameter zeta, and term count.

    The transform weight z/(1 + t z) must stay finite: 1 + t*zeta == 0 is
    rejected (for zeta = -1 this is exactly t = 1).
    """

    t: object
    zeta: object = -1
    K_max: int = 30

    def __post_init__(self) -> None:
        if self.K_max < 2:
            raise ValueError("K_max must be at least 2")
        if 1 + self.t * self.zeta == 0:
            raise ValueError(f"singular transform: 1 + t*zeta = 0 (t={self.t}, zeta={self.zeta})")


def _table_series(table: CoefficientTable, zeta, t, K_max: int, kind: str) -> SeriesEvaluation:
    """Transform partial sums of orders 2..K_max in the table's domain (c_1 = 0).

    The sums run on the exact values of the table's d_q and c (its ``_exact``
    pair when it keeps one) at the exact zeta and t; a float domain rounds
    each partial sum once.
    """
    if K_max > table.K:
        raise ValueError(f"K_max = {K_max} exceeds table order {table.K}")
    domain = table.domain
    d_q, c = table._exact if table._exact is not None else (table.d_q, table.c)
    with domain.context():
        z = domain.coerce(zeta)
        tt = domain.coerce(t)
        partials = euler_transform_generic(d_q, (0, *c), t, zeta, K_max)[2:]
        if not domain.is_exact:
            partials = map(to_mpf, partials)
        sums = dict(zip(range(2, K_max + 1), partials))
    return SeriesEvaluation(q=table.q, zeta=z, kind=kind, partial_sums=sums,
                            t=tt if kind == "euler" else None)


def taylor_partial_sums(table: CoefficientTable, zeta, K_max: int | None = None) -> SeriesEvaluation:
    """Partial sums d_q + sum_{j=2}^K c_j zeta^j for K = 2..K_max: the transform at t = 0."""
    return _table_series(table, zeta, 0, table.K if K_max is None else K_max, "taylor")


def euler_series(table: CoefficientTable, params: EulerParams) -> SeriesEvaluation:
    """Euler t-transform partial sums of the coefficient table's series.

    For zeta = -1 the weight (zeta/(1 + t*zeta))^m reduces to (1/(t-1))^m;
    the generic form is evaluated either way.
    """
    return _table_series(table, params.zeta, params.t, params.K_max, "euler")


def euler_k4_estimate(g, q: int, domain: NumberDomain | None = None):
    """Four-term eigenvalue estimate d_q + 11 c2/16 - 5 c3/16 + c4/16.

    This is the Euler series at t = zeta = -1 truncated at K = 4, a
    closed-form approximation of the Laplacian eigenvalue nearest to a
    unique degree.
    """
    table = coefficients(g, q, 4, domain)
    return euler_series(table, EulerParams(t=-1, zeta=-1, K_max=4)).at(4)


def euler_transform_generic(f0, coeffs, t, z, M: int) -> list:
    """Partial sums of the Euler t-transform of f0 + sum_k f_k z^k.

    ``coeffs`` supplies f_1..f_M; the result list has M + 1 ``Fraction``s,
    entry m being the transform truncated after the m-th outer term (entry
    0 = f0).  Each input, an int, Fraction, float or mpf, is taken at its
    exact value; NaN or inf raises ValueError.

    With f_k = F_k / L over the lcm L of their denominators, t = a/b and
    w = z/(1 + t z) = p/s, the m-th inner sum is S_m / (L b^(m-1)) for the
    integer

        S_m = sum_k C(m-1, k-1) a^(m-k) G_k,   G_k = F_k b^(k-1),

    and the m-th partial sum is f0 + N_m / (L b^(m-1) s^m) with
    N_m = N_(m-1) b s + S_m p^m.  S_m is the head of the row G after m - 1
    Pascal steps r_i <- a r_i + r_(i+1); at a = 0 (the Taylor series) it is
    G_m.  Only the returned value of each order becomes a (reduced)
    ``Fraction``.
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
    if a == 0:
        sums = G
    else:
        sums, row = [], G
        for _ in fs:
            sums.append(row[0])
            row = [a * x + y for x, y in zip(row, row[1:])]
    partials = [f0]
    num, den, ppow, bs = 0, L * s, 1, b * s
    for S in sums:
        ppow *= p
        num = num * bs + S * ppow
        partials.append(f0 + Fraction(num, den))
        den *= bs
    return partials


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of matching a series against an oracle spectrum.

    ``matched_mu`` is the eigenvalue nearest to the partial sum xi at
    ``K_check`` (ties resolved toward the larger eigenvalue), and ``alpha``
    is log10 |xi - matched_mu| there, the value ``converged`` follows from.
    The accuracy at any other order K is
    ``accuracy_alpha(series.at(K), report.matched_mu)``.
    """

    q: int
    kind: str
    t: object
    zeta: object
    matched_mu: object
    matched_index: int
    alpha: float
    alpha_threshold: float
    K_check: int
    converged: bool


def convergence_classify(
    series: SeriesEvaluation,
    oracle_eigenvalues,
    alpha_threshold: float = -4.0,
    K_check: int = 30,
) -> ConvergenceReport:
    """Classify a series as converged iff alpha at K_check <= alpha_threshold.

    Raises ValueError for an empty, unsorted or non-finite spectrum, a
    non-finite threshold, or a series without a partial sum at K_check.
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
    x = _exact_value(xi)  # the exactly nearest eigenvalue; a tie goes to the first, larger one
    best = min(range(len(mus)), key=lambda i: abs(x - _exact_value(mus[i])))
    alpha = accuracy_alpha(xi, mus[best])
    return ConvergenceReport(
        q=series.q,
        kind=series.kind,
        t=series.t,
        zeta=series.zeta,
        matched_mu=mus[best],
        matched_index=best + 1,
        alpha=alpha,
        alpha_threshold=alpha_threshold,
        K_check=K_check,
        converged=alpha <= alpha_threshold,
    )
