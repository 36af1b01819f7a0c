"""Partial sums of the degree-perturbation series, Euler summation and convergence diagnostics.

The Euler t-transform rewrites a Taylor series f0 + sum f_k z^k as

    f0 + sum_m [ sum_k C(m-1, k-1) f_k t^(m-k) ] (z / (1 + t z))^m,

with a tunable parameter t; it often converges where the plain series does
not.  At t = 0 it is the plain Taylor series, so ``_transform`` is the one
core behind every partial-sum series in the package, and it has one caller,
``_table_series``: the Taylor and Euler series of a coefficient table, from
the recursion or from the almost-regular closed form (a test oracle), and the
four-term estimate.

The core takes every input at its exact rational value (a finite float or
mpf real is a dyadic rational) and runs on integers.  Partial sum m of the
transform is the Euler mean of the Taylor partial sums of orders 0..m, so
with the f_k as integers F_k over one denominator L, t = a/b and
z/(1 + t z) = p/s, it is f0 plus one integer ratio whose numerator is
sum_j C(m, j) (ap)^(m-j) H_j over the Taylor numerators H_j, made once per
series in O(K) products.  Every table stores its exact values as F and L
(``CoefficientTable._exact``), so a series reads none of its rounded d_q or
c_j.  A series makes each partial sum only when it is read, from its
unreduced ratio, by ``NumberDomain.ratio``: the exact domain reduces it to a
``Fraction``, and a float domain rounds it once at the table's precision,
whatever mpmath's working precision is.
``convergence_classify`` reads one of them and finds the nearest eigenvalue
by bisection on integer cross-products.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf, isfinite
from operator import mul

from .domain import NumberDomain, _exact_value, _integer_ratio
from .eigen import accuracy_alpha
from .perturb import CoefficientTable, SeriesEvaluation, coefficients

__all__ = [
    "EulerParams",
    "ConvergenceReport",
    "binomial",
    "euler_series",
    "taylor_partial_sums",
    "euler_k4_estimate",
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


class _PartialSums(Mapping):
    """Partial sums of orders 2..K_max of one transform, each made on its first read.

    A read of order m gives f0 + N_m / (den0 step^(m - 1)), with the Euler-mean
    numerator N_m of ``_numerator``, as one unreduced integer ratio taken into
    the domain by ``NumberDomain.ratio``: a reduced ``Fraction``, or rounded
    once, to nearest, at the domain's precision.
    """

    def __init__(self, core: tuple, K_max: int, domain: NumberDomain) -> None:
        self._f0, self._H, self._x, self._den0, self._step = core
        self._orders = range(2, K_max + 1)
        self._domain = domain
        self._cache = {}

    def __getitem__(self, K):
        if K in self._cache:
            return self._cache[K]
        if K not in self._orders:
            raise KeyError(K)
        f0, num, den = self._f0, _numerator(self._H, self._x, K), self._den0 * self._step ** (K - 1)
        value = self._domain.ratio(f0.numerator * den + num * f0.denominator, f0.denominator * den)
        self._cache[K] = value
        return value

    def __contains__(self, K) -> bool:
        return K in self._orders

    def __iter__(self):
        return iter(self._orders)

    def __len__(self) -> int:
        return len(self._orders)

    def __repr__(self) -> str:
        return repr(dict(self))


def _table_series(table: CoefficientTable, zeta, t, K_max: int, kind: str) -> SeriesEvaluation:
    """Transform partial sums of orders 2..K_max in the table's domain (c_1 = 0).

    The sums run on the table's ``_exact`` integers at the exact zeta and t.
    ``partial_sums`` makes each order on its first read: a reduced
    ``Fraction`` in the exact domain, rounded once in a float domain.  The
    record's zeta and t are the domain's values of the inputs (``coerce``).
    """
    if K_max > table.K:
        raise ValueError(f"K_max = {K_max} exceeds table order {table.K}")
    domain = table.domain
    d_q, F, L = table._exact
    z, tt = domain.coerce(zeta), domain.coerce(t)
    sums = _PartialSums(_transform(d_q, (0, *F[:K_max - 1]), L, t, zeta), K_max, domain)
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


def _transform(f0, F, L: int, t, z) -> tuple:
    """The Euler t-transform of f0 + sum_k (F_k / L) z^k on integers: (f0, H, x, den0, step).

    Partial sum m is f0 + N_m / (den0 step^(m - 1)), unreduced, with N_m from
    ``_numerator``; f0 is the exact value of the input.  With t = a/b and
    w = z/(1 + t z) = p/s, the transform of order m is the Euler mean

        sum_{j=0}^m C(m, j) (t w)^(m-j) (1 - t w)^j sigma_j(z)

    of the Taylor partial sums sigma_j (Hardy, Divergent Series, 1949,
    ch. 8).  Since 1 - t w = (b s - a p) / (b s) and z = b p / (b s - a p),
    it is f0 + N_m / (L b^(m-1) s^m) for the integers

        H_j = H_(j-1) (b s - a p) + G_j p^j,   G_j = F_j b^(j-1),  H_0 = 0,
        N_m = sum_{j=1}^m C(m, j) (a p)^(m-j) H_j,

    so den0 = L s, step = b s and x = a p.  H takes O(len(F)) products; at
    a = 0 (the Taylor series) N_m = H_m.
    """
    f0, t, z = map(_exact_value, (f0, t, z))
    denom = 1 + t * z
    if denom == 0:
        raise ValueError("singular transform: 1 + t*z = 0")
    w = z / denom
    a, b = t.numerator, t.denominator
    p, s = w.numerator, w.denominator
    bs, x = b * s, a * p
    H, h, gp = [], 0, p  # gp = b^(j-1) p^j
    for Fj in F:
        h = h * (bs - x) + Fj * gp
        H.append(h)
        gp *= b * p
    return f0, H, x, L * s, bs


def _numerator(H: list, x: int, m: int) -> int:
    """N_m = sum_{j=1}^m C(m, j) x^(m-j) H_j of ``_transform``; H_m when x = 0."""
    return H[m - 1] if x == 0 else sum(map(mul, _euler_row(x, m), H))


@lru_cache(maxsize=1024)
def _euler_row(x: int, m: int) -> tuple:
    """(C(m, j) x^(m-j) for j = 1..m): the Euler-mean weights of order m, shared by every table."""
    row, c, xp = [], 1, 1
    for j in range(m, 0, -1):  # c = C(m, j), xp = x^(m-j)
        row.append(c * xp)
        c = c * j // (m - j + 1)
        xp *= x
    return tuple(reversed(row))


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of matching a series against an oracle spectrum.

    ``matched_mu`` is the eigenvalue exactly nearest to the partial sum xi
    at ``K_check``, found by bisection in the sorted spectrum (an exact tie
    goes to the first, larger eigenvalue), and ``alpha``
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

    Reads the one partial sum xi at K_check, bisects the descending spectrum
    for the last eigenvalue above xi and the first at or below it, and
    matches the nearer of the two (the first, larger one on an exact tie, and
    the first index of a repeated value).  Every comparison is exact: each
    eigenvalue it visits and xi are integer pairs (``_integer_ratio``),
    compared by cross-multiplication, and no ``Fraction`` is made.  Raises ValueError
    for an empty, unsorted or non-finite spectrum, a non-finite threshold, or
    a series without a partial sum at K_check.
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
    xn, xd = _integer_ratio(xi)
    below, hi = 0, len(mus)  # bisect for mus[:below] > xi >= mus[below:]
    while below < hi:
        mid = (below + hi) // 2
        mn, md = _integer_ratio(mus[mid])
        if mn * xd > xn * md:
            below = mid + 1
        else:
            hi = mid
    best = below
    if below > 0:  # the first index of the least eigenvalue above xi, if it is nearer
        an, ad = _integer_ratio(mus[below - 1])
        above = below - 1
        while above > 0 and _integer_ratio(mus[above - 1]) == (an, ad):
            above -= 1
        if below == len(mus):
            best = above
        else:  # mus[above] - xi <= xi - mus[below], times ad bd xd > 0; a tie goes above
            bn, bd = _integer_ratio(mus[below])
            if (an * xd - xn * ad) * bd <= (xn * bd - bn * xd) * ad:
                best = above
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
