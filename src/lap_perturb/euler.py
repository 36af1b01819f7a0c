"""Partial sums of the degree-perturbation series, Euler summation and convergence diagnostics.

The Euler t-transform rewrites a Taylor series f0 + sum f_k z^k as

    f0 + sum_m [ sum_k C(m-1, k-1) f_k t^(m-k) ] (z / (1 + t z))^m,

with a tunable parameter t; it often converges where the plain series does
not.  At t = 0 it is the plain Taylor series, so ``_transform`` is the one
loop behind every partial-sum series in the package, and besides the public
``euler_transform_generic`` it has one caller, ``_table_series``: the Taylor
and Euler series of a coefficient table, whether the table comes from the
recursion or from the almost-regular closed form, and the four-term estimate.

The core takes every input at its exact rational value (a
finite float or mpf real is a dyadic rational) and runs on integers: with
the f_k over their common denominator, t = a/b and z/(1 + t z) = p/s, each
partial sum is f0 plus one integer ratio.  Each table is summed on its exact
coefficients (or the exact values of its stored ones) at the exact zeta and
t.  A series makes each partial sum only when it is read: the exact domain
reduces it to a ``Fraction`` then, and a float domain rounds it once, from
the unreduced ratio, at the table's precision.  ``convergence_classify``
reads one of them and finds the nearest eigenvalue by bisection.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, isfinite, lcm

from .domain import NumberDomain, _exact_value, _rounded_ratio
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


class _PartialSums(Mapping):
    """Partial sums of orders 2..K_max of one transform, each made on its first read.

    A read of order m gives f0 + num / den with num = nums[m - 1] and
    den = den0 * step^(m - 1): the exact domain returns it as a reduced
    ``Fraction``, a float domain rounds the unreduced ratio once, to
    nearest, at its precision (the same value as rounding the ``Fraction``).
    """

    def __init__(self, core: tuple, K_max: int, domain: NumberDomain) -> None:
        self._f0, self._nums, self._den0, self._step = core
        self._orders = range(2, K_max + 1)
        self._domain = domain
        self._cache = {}

    def __getitem__(self, K):
        if K in self._cache:
            return self._cache[K]
        if K not in self._orders:
            raise KeyError(K)
        f0, num, den = self._f0, self._nums[K - 1], self._den0 * self._step ** (K - 1)
        if self._domain.is_exact:
            value = f0 + Fraction(num, den)
        else:
            with self._domain.context():
                value = _rounded_ratio(f0.numerator * den + num * f0.denominator,
                                       f0.denominator * den)
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

    The sums run on the exact values of the table's d_q and c (its ``_exact``
    pair when it keeps one) at the exact zeta and t.  ``partial_sums`` makes
    each order on its first read: a reduced ``Fraction`` in the exact domain,
    rounded once in a float domain.
    """
    if K_max > table.K:
        raise ValueError(f"K_max = {K_max} exceeds table order {table.K}")
    domain = table.domain
    d_q, c = table._exact if table._exact is not None else (table.d_q, table.c)
    with domain.context():
        z = domain.coerce(zeta)
        tt = domain.coerce(t)
    sums = _PartialSums(_transform(d_q, (0, *c), t, zeta, K_max), K_max, domain)
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
    exact value; NaN or inf raises ValueError.  See ``_transform`` for the
    integer loop; each entry is reduced once.
    """
    f0, nums, den, step = _transform(f0, coeffs, t, z, M)
    partials = [f0]
    for num in nums:
        partials.append(f0 + Fraction(num, den))
        den *= step
    return partials


def _transform(f0, coeffs, t, z, M: int) -> tuple:
    """The Euler t-transform of f0 + sum_{k<=M} f_k z^k on integers: (f0, nums, den0, step).

    Partial sum m (1 <= m <= M) is f0 + nums[m - 1] / (den0 * step^(m - 1)),
    unreduced; f0 is the exact value of the input.  With f_k = F_k / L over
    the lcm L of their denominators, t = a/b and w = z/(1 + t z) = p/s, the
    m-th inner sum is S_m / (L b^(m-1)) for the integer

        S_m = sum_k C(m-1, k-1) a^(m-k) G_k,   G_k = F_k b^(k-1),

    so den0 = L s, step = b s and nums[m - 1] = N_m with
    N_m = N_(m-1) b s + S_m p^m.  S_m is the head of the row G after m - 1
    Pascal steps r_i <- a r_i + r_(i+1); at a = 0 (the Taylor series) it is
    G_m.
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
    nums, num, ppow, bs = [], 0, 1, b * s
    for S in sums:
        ppow *= p
        num = num * bs + S * ppow
        nums.append(num)
    return f0, nums, L * s, bs


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
    on exact values for the last eigenvalue above xi and the first at or
    below it, and matches the nearer of the two (the first, larger one on an
    exact tie, and the first index of a repeated value).  Raises ValueError
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
