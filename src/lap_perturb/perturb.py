"""Perturbation coefficients of eigenvalues of diag(d) + zeta*A around a unique degree.

For a node q whose (weighted) degree no other node shares, the eigenvalue of
the matrix diag(degrees) + zeta * weights branching from d_q is an analytic
function of zeta.  This module computes its Taylor coefficients c_j(q) and
the eigenvector expansion coefficients beta_jr by recursion (the one
coefficient engine of the package), checks walk-count bounds on them, and
defines ``SeriesEvaluation``, the record of partial sums that the series in
``euler`` and ``almost_regular`` return.  The closed neighbour-sum formulas
for c2..c4 live in ``tests/oracles.py`` as an independent cross-check.

Every table runs the recursion on scaled integers, in every domain and for
every weight type: a float or mpf weight counts as its exact dyadic value.
A table stores only its exact values, as integers over one denominator,
which the series in ``euler`` sum; its d_q and c_j enter the domain on
first read (``NumberDomain.ratio``), rounded once at the domain's own
precision whatever mpmath's working precision is.  The graph reads the
integer weights once (``Graph._weight_array``), and ``_residue_recursion``
runs the recursion on them modulo primes below 2^26, one vectorised int64
step per order for a sweep's nodes (``_stack``), then rebuilds each value by
the Chinese remainder theorem (Garner 1959; Knuth, TAOCP vol. 2, 4.3.2).  No
series reads beta, so the table holds only d_q and the c_j; ``beta_rows``
gives the beta rows of the same recursion, and ``reconstruct_eigenvector``
sums them.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from itertools import accumulate
from math import gcd, inf, isqrt, lcm, log2, prod
from operator import itemgetter, mul

import numpy as np

from .domain import (
    NumberDomain,
    _rational,
    exact_domain,
    float_domain,
    format_rational,
)
from .graph import Graph, closed_walk_counts, degree_profile

__all__ = [
    "NonUniqueDegreeError",
    "CoefficientTable",
    "SeriesEvaluation",
    "default_domain",
    "coefficients",
    "coefficient_bounds_ok",
    "CoefficientBoundsReport",
    "beta_rows",
    "reconstruct_eigenvector",
    "coefficient_table_to_json",
]


class NonUniqueDegreeError(ValueError):
    """The expansion node's degree is shared by another node."""


@dataclass(frozen=True)
class CoefficientTable:
    """Perturbation coefficients c_2..c_K for one node: what the series read.

    The table stores its exact values in ``_exact`` = (d_q, F, L): d_q a
    ``Fraction`` and the integers F[j - 2] / L = c_j over L, the lcm of their
    reduced denominators, which the series in ``euler`` sum.  ``d_q`` and
    ``c`` (``c[j - 2]`` holds c_j; c_0 = d_q and c_1 = 0 are implicit) are
    made on first read: Fractions in exact mode, mpmath reals otherwise, each
    rounded once from the exact value.  The eigenvector coefficients beta_jr
    of the same recursion come from ``beta_rows``.
    """

    q: int
    K: int
    domain: NumberDomain
    _exact: tuple

    @cached_property
    def d_q(self):
        d_q = self._exact[0]
        return self.domain.ratio(d_q.numerator, d_q.denominator)

    @cached_property
    def c(self) -> tuple:
        _, F, L = self._exact
        return tuple(self.domain.ratio(x, L) for x in F)

    def c_at(self, j: int):
        """Coefficient c_j for 1 <= j <= K."""
        if j == 1:
            return self.c[0] * 0
        if not 2 <= j <= self.K:
            raise IndexError(f"c_{j} not stored (K = {self.K})")
        return self.c[j - 2]

    def bit_length_profile(self) -> tuple:
        """(j, numerator bits, denominator bits) per order in exact mode.

        Rational growth is never truncated; this diagnostic makes it visible.
        """
        if not self.domain.is_exact:
            raise ValueError("bit lengths are defined for exact_rational tables only")
        return tuple(
            (j, abs(cj.numerator).bit_length(), cj.denominator.bit_length())
            for j, cj in zip(range(2, self.K + 1), self.c)
        )


@dataclass(frozen=True)
class SeriesEvaluation:
    """Partial sums of a truncated eigenvalue series, indexed by order K.

    ``kind`` is "taylor" for plain partial sums and "euler" for the
    t-transformed series (then ``t`` is set).  ``partial_sums`` is any
    mapping from order to sum; the series of ``euler`` make each sum on its
    first read.
    """

    q: int
    zeta: object
    kind: str
    partial_sums: Mapping
    t: object = None

    def at(self, K: int):
        return self.partial_sums[K]

    @property
    def orders(self) -> tuple:
        return tuple(sorted(self.partial_sums))


def default_domain(g: Graph) -> NumberDomain:
    """Exact rationals when every weight is rational, else 128-bit floats."""
    return exact_domain() if g._rational_weights else float_domain(128)


def coefficients(g: Graph, q: int, K: int, domain: NumberDomain | None = None) -> CoefficientTable:
    """Coefficient table via the beta recursion around the unique degree d_q.

    beta_1r = a_rq / (d_q - d_r) and, for j > 1,

        beta_jr = (sum_{l != q} beta_{j-1,l} a_rl
                   - sum_{k=1}^{j-2} beta_kr c_{j-k}) / (d_q - d_r),

    where the c convolution reuses c_m = sum_{l != q} beta_{m-1,l} a_ql, the
    same sum that defines the coefficients; this keeps the total cost at
    O(K^2 N + K |E|) operations on values.  The recursion runs on scaled
    integers, in any domain (``_expand``), and the table keeps the exact
    values: d_q = d / W and the C_j of c_j = C_j / (W D^(j-1)) over
    W D^(K-1), with their common gcd divided out.  It rounds or reduces none
    of them; its ``d_q`` and ``c`` do so on first read.  K below 2 or a node
    outside 1..n raises ValueError.
    """
    stacked = _stacked.run
    if stacked and stacked[0] is g and stacked[1:4] == [K, domain, q]:  # from _stack
        picked, values, rest = stacked[4:]
        stacked[:] = [g, K, domain, rest[0], picked, values, rest[1:]] if rest else []
        domain, (d_q, C, _, (W, D)) = picked, next(values)
    else:
        stacked.clear()
        domain, ((d_q, C, _, (W, D)),) = _expand(g, (q,), K, domain, least_K=2, rows=False)
    powers = list(accumulate([1] + [D] * (K - 1), mul))  # D^0..D^(K-1)
    F = [Cj * x for Cj, x in zip(C, reversed(powers[:-1]))]  # the c_j over L = W D^(K-1)
    L = W * powers[-1]
    common = gcd(L, *F)
    return CoefficientTable(q, K, domain, (Fraction(d_q, W), tuple(x // common for x in F),
                                           L // common))


class _Stacked(threading.local):
    """Each thread's ``run``, set by ``_stack``: [g, K, domain, next q, picked domain, values,
    later nodes], or [].  A coefficients call for anything else drops it and runs alone, so no
    value depends on it, and no thread sees another's."""

    def __init__(self) -> None:
        self.run = []


_stacked = _Stacked()


def _stack(g: Graph, nodes: tuple, K: int, domain: NumberDomain | None) -> None:
    """Have this thread's next coefficients(g, q, K, domain) calls, q in ``nodes`` (not empty), share runs."""
    _stacked.run[:] = [g, K, domain, nodes[0], *_expand(g, nodes, K, domain, 2, False), nodes[1:]]


def beta_rows(g: Graph, q: int, K: int, domain: NumberDomain | None = None) -> tuple:
    """The rows (beta_j1, ..., beta_jN) for j = 1..K of the recursion in ``coefficients``.

    beta_jq = 0 by the eigenvector scaling choice, and K = 0 gives no row.
    The rows are Fractions in the exact domain and, in a float domain, each
    value rounded once from the exact one at the domain's precision,
    whatever the working precision of the caller.  Arguments are checked as
    in ``coefficients``, except that K may be 0 or 1.
    """
    domain, ((_, _, B, (_, D)),) = _expand(g, (q,), K, domain, least_K=0, rows=True)
    powers = [D ** j for j in range(1, K + 1)]
    return tuple(tuple(domain.ratio(x, Dj) for x in row) for row, Dj in zip(B, powers))


def _expand(g: Graph, nodes: tuple, K: int, domain: NumberDomain | None, least_K: int,
            rows: bool) -> tuple:
    """Check the arguments, pick the domain and run the recursion around each node.

    Returns (domain, a lazy iterator of (d, C, B, (W, D)) per node q of ``nodes``);
    q's degree must occur once in the exact ``g.degrees``, and in the exact
    domain a float or mpf weight raises the TypeError of ``coerce``.  The
    recursion runs on integers: with W and a = W A from
    ``Graph._weight_array``, the gaps G_r = W (d_q - d_r) are integers.
    With D = lcm_r |G_r| and the integer m_r = D / G_r, the scaled
    quantities B_j = D^j beta_j and C_j = W D^(j-1) c_j satisfy

        B_1r = m_r a_rq,
        B_jr = m_r (sum_{l != q} B_{j-1,l} a_rl - sum_{k=1}^{j-2} B_kr C_{j-k}),
        C_j  = sum_{r != q} B_{j-1,r} a_qr,

    so no step divides (the idea of Bareiss's fraction-free elimination).
    ``_residue_recursion`` gives them exactly; d = W d_q, and B is None
    unless ``rows``.
    """
    if K < least_K:
        raise ValueError(f"K must be at least {least_K}")
    for q in nodes:
        if not 1 <= q <= g.n:
            raise ValueError(f"node {q} out of range 1..{g.n}")
        if g.degrees.count(g.degrees[q - 1]) != 1:
            raise NonUniqueDegreeError(f"node {q} does not have a unique degree")
    if domain is None:
        domain = default_domain(g)
    elif domain.is_exact and not g._rational_weights:
        domain.coerce(next(w for row in g.weights for w in row if not _rational(w)))

    W, a = g._weight_array
    d = a.sum(1).tolist()
    digits = _digits(a, max(d))
    return domain, ((d[qi], C, B, (W, D)) for run in _runs(a, d, nodes, K) for (qi, *_, D), (C, B)
                    in zip(run, _residue_recursion(digits, run, K, rows)))


def _runs(a, d: list, nodes: tuple, K: int):
    """Yield runs of (qi, m, b_1, crt, D): the next ``nodes`` within _RUN_BYTES of residues, or one."""
    run, size = [], 0
    for qi in (q - 1 for q in nodes):
        D = lcm(*(abs(d[qi] - x) for r, x in enumerate(d) if r != qi))
        m = [0 if r == qi else D // (d[qi] - x) for r, x in enumerate(d)]
        b_1 = list(map(mul, m, a[:, qi].tolist()))
        crt = _crt(_bound_bits(max(map(abs, m)), max(d), d[qi], max(map(abs, b_1)), K))
        share = len(crt[0]) * max(K, 1) * len(a) * 8  # bytes of the node's residues H
        if run and size + share > _RUN_BYTES:
            yield run
            run, size = [], 0
        run.append((qi, m, b_1, crt, D))
        size += share
    yield run


def _residue_recursion(digits: tuple, run: list, K: int, rows: bool):
    """The recursion of ``_expand`` for the nodes (qi, m, b_1, crt, D) of ``run``; yields (C, B) each.

    The nodes' residues are stacked on the prime axis, so each order j is one
    vectorised step over all their primes and all rows, on residues in
    [0, p) with p < 2^26:

    - the neighbour sums S = B_{j-1} A are float64 products, shared by every
      prime and node, with the base-2^k digits A_i of A (``_digits``; Ozaki et
      al., Numer. Algorithms 59, 2012).  A row sum of A_i is below 2^27, so
      each partial sum is an integer below 2^53 and any BLAS is exact.
      Horner's rule S = (S mod p) 2^k + B_{j-1} A_i, top digit first, keeps S
      below 2^54.  An unweighted or small-weight graph (max(d) < 2^27) has
      one digit: one product per order and no other step;
    - C_j = S_q, for each row's own q, and B_j = m (S - sum_{k=1}^{j-2} B_k C_{j-k})
      mod p, where the convolution is one batched int64 product over the rows B_k.

    Products of two residues are below 2^52, and ``_dot`` adds at most 2^11
    of them to a value below p before it reduces mod p, so no int64 sum
    overflows; the convolution is one slice while K <= 2049.  No step mixes
    rows, so stacking changes no bound.  Each node takes the fewest primes
    from the top of the range whose product M exceeds 2^(``_bound_bits`` + 2),
    so every |C_j| and |B_jr| is below M / 2 and its own CRT gives it as the
    symmetric residue (``_symmetric``).  B is the list of rows B_1..B_K when
    ``rows``, else None.
    """
    k, A = digits
    n = A[0].shape[0]
    cat = np.concatenate if len(run) > 1 else itemgetter(0)  # a lone node's arrays, uncopied
    primes = cat([crt[0] for _, _, _, crt, _ in run])
    p = primes[:, None]
    mres = cat([_residues(m, crt[0]) for _, m, _, crt, _ in run])
    H = np.empty((len(primes), max(K, 1), n), dtype=np.int64)  # H[:, j - 1] = B_j mod p
    H[:, 0] = cat([_residues(b_1, crt[0]) for _, _, b_1, crt, _ in run])
    Cr = np.empty((len(primes), max(K - 1, 0)), dtype=np.int64)  # Cr[:, K - j] = C_j mod p
    qs = (slice(None), run[0][0]) if len(run) == 1 else (  # S[qs]: each row's S_q
        np.arange(len(primes)), np.repeat([node[0] for node in run], [len(node[3][0]) for node in run]))
    for j in range(2, K + 1):
        prev = H[:, j - 2].astype(np.float64)
        S = (prev @ A[-1]).astype(np.int64)  # in [0, 2^54), congruent to B_{j-1} A
        for Ai in A[-2::-1]:
            S = S % p * (1 << k) + (prev @ Ai).astype(np.int64)
        Cr[:, K - j] = S[qs] % primes
        if j > 2:  # Cr[:, K-j+1 : K-1] holds C_{j-1}..C_2, paired with B_1..B_{j-2}
            S -= _dot(Cr[:, None, K - j + 1:K - 1], H[:, :j - 2], p)
        H[:, j - 1] = mres * (S % p) % p
    hi = 0
    for *_, crt, _ in run:
        lo, hi = hi, hi + len(crt[0])
        C = _symmetric(Cr[lo:hi, K - 2::-1], crt) if K >= 2 else []
        B = _symmetric(H[lo:hi, :K].reshape(hi - lo, -1), crt) if rows else None
        yield C, None if B is None else [B[i:i + n] for i in range(0, K * n, n)]


def _digits(a, rho: int) -> tuple:
    """(k, [A_0, A_1, ...]): float64 digits, A = sum_i 2^(k i) A_i, each row sum below 2^27.

    a is an integer or object array and rho bounds its row sums; below 2^27 A
    is its own one digit.  Else k is the widest digit for which 2^k - 1 times
    a row's non-zeros stays below 2^27.
    """
    if rho < 1 << _SUM_BITS:
        return 0, [a.astype(np.float64)]
    width = int(np.count_nonzero(a, axis=1).max())
    k = (((1 << _SUM_BITS) - 1) // width + 1).bit_length() - 1
    mask = (1 << k) - 1
    return k, [(a >> s & mask).astype(np.float64) for s in range(0, int(a.max()).bit_length(), k)]


@lru_cache(maxsize=4096)  # the nodes of a sweep share few (gaps, degrees, K)
def _bound_bits(m_max: int, rho: int, d_q: int, b_1: int, K: int) -> float:
    """log2 of a bound on every |B_jr| and |C_j| for j <= K, -inf if all vanish.

    The majorant b_1 = max_r |m_r a_rq|, c_j = d_q b_{j-1} and
    b_j = m_max (rho b_{j-1} + sum_{k=1}^{j-2} b_k c_{j-k}), with
    rho = max(d) >= every row sum, bounds |B_jr| <= b_j and |C_j| <= c_j.
    It is kept as b_j = b_1 gamma^(j-1) u_j, where gamma = m_max rho +
    2 sqrt(m_max d_q b_1) is its growth rate, so u_1 = 1,
    u_j = x u_{j-1} + y sum_{k=1}^{j-2} u_k u_{j-1-k} with x + 2 sqrt(y) = 1,
    and every u_j stays a plain float.  Float rounding moves the result by
    far less than the guard bit that ``_crt`` adds.
    """
    if b_1 == 0:  # q is isolated
        return -inf
    la = log2(m_max) + log2(rho)  # log2 of the linear rate m_max rho
    lk = log2(m_max) + log2(d_q) + log2(b_1)
    lo, hi = sorted((la, 1 + lk / 2))
    lg = hi + log2(1 + 2 ** (lo - hi))  # log2 gamma
    x, y = 2 ** (la - lg), 2 ** (lk - 2 * lg)
    u = [1.0]
    for j in range(2, K + 1):
        u.append(x * u[-1] + y * sum(map(mul, u[:j - 2], reversed(u[:j - 2]))))
    return log2(d_q) + log2(b_1) + max(i * lg + log2(uj) for i, uj in enumerate(u))


_PRIME_BITS = 26
_SUM_BITS = 53 - _PRIME_BITS  # a digit's row sums stay below 2^27, so B A_i stays below 2^53
_SLICE = 1 << 11  # products below 2^52 per int64 sum between reductions
_RUN_BYTES = 1 << 19  # stacked residues of a run; a node may take a thousand primes


def _residues(values: list, primes) -> np.ndarray:
    """values mod each prime, as a (P, len(values)) int64 array."""
    if max(map(abs, values), default=0) < 1 << 63:
        return np.array(values, dtype=np.int64) % primes[:, None]
    return np.array([[v % p for v in values] for p in primes.tolist()], dtype=np.int64)


def _dot(x, y, p):
    """The convolution's (x @ y)[:, 0] mod p in [0, 2^63), for residues x (P, 1, L), y (P, L, N)."""
    out = np.matmul(x[:, :, :_SLICE], y[:, :_SLICE])[:, 0]
    for s in range(_SLICE, x.shape[2], _SLICE):
        out = out % p + np.matmul(x[:, :, s:s + _SLICE], y[:, s:s + _SLICE])[:, 0]
    return out


def _symmetric(R, crt: tuple) -> list:
    """Each column of the residues R (P, V) as the integer of (-M/2, M/2] it stands for.

    With y_i = r_i (M/p_i)^-1 mod p_i, that integer is sum_i y_i M/p_i mod M.
    """
    primes, Mi, inverses, M = crt
    half = M // 2
    out = []
    for y in (R * inverses[:, None] % primes[:, None]).T.tolist():
        x = sum(map(mul, y, Mi)) % M
        out.append(x - M if x > half else x)
    return out


@lru_cache(maxsize=None)
def _primes(span: int) -> tuple:
    """The primes in [2^26 - span, 2^26), descending, and their cumulative log2.

    A sieve of the window by the primes below 2^13, made on first use.
    """
    low = (1 << _PRIME_BITS) - span
    small = np.ones(1 << (_PRIME_BITS // 2), dtype=bool)
    small[:2] = False
    for f in range(2, isqrt(len(small)) + 1):
        if small[f]:
            small[f * f::f] = False
    sieve = np.ones(span, dtype=bool)
    for f in np.flatnonzero(small).tolist():
        sieve[-low % f::f] = False
    primes = low + np.flatnonzero(sieve)[::-1]
    return primes, np.cumsum(np.log2(primes))


def _crt(bits: float) -> tuple:
    """(primes, M/p_i, (M/p_i)^-1 mod p_i, M) for the fewest primes with M > 2^(bits + 2).

    The primes descend from 2^26 and M is their product; one bit of the
    margin makes the symmetric residue unique, the other is a guard.
    """
    span = 1 << 14
    while _primes(span)[1][-1] <= bits + 2:
        span *= 2
    return _crt_constants(span, int(np.searchsorted(_primes(span)[1], bits + 2, side="right")) + 1)


def _byte_lru(cap: int, size):
    """A least-recently-used cache that keeps results while their ``size`` adds up to at most ``cap``.

    The cached function has ``entries`` (args: (result, bytes), oldest first) and
    ``cache_clear``; a result larger than ``cap`` is returned and not kept.
    """
    def decorate(fn):
        entries, lock = OrderedDict(), threading.Lock()

        @wraps(fn)
        def cached(*args):
            with lock:
                if args in entries:
                    entries.move_to_end(args)
                    return entries[args][0]
            result = fn(*args)
            with lock:
                entries[args] = (result, size(result))
                while sum(b for _, b in entries.values()) > cap:
                    entries.popitem(last=False)
            return result

        cached.entries, cached.cache_clear = entries, entries.clear
        return cached
    return decorate


def _crt_bytes(constants: tuple) -> int:
    """The bytes of the integers M/p_i and M, about 3 P^2 for P primes."""
    return sum(map(sys.getsizeof, constants[1])) + sys.getsizeof(constants[3])


_CRT_CACHE_BYTES = 1 << 22  # a sweep at K = 30 uses tens of kB; a node of a thousand primes, 3 MB


@_byte_lru(_CRT_CACHE_BYTES, _crt_bytes)
def _crt_constants(span: int, P: int) -> tuple:
    primes = _primes(span)[0][:P]
    M = prod(primes.tolist())
    Mi = tuple(M // p for p in primes.tolist())
    inverses = np.array([pow(x % p, -1, p) for x, p in zip(Mi, primes.tolist())], dtype=np.int64)
    return primes, Mi, inverses, M


@dataclass(frozen=True)
class CoefficientBoundsReport:
    """Walk-count bounds on c2..c4 plus the per-order kappa hypothesis.

    The hypothesis |c_j| <= kappa^(j-1) (A^j)_qq is reported per order but
    never asserted; it is an assumption, not a theorem.
    """

    q: int
    kappa: object
    c2_ok: bool
    c3_ok: bool | None
    c4_ok: bool | None
    hypothesis: tuple  # (j, holds) for j = 2..K

    @property
    def strict_bounds_ok(self) -> bool:
        return self.c2_ok and self.c3_ok is not False and self.c4_ok is not False


def coefficient_bounds_ok(g: Graph, q: int, table: CoefficientTable) -> CoefficientBoundsReport:
    """Check |c2| <= (A^2)_qq, |c3| <= (A^3)_qq, |c4| <= (A^4)_qq + (A^2)_qq.

    Requires an unweighted graph (the bounds count closed walks).
    """
    if g.is_weighted:
        raise ValueError("coefficient bounds are defined for unweighted graphs")
    walks = closed_walk_counts(g, q, table.K).counts
    kappa = degree_profile(g).kappa(q)

    c2_ok = abs(table.c_at(2)) <= walks[2]
    c3_ok = abs(table.c_at(3)) <= walks[3] if table.K >= 3 else None
    c4_ok = abs(table.c_at(4)) <= walks[4] + walks[2] if table.K >= 4 else None
    hypothesis = tuple(
        (j, bool(abs(table.c_at(j)) <= kappa ** (j - 1) * walks[j]))
        for j in range(2, table.K + 1)
    )
    return CoefficientBoundsReport(
        q=q, kappa=kappa, c2_ok=bool(c2_ok),
        c3_ok=None if c3_ok is None else bool(c3_ok),
        c4_ok=None if c4_ok is None else bool(c4_ok),
        hypothesis=hypothesis,
    )


def reconstruct_eigenvector(g: Graph, q: int, zeta, K: int, domain: NumberDomain | None = None) -> tuple:
    """e_q + sum_{j=1}^K zeta^j sum_{r != q} beta_jr e_r; component q is exactly 1.

    The rows are ``beta_rows(g, q, K, domain)``, so K = 0 gives e_q.
    """
    if domain is None:
        domain = default_domain(g)
    rows = beta_rows(g, q, K, domain)
    with domain.context():
        z = domain.coerce(zeta)
        vec = [domain.coerce(0)] * g.n
        vec[q - 1] = vec[q - 1] + 1
        zpow = 1
        for row in rows:
            zpow = zpow * z
            vec = [v + zpow * b for v, b in zip(vec, row)]
        return tuple(vec)


def coefficient_table_to_json(table: CoefficientTable) -> str:
    """{"q", "K", "c": ["p/q", ...]} with rationals kept exact as strings."""
    import json

    if table.domain.is_exact:
        cs = [format_rational(cj) for cj in table.c]
    else:
        import mpmath

        cs = [mpmath.nstr(cj, int(table.domain.precision_bits * 0.3010) + 2) for cj in table.c]
    return json.dumps({"q": table.q, "K": table.K, "c": cs})
