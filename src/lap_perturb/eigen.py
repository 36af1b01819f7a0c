"""Ground-truth dense symmetric eigensolver and spectral bounds.

At precision_bits <= 53 the solver is LAPACK ``eigh`` on a float64 numpy
array.  Whether the residual is finite is checked at once; the reported
residual max_k ||M v_k - lambda_k v_k||_2 and the eigenvectors are computed
with numpy on that array when they are first read.

Above 53 bits the matrix is taken at its exact value, A = B / W with B an
integer matrix and W the lcm of the entry denominators.  LAPACK ``eigh`` on
B scaled by a power of two gives a start X (integers over 2^s), which is
refined in exact integer arithmetic by the method of T. Ogita and K.
Aishima ("Iterative refinement for symmetric eigenvalue decomposition",
JJIAM 35, 2018) from the exact products X^T X and X^T B X.  Eigenvalues too
close for a step to separate form a cluster; the part-II step of the same
authors (JJIAM 36, 2019) rotates each cluster by the float eigenvectors of
its exact block, shifted and rescaled by its own spread.  Each eigenvalue is
the exact Rayleigh quotient of its refined vector, rounded once at the
working precision.  The loop stops when every residual is within
2^-prec max|lambda| and a certificate from the exact residual and the exact
orthogonality defect puts every returned eigenvalue within
2^-prec max|lambda| of its own true eigenvalue (see ``_certified``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath.libmp import from_man_exp, from_rational, round_nearest, to_rational

from .domain import _integer_ratio, _over_lcm, float_domain

__all__ = [
    "Spectrum",
    "SpectralBoundsReport",
    "symmetric_eigen",
    "accuracy_alpha",
    "spectral_bounds",
    "spectrum_to_json",
]

ALPHA_FLOOR = -300.0

_START_BITS = 52    # the float start, as integers over 2^52
_GUARD_BITS = 32    # refined vectors are stored to 2^-(prec + 32), or 32 bits more than the last step
_MAX_STEPS = 16     # a refinement that has not converged by then raises RuntimeError
_SLACK = mpmath.mpf(2) ** -40  # widens each certificate bound past the 64-bit rounding of its terms


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending with matching orthonormal eigenvectors.

    ``eigenvectors[k]`` is the column belonging to ``eigenvalues[k]``;
    ``residual`` is max_k ||M v_k - lambda_k v_k||_2 against the input matrix.
    A 53-bit spectrum from ``symmetric_eigen`` makes both on first read, from
    the float64 matrix and the output of ``eigh`` that it keeps.
    """

    eigenvalues: tuple
    eigenvectors: tuple
    residual: float

    def __getattr__(self, name: str):
        # reached only for an attribute not in the instance: a 53-bit spectrum's unread fields
        if name not in ("eigenvectors", "residual") or "_eigh" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        array, values, vectors, order = self._eigh
        # column k of R is M v_k - lambda_k v_k; einsum, unlike @, allocates no BLAS gemm buffer
        R = np.einsum("ij,jk->ik", array, vectors) - vectors * values
        self.__dict__.update(
            residual=float(np.sqrt(np.max(np.einsum("ij,ij->j", R, R)))),
            eigenvectors=tuple(map(tuple, vectors.T[order].tolist())))
        return self.__dict__[name]


def _check_square(matrix) -> int:
    """The order n of a square matrix, given as a sequence of n rows of length n."""
    n = len(matrix)
    if not n:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    return n


def _float_array(rows) -> np.ndarray:
    """The float64 array ``eigh`` takes, checked for non-finite, out-of-range and asymmetric entries."""
    try:
        array = np.array(rows, dtype=float)
    except OverflowError:  # an int or Fraction beyond the float64 range
        array = None
    if array is None or not np.isfinite(array).all():
        # x == x fails for NaN; comparing with the float infinities also works for
        # int, Fraction and mpf entries beyond the float range
        if not all(x == x and -math.inf < x < math.inf for row in rows for x in row):
            raise RuntimeError("matrix has a non-finite entry")
        raise RuntimeError("matrix has an entry beyond the float64 range")
    if not np.array_equal(array, array.T):  # an exactly symmetric array needs no bound
        bound = 1e-12 * max(1.0, float(np.abs(array).max()))
        bad = np.argwhere(np.triu(np.abs(array - array.T) > bound, 1))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"matrix is not symmetric at ({i + 1}, {j + 1})")
    return array


def _integer_matrix(rows) -> tuple:
    """(B, W): the exact matrix as integers B = W A, W the lcm of the entry denominators.

    The symmetry check is the 53-bit one, |a_ij - a_ji| <= 1e-12 max(1, max |a|),
    made exactly; B then mirrors the lower triangle.
    """
    n = len(rows)
    try:
        flat, W = _over_lcm(x for row in rows for x in row)
    except ValueError:
        raise RuntimeError("matrix has a non-finite entry") from None
    B = [list(flat[i:i + n]) for i in range(0, n * n, n)]
    scale = max(W, max(abs(b) for row in B for b in row))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(B[i][j] - B[j][i]) * 10**12 > scale:
                raise ValueError(f"matrix is not symmetric at ({i + 1}, {j + 1})")
            B[i][j] = B[j][i]
    return B, W


def symmetric_eigen(matrix, precision_bits: int = 53) -> Spectrum:
    """Full spectrum of a symmetric matrix, certified above 53 bits.

    At ``precision_bits <= 53`` this is LAPACK ``np.linalg.eigh`` on float64.
    Its residual is checked for finiteness at once, with one BLAS product;
    the spectrum's ``eigenvectors`` and its reported ``residual``, whose sums
    are numpy's ``einsum``, are made on first read.
    Above that the ``eigh`` start is refined in exact integer arithmetic (see
    the module docstring) until a certificate shows every returned
    eigenvalue, which is an exact Rayleigh quotient rounded once, within
    2^-precision_bits max|lambda| of the true eigenvalue in its place in the
    sorted spectrum, and the residual of every refined vector is within the
    same bound.  Entries beyond the float64 range are then exact inputs like
    any other.

    Raises ValueError for empty, non-square or non-symmetric input (numpy's
    LinAlgError is a ValueError), and RuntimeError for a NaN or infinite
    entry, for an entry beyond the float64 range at ``precision_bits <= 53``,
    if ``eigh`` returns a non-finite eigenvalue or an eigenvector with a
    non-finite residual, or if the refinement is not certified within a
    fixed number of steps.
    """
    n = _check_square(matrix)
    if precision_bits > 53:
        rows = matrix.tolist() if isinstance(matrix, np.ndarray) else matrix
        return _refined_spectrum(*_integer_matrix(rows), precision_bits)
    array = _float_array(matrix)
    values, vectors = np.linalg.eigh(array)
    if not np.isfinite(values).all():
        raise RuntimeError("eigensolver returned a non-finite eigenvalue")
    R = array @ vectors
    R -= vectors * values
    if not math.isfinite(np.max(np.einsum("ij,ij->j", R, R))):  # np.max propagates a NaN
        raise RuntimeError("eigensolver returned a non-finite eigenvector residual")
    del R
    eigenvalues = values.tolist()
    # a stable descending sort: tied eigenvalues and signed zeros keep eigh's order
    order = sorted(range(n), key=eigenvalues.__getitem__, reverse=True)
    spectrum = object.__new__(Spectrum)
    spectrum.__dict__.update(eigenvalues=tuple(eigenvalues[k] for k in order),
                             _eigh=(array, values, vectors, order))
    return spectrum


def _refined_spectrum(B: list, W: int, precision_bits: int) -> Spectrum:
    """The spectrum of B / W (B integer and symmetric) by certified refinement of an ``eigh`` start."""
    n = len(B)
    unit = 1 << max(max(abs(b) for row in B for b in row).bit_length() - 1, 0)
    values, vectors = np.linalg.eigh(np.array([[b / unit for b in row] for row in B]))
    if not np.isfinite(values).all():
        raise RuntimeError("eigensolver returned a non-finite eigenvalue")
    if not np.isfinite(vectors).all():
        raise RuntimeError("eigensolver returned a non-finite eigenvector residual")
    B = np.array(B, dtype=object)
    s = _START_BITS
    X = _integers(vectors, s)  # column k approximates eigenvector k, over 2^s
    for _ in range(_MAX_STEPS):
        BX = B @ X
        G = (X.T @ X).tolist()
        if not all(G[k][k] for k in range(n)):
            break  # a zero vector: the start was singular
        rayleigh = (X * BX).sum(axis=0).tolist()  # the diagonal of X^T B X
        order = sorted(range(n), key=lambda k: Fraction(rayleigh[k], G[k][k]), reverse=True)
        certified = _certified(G, rayleigh, (BX * BX).sum(axis=0).tolist(), W, precision_bits,
                               order)
        if certified is not None:
            eigenvalues, residual = certified
            return Spectrum(eigenvalues=eigenvalues, residual=residual,
                            eigenvectors=tuple(_unit_vector(X[:, k].tolist(), G[k][k], s,
                                                            precision_bits) for k in order))
        H = (X.T @ BX).tolist()
        target = min(2 * s, max(precision_bits + _GUARD_BITS, s + _GUARD_BITS))
        clusters = _clusters(G, H, W, s, order)
        X = (X @ _step_matrix(G, H, s, target, clusters)) >> s
        s = target
        for J in clusters:
            if len(J) > 1:
                X[:, J] = _cluster_rotation(X[:, J], B, s)
    raise RuntimeError(f"eigenvalue refinement at {precision_bits} bits did not converge "
                       f"in {_MAX_STEPS} steps")


def _integers(floats: np.ndarray, bits: int) -> np.ndarray:
    """The float array times 2^bits, rounded to Python ints (an object array)."""
    return np.array([[int(v) for v in row] for row in np.rint(np.ldexp(floats, bits)).tolist()],
                    dtype=object)


def _log2(x: int) -> float:
    return math.log2(x) if x else -math.inf


def _clusters(G, H, W, s, order) -> list:
    """Runs of the sorted Rayleigh quotients closer than a step can separate.

    The threshold is Ogita and Aishima's delta = 2 (||S - D||_2 + ||A||_2 ||R||_2),
    S = X^T A X, R = I - X^T X, with Frobenius norms for 2-norms, compared in log2.
    """
    n = len(G)
    off_h = sum(H[i][j] ** 2 for i in range(n) for j in range(n) if i != j)
    defect = sum((G[i][j] - ((i == j) << 2 * s)) ** 2 for i in range(n) for j in range(n))
    norm_a = max(abs(H[i][i]) for i in range(n))
    log_delta = 1 - _log2(W) - 2 * s + float(np.logaddexp2(
        0.5 * _log2(off_h), _log2(norm_a) + 0.5 * _log2(defect) - 2 * s))
    clusters = [[order[0]]]
    for a, b in zip(order, order[1:]):
        gap = H[a][a] * G[b][b] - H[b][b] * G[a][a]  # W G_aa G_bb (rho_a - rho_b) >= 0
        if _log2(gap) - _log2(W) - _log2(G[a][a]) - _log2(G[b][b]) <= log_delta:
            clusters[-1].append(b)
        else:
            clusters.append([b])
    return clusters


def _step_matrix(G, H, s, target, clusters) -> np.ndarray:
    """2^target (I + E), E from Ogita and Aishima's first-order formulas, as integers.

    With X = X_int / 2^s, R = I - X^T X and S = X^T A X: e_ii = r_ii / 2,
    e_ij = (s_ij + rho_j r_ij) / (rho_j - rho_i) for i, j in different
    clusters and r_ij / 2 within one, each an exact ratio of integers
    rounded down at 2^-target.
    """
    n = len(G)
    cluster_of = {k: c for c, J in enumerate(clusters) for k in J}
    M = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            if i == j:
                M[i, i] = (1 << target) + (((1 << 2 * s) - G[i][i]) << target >> (2 * s + 1))
            elif cluster_of[i] == cluster_of[j]:
                M[i, j] = (-G[i][j] << target) >> (2 * s + 1)
            else:
                num = (H[i][j] * G[j][j] - H[j][j] * G[i][j]) * G[i][i]
                den = H[j][j] * G[i][i] - H[i][i] * G[j][j]
                M[i, j] = (num << target) // (den << 2 * s)
    return M


def _cluster_rotation(Y: np.ndarray, B: np.ndarray, s: int) -> np.ndarray:
    """The columns Y (over 2^s) rotated by the eigenvectors of their shifted block.

    The block is T = G_00 H - H_00 G with G = Y^T Y and H = Y^T B Y, that is
    Y^T (A - rho_0) Y up to a positive factor, exact; ``eigh`` takes it
    divided by its largest entry.  The float rotation is made orthogonal to
    2^-s by exact Newton-Schulz steps, so that it keeps the orthogonality
    of Y.
    """
    G = Y.T @ Y
    H = Y.T @ (B @ Y)
    T = G[0, 0] * H - H[0, 0] * G
    spread = max(abs(t) for t in T.flat)
    if spread == 0:
        return Y
    _, V = np.linalg.eigh(np.array([[t / spread for t in row] for row in T.tolist()]))
    if not np.isfinite(V).all():
        return Y
    q = _START_BITS
    Q = _integers(V, q)
    eye3 = np.diag([3] * len(V)).astype(object)
    while q < s:  # Q <- Q (3 I - Q^T Q) / 2 squares the orthogonality defect
        q_next = min(2 * q, s)
        Q = (Q @ ((eye3 << 2 * q) - Q.T @ Q)) >> (3 * q - q_next + 1)
        q = q_next
    return (Y @ Q) >> q


def _certified(G, Hd, N, W, prec, order):
    """(eigenvalues, residual) in ``order``, if both are certified; else None.

    Hd_k = X_k^T B X_k and N_k = ||B X_k||^2 give, for the unit columns
    x_k = X_k / ||X_k||, the exact rho_k = x_k^T A x_k and
    r_k = ||A x_k - rho_k x_k||; phi >= ||X^T X - I||_F bounds the
    orthogonality defect.  Then the sorted true eigenvalues lie within
    eps = (phi (rho_max - rho_min) + ||r||_2) / sqrt(1 - phi) of the sorted rho
    (Weyl's inequality applied to Q^T A Q, Q the orthogonal polar factor of
    X).  Where that leaves rho_k a certified gap g to the intervals of its
    neighbours, the Kato-Temple bound r_k^2 / g replaces eps.  Each bound
    plus the rounding of rho_k must be within 2^-prec max|rho|, and so must
    each r_k (checked first, in log2, as the vectors' own accuracy).  Terms are
    evaluated at 64 bits from exact integer differences and widened by
    2^-40 relative, which covers their rounding.
    """
    n = len(G)
    # r_k^2 = (||B x||^2 ||x||^2 - (x^T B x)^2) / (W ||x||^2)^2, x = X_k
    res_num = [N[k] * G[k][k] - Hd[k] ** 2 for k in range(n)]
    res_den = [(W * G[k][k]) ** 2 for k in range(n)]
    top = max(range(n), key=lambda k: abs(Fraction(Hd[k], G[k][k])))
    log_tol = _log2(abs(Hd[top])) - _log2(W * G[top][top]) - prec
    if any(0.5 * (_log2(res_num[k]) - _log2(res_den[k])) > log_tol for k in range(n)):
        return None
    rounded = [from_rational(Hd[k], W * G[k][k], prec, round_nearest) for k in order]
    with mpmath.workprec(64):
        mpf = mpmath.mpf
        r2 = [mpf(res_num[k]) / res_den[k] for k in order]
        off_g = sum(G[i][j] ** 2 for i in range(n) for j in range(n) if i != j)
        phi = mpmath.sqrt(mpf(off_g) / min(G[k][k] for k in range(n)) ** 2)
        if not phi < 0.5:
            return None

        def drop(a, b):  # rho_a - rho_b >= 0, from its exact integer numerator
            return mpf(Hd[a] * G[b][b] - Hd[b] * G[a][a]) / (W * G[a][a] * G[b][b])

        gaps = [drop(a, b) * (1 - _SLACK) for a, b in zip(order, order[1:])]
        spread = drop(order[0], order[-1]) * (1 + _SLACK)
        eps = (phi * spread + mpmath.sqrt(mpmath.fsum(r2))) / mpmath.sqrt(1 - phi) * (1 + _SLACK)
        tol = mpmath.ldexp(max(abs(mpmath.mp.make_mpf(v)) for v in rounded), -prec) * (1 - _SLACK)
        for pos, k in enumerate(order):
            room = min(gaps[pos] if pos + 1 < n else mpmath.inf,
                       gaps[pos - 1] if pos else mpmath.inf) - eps
            bound = min(eps, r2[pos] / room * (1 + _SLACK)) if room > 0 else eps
            p, q = to_rational(rounded[pos])
            rounding = mpf(abs(p * W * G[k][k] - q * Hd[k])) / (q * W * G[k][k]) * (1 + _SLACK)
            if bound + rounding > tol:
                return None
        residual = float(mpmath.sqrt(max(r2)))
    return tuple(mpmath.mp.make_mpf(v) for v in rounded), residual


def _unit_vector(x: list, norm2: int, s: int, prec: int) -> tuple:
    """x / sqrt(norm2) as mpf values at ``prec`` bits (x over 2^s, norm2 = ||x||^2)."""
    u = s + prec + 8
    inv = (1 << 2 * u) // math.isqrt(norm2 << 2 * u)  # 2^u / ||x|| to prec + 8 bits
    return tuple(mpmath.mp.make_mpf(from_man_exp(v * inv, -u, prec, round_nearest)) for v in x)


def accuracy_alpha(xi, mu, floor: float = ALPHA_FLOOR) -> float:
    """log10 |xi - mu| of the exact values, or ``floor`` if lower (an exact hit gives ``floor``).

    The difference of the inputs' integer pairs (``_integer_ratio``; a float
    or mpf is dyadic) is exact, and its log10 comes from bit lengths and one
    ``math.log10`` of a 64-bit quotient, within about 1e-14, with no working
    precision read.  A NaN or infinite input raises ValueError.
    """
    xn, xd = _integer_ratio(xi)
    mn, md = _integer_ratio(mu)
    num, den = abs(xn * md - mn * xd), xd * md
    if not num:
        return floor
    shift = 64 - num.bit_length() + den.bit_length()  # num 2^shift / den has 64 or 65 bits
    top = (num << shift) // den if shift >= 0 else num // (den << -shift)
    return max(math.log10(top) - shift * math.log10(2), floor)


@dataclass(frozen=True)
class SpectralBoundsReport:
    """Satisfaction report for three classical Laplacian eigenvalue bounds.

    The degree bound mu_k >= d_(k) - k + 2 carries its published exception:
    when G is a complete graph K_m plus isolated vertices the inequality
    fails at k = m (mu_m = 0 against a bound of 1) and that k is skipped.
    """

    eigenvalues: tuple
    degree_bound_ok: bool          # mu_k >= d_(k) - k + 2, exception k skipped
    largest_bound: float           # min(N, max over edges of endpoint degree sum)
    largest_bound_ok: bool
    interval_ok: bool              # every node has some eigenvalue in [0, 2 d_q]

    @property
    def all_ok(self) -> bool:
        return self.degree_bound_ok and self.largest_bound_ok and self.interval_ok


def spectral_bounds(g, spectrum: Spectrum | None = None, tol: float = 1e-9) -> SpectralBoundsReport:
    """Evaluate the classical bounds against the oracle Laplacian spectrum."""
    from .graph import laplacian  # local import to avoid a cycle

    if spectrum is None:
        spectrum = symmetric_eigen(laplacian(g))
    mu = [float(x) for x in spectrum.eigenvalues]
    d_sorted = sorted((float(d) for d in g.degrees), reverse=True)
    n = g.n

    # G = K_m plus isolated vertices is the one family where the degree bound
    # fails, exactly at k = m; detect it from the degree multiset
    m_nonzero = sum(1 for d in d_sorted if d != 0)
    if m_nonzero == 0:
        exception_k = 1
    elif all(d_sorted[i] == m_nonzero - 1 for i in range(m_nonzero)):
        exception_k = m_nonzero
    else:
        exception_k = None
    degree_bound_ok = all(
        mu[k] >= d_sorted[k] - (k + 1) + 2 - tol
        for k in range(n)
        if k + 1 != exception_k
    )

    edge_sums = [float(g.degrees[u - 1] + g.degrees[v - 1]) for u, v, _ in g.edges()]
    cap = max(edge_sums, default=0.0)
    largest_bound = min(float(n), cap) if not g.is_weighted else cap
    largest_bound_ok = (mu[0] if mu else 0.0) <= largest_bound + tol

    interval_ok = all(
        any(-tol <= m <= 2 * float(dq) + tol for m in mu) for dq in g.degrees
    )
    return SpectralBoundsReport(
        eigenvalues=tuple(mu),
        degree_bound_ok=degree_bound_ok,
        largest_bound=largest_bound,
        largest_bound_ok=largest_bound_ok,
        interval_ok=interval_ok,
    )


def spectrum_to_json(spectrum: Spectrum, digits: int = 30) -> str:
    import json

    vals = [mpmath.nstr(v if isinstance(v, mpmath.mpf) else float_domain(53).coerce(v), digits)
            for v in spectrum.eigenvalues]  # a float exactly; nstr reads no working precision
    return json.dumps({"eigenvalues": vals, "residual": float(spectrum.residual)})
