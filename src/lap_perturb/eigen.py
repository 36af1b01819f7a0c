"""Ground-truth dense symmetric eigensolver and spectral bounds.

The solver is LAPACK ``eigh`` on float64 numpy arrays (precision_bits <= 53)
or ``mpmath.eigsy`` on mpmath reals at any higher precision, so
high-precision spectra are available for 30-digit comparisons.  The
reported residual max_k ||M v_k - lambda_k v_k||_2 is computed with numpy
on the same float64 array at <= 53 bits, and in mpmath at the working
precision above that.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import mpmath
import numpy as np

from .domain import to_mpf

__all__ = [
    "Spectrum",
    "SpectralBoundsReport",
    "symmetric_eigen",
    "accuracy_alpha",
    "spectral_bounds",
    "spectrum_to_json",
]

ALPHA_FLOOR = -300.0


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending with matching orthonormal eigenvectors.

    ``eigenvectors[k]`` is the column belonging to ``eigenvalues[k]``;
    ``residual`` is max_k ||M v_k - lambda_k v_k||_2 against the input matrix.
    """

    eigenvalues: tuple
    eigenvectors: tuple
    residual: float


def _as_rows(matrix):
    if isinstance(matrix, np.ndarray):
        return [[float(x) for x in row] for row in matrix]
    return [list(row) for row in matrix]


def _check_symmetric(rows, tol) -> None:
    n = len(rows)
    scale = max((abs(x) for row in rows for x in row), default=0)
    bound = tol * max(1, scale)
    for i in range(n):
        if len(rows[i]) != n:
            raise ValueError("matrix must be square")
        for j in range(i + 1, n):
            if abs(rows[i][j] - rows[j][i]) > bound:
                raise ValueError(f"matrix is not symmetric at ({i + 1}, {j + 1})")


def symmetric_eigen(matrix, precision_bits: int = 53) -> Spectrum:
    """Full spectrum of a symmetric matrix from a library eigensolver.

    At ``precision_bits <= 53`` this is LAPACK ``np.linalg.eigh`` on float64;
    above that it is ``mpmath.eigsy`` (Householder tridiagonalisation and
    implicit QL) at that working precision, so the precision alone sets the
    accuracy.  Raises ValueError for empty or non-symmetric input (numpy's
    LinAlgError is a ValueError), and RuntimeError for a NaN or infinite
    entry, for an entry beyond the float64 range at ``precision_bits <= 53``,
    if ``eigsy`` does not converge, or if either solver returns a
    non-finite eigenvalue or an eigenvector with a non-finite residual.
    """
    rows = _as_rows(matrix)
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    # x == x fails for NaN; comparing with the float infinities also works for
    # int, Fraction and mpf entries beyond the float range
    if not all(x == x and -math.inf < x < math.inf for row in rows for x in row):
        raise RuntimeError("matrix has a non-finite entry")
    if precision_bits <= 53 and any(abs(x) > sys.float_info.max for row in rows for x in row):
        raise RuntimeError("matrix has an entry beyond the float64 range")
    _check_symmetric(rows, 1e-12 if precision_bits <= 53 else Fraction(1, 10**12))

    if precision_bits <= 53:
        array = np.array(rows, dtype=float)
        values, vectors = np.linalg.eigh(array)
        eigenvalues, columns = values.tolist(), vectors.T.tolist()
        # column k of R is M v_k - lambda_k v_k; einsum, unlike @, allocates no BLAS gemm buffer
        R = np.einsum("ij,jk->ik", array, vectors) - vectors * values
        residual = float(np.sqrt(np.max(np.einsum("ij,ij->j", R, R))))
    else:
        with mpmath.workprec(precision_bits):
            a = mpmath.matrix([[to_mpf(x) for x in row] for row in rows])
            values, vectors = mpmath.eigsy(a)
        eigenvalues = [values[k] for k in range(n)]
        columns = [[vectors[i, k] for i in range(n)] for k in range(n)]
    if not all(mpmath.isfinite(lam) for lam in eigenvalues):  # eigh gives NaN for inf entries
        raise RuntimeError("eigensolver returned a non-finite eigenvalue")

    order = sorted(range(n), key=lambda k: eigenvalues[k], reverse=True)
    eigenvalues = [eigenvalues[k] for k in order]
    columns = [tuple(columns[k]) for k in order]

    def _residual():
        worst = 0
        for lam, col in zip(eigenvalues, columns):
            acc = 0
            for i in range(n):
                ri = sum(rows[i][j] * col[j] for j in range(n)) - lam * col[i]
                acc += ri * ri
            if not acc < math.inf:  # also NaN, which max() would read as 0
                raise RuntimeError("eigensolver returned a non-finite eigenvector residual")
            worst = max(worst, acc)
        return math.sqrt(float(worst))

    if precision_bits <= 53:
        if not math.isfinite(residual):  # np.max propagates a NaN
            raise RuntimeError("eigensolver returned a non-finite eigenvector residual")
    else:
        with mpmath.workprec(precision_bits):
            residual = _residual()
    return Spectrum(eigenvalues=tuple(eigenvalues), eigenvectors=tuple(columns), residual=residual)


def accuracy_alpha(xi, mu, floor: float = ALPHA_FLOOR) -> float:
    """log10 |xi - mu|, floored to represent exact hits.

    Rational inputs are differenced exactly before the log, so tiny gaps
    between exact series values and high-precision eigenvalues survive.
    """
    if isinstance(xi, Rational) and isinstance(mu, Rational):
        diff = Fraction(xi) - Fraction(mu)
        if diff == 0:
            return floor
        diff = abs(diff)
        alpha = float(mpmath.log10(mpmath.mpf(diff.numerator)) - mpmath.log10(diff.denominator))
    else:
        diff = abs(to_mpf(xi) - to_mpf(mu))
        if diff == 0:
            return floor
        alpha = float(mpmath.log10(diff))
    return max(alpha, floor)


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

    vals = [mpmath.nstr(to_mpf(v), digits) for v in spectrum.eigenvalues]
    return json.dumps({"eigenvalues": vals, "residual": float(spectrum.residual)})
