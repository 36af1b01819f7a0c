from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from lap_perturb.digits import matches_printed
from lap_perturb.domain import _exact_value, float_domain
from lap_perturb.eigen import (
    ALPHA_FLOOR,
    Spectrum,
    accuracy_alpha,
    spectral_bounds,
    spectrum_to_json,
    symmetric_eigen,
)
from lap_perturb.graph import (
    _perturbed_rows,
    build_graph,
    antiregular,
    complete_graph,
    erdos_renyi,
    laplacian,
    perturbed_matrix,
    ring_with_core,
)
from lap_perturb.sweep import resolve_graph_source
from oracles import eigsy_eigenvalues, reference_residual


# the Laplacian an infinite weight on edge (1, 2) would give; build_graph rejects that weight
INFINITE_WEIGHT_LAPLACIAN = ((math.inf, -math.inf, 0), (-math.inf, math.inf, -1), (0, -1, 1))
NAN_ENTRY_MATRIX = [[math.nan, 0], [0, 1]]
# a weight beyond the float64 range: LAPACK cannot take it, the exact refinement can
HUGE_WEIGHT_LAPLACIAN = laplacian(build_graph(3, [(1, 2, Fraction(10) ** 400), (2, 3, 1)]))


def near_degenerate(gap) -> list:
    """H diag(1, 1 + gap, 3, 7) H with H = I - 2 v v^T / v^T v, v = (1, 2, 3, 4), exactly."""
    v = (1, 2, 3, 4)
    h = [[int(i == j) - Fraction(2 * v[i] * v[j], 30) for j in range(4)] for i in range(4)]
    d = (1, 1 + gap, 3, 7)
    return [[sum(h[i][k] * d[k] * h[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


# matrices for the refined spectra: separated, repeated (complete_graph(8) has one
# eigenvalue of multiplicity 7, the ring adjacencies have pairs) and nearly repeated ones
REFINED_CASES = {
    "e1": lambda: laplacian(resolve_graph_source("example:e1")),
    "e2": lambda: laplacian(resolve_graph_source("example:e2")),
    "e3": lambda: laplacian(resolve_graph_source("example:e3")),
    "ring-21-1-adjacency": lambda: ring_with_core(21, 1).weights,
    "ring-21-9-adjacency": lambda: ring_with_core(21, 9).weights,
    "complete-8": lambda: laplacian(complete_graph(8)),
    "er-20-1/5": lambda: laplacian(erdos_renyi(20, Fraction(1, 5), 11)),
    "er-20-1/2": lambda: laplacian(erdos_renyi(20, Fraction(1, 2), 12)),
    "er-20-4/5": lambda: laplacian(erdos_renyi(20, Fraction(4, 5), 13)),
    "gap-1e-8": lambda: near_degenerate(Fraction(1, 10**8)),
    "gap-1e-20": lambda: near_degenerate(Fraction(1, 10**20)),
    "gap-1e-30": lambda: near_degenerate(Fraction(1, 10**30)),
    # float and mpf entries are dyadic rationals, read at their exact values
    "float-12": lambda: random_symmetric(12, 7).tolist(),
    "mpf-6": lambda: [[mpmath.mpf(v) / 3 for v in row] for row in random_symmetric(6, 8).tolist()],
}


# SHA-256 of repr((eigenvalues, eigenvectors, residual)) of each 53-bit Laplacian
# spectrum in turn: the examples, and 50 ER(20, p) graphs, p = 1/5..4/5 by seed
SPECTRUM_53_SHA256 = {
    "examples": ("fd4de0e194ed09603e86ed41b6b9887a307ab41100b94d5ac845aa75e6122773",
                 lambda: [resolve_graph_source(f"example:{e}") for e in ("e1", "e2", "e3")]),
    "er-20": ("6b8b095cc5835b9c1535d89f5390ec2caa6cc3fc9b39f40ae2497c400d018750",
              lambda: [erdos_renyi(20, Fraction(1 + seed % 4, 5), seed) for seed in range(50)]),
}


def random_symmetric(n: int, seed: int) -> np.ndarray:
    m = np.random.default_rng(seed).standard_normal((n, n))
    return (m + m.T) / 2


class TestSymmetricEigen:
    def test_e1_laplacian_spectrum(self, e1):
        spec = symmetric_eigen(laplacian(e1))
        for mu, printed in zip(spec.eigenvalues, ("4.17009", "2.31111", "1.", "0.518806", "0")):
            assert matches_printed(mu, printed)

    def test_antiregular_10_integer_spectrum(self, e3):
        spec = symmetric_eigen(laplacian(e3))
        for mu, ref in zip(spec.eigenvalues, (10, 9, 8, 7, 6, 4, 3, 2, 1, 0)):
            assert abs(mu - ref) <= 1e-9

    def test_e2_adjacency_spectral_radius(self, e2):
        spec = symmetric_eigen(e2.weights)
        assert matches_printed(spec.eigenvalues[0], "6.67615")

    def test_k3_spectrum(self):
        spec = symmetric_eigen(laplacian(complete_graph(3)))
        assert [round(float(v), 10) for v in spec.eigenvalues] == [3, 3, 0]

    def test_reconstruction_double_n100(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((100, 100))
        m = (m + m.T) / 2
        spec = symmetric_eigen(m)
        v = np.array(spec.eigenvectors).T
        rebuilt = v @ np.diag(spec.eigenvalues) @ v.T
        rel = np.linalg.norm(m - rebuilt) / np.linalg.norm(m)
        assert rel < 1e-10

    def test_reconstruction_128bit_n30(self):
        rng = np.random.default_rng(9)
        m = rng.integers(-5, 6, size=(30, 30))
        m = m + m.T
        spec = symmetric_eigen(m.tolist(), precision_bits=128)
        with mpmath.workprec(128):
            num = mpmath.mpf(0)
            den = mpmath.mpf(0)
            n = 30
            for i in range(n):
                for j in range(n):
                    rebuilt = sum(
                        spec.eigenvalues[k] * spec.eigenvectors[k][i] * spec.eigenvectors[k][j]
                        for k in range(n)
                    )
                    num += (rebuilt - m[i, j]) ** 2
                    den += mpmath.mpf(int(m[i, j])) ** 2
            assert mpmath.sqrt(num / den) < mpmath.mpf(10) ** -25

    def test_eigenvector_gram_is_identity(self, e2):
        spec = symmetric_eigen(laplacian(e2))
        v = np.array(spec.eigenvectors).T
        assert np.max(np.abs(v.T @ v - np.eye(20))) < 1e-12

    def test_laplacian_kernel_is_all_ones(self, e2):
        spec = symmetric_eigen(laplacian(e2))
        assert abs(spec.eigenvalues[-1]) < 1e-10
        bottom = np.array(spec.eigenvectors[-1])
        expected = np.ones(20) / math.sqrt(20)
        assert min(np.max(np.abs(bottom - expected)), np.max(np.abs(bottom + expected))) < 1e-9

    @pytest.mark.parametrize("bits", [53, 128, 256])
    def test_residual_reported(self, e3, bits):
        spec = symmetric_eigen(laplacian(e3), precision_bits=bits)
        # above double precision the residual must follow the requested bits
        bound = 1e-12 if bits == 53 else 2.0 ** -(bits - 16)
        assert 0 <= spec.residual < bound

    @pytest.mark.parametrize("source", ["example:e1", "example:e2", "example:e3",
                                        "erdos_renyi:20,1/5,11", "erdos_renyi:20,1/2,12",
                                        "erdos_renyi:20,4/5,13"])
    def test_53_bit_residual_matches_python_loop(self, source):
        # numpy's residual against a term-by-term Python loop, within rounding
        matrix = laplacian(resolve_graph_source(source))
        spec = symmetric_eigen(matrix)
        n = len(matrix)
        scale = max(abs(float(x)) for row in matrix for x in row)
        assert abs(spec.residual - reference_residual(matrix, spec)) <= n * 2.0 ** -52 * scale

    @pytest.mark.parametrize("bits, matrix", [
        pytest.param(53, INFINITE_WEIGHT_LAPLACIAN, id="53"),
        pytest.param(128, INFINITE_WEIGHT_LAPLACIAN, id="128"),
        pytest.param(53, NAN_ENTRY_MATRIX, id="nan-53"),
        pytest.param(128, NAN_ENTRY_MATRIX, id="nan-128"),
        pytest.param(53, HUGE_WEIGHT_LAPLACIAN, id="huge-53"),
    ])
    def test_infinite_weight_raises(self, bits, matrix):
        with pytest.raises(RuntimeError):
            symmetric_eigen(matrix, precision_bits=bits)

    @pytest.mark.parametrize("bits", [53, 128])
    def test_nan_eigenvector_raises(self, monkeypatch, bits):
        # finite eigenvalues with a NaN column: the residual must not read as 0,
        # and above 53 bits the float start must not reach the refinement
        def fake_eigh(a):
            return np.array([0.0, 2.0]), np.array([[math.nan, 1.0], [math.nan, 0.0]])

        monkeypatch.setattr(np.linalg, "eigh", fake_eigh)
        with pytest.raises(RuntimeError, match="residual"):
            symmetric_eigen([[1, 1], [1, 1]], precision_bits=bits)

    def test_refinement_step_cap_raises(self, monkeypatch):
        # equal columns stay equal under every step, so the orthogonality certificate never holds
        def fake_eigh(a):
            return np.zeros(len(a)), np.ones_like(a)

        monkeypatch.setattr(np.linalg, "eigh", fake_eigh)
        with pytest.raises(RuntimeError, match="did not converge"):
            symmetric_eigen([[2, 1], [1, 2]], precision_bits=128)

    @pytest.mark.parametrize("bits", [128, 256])
    @pytest.mark.parametrize("name", REFINED_CASES)
    def test_refined_eigenvalues_match_eigsy(self, name, bits):
        # every eigenvalue within 2^-bits max|lambda| of eigsy at three times the precision
        matrix = REFINED_CASES[name]()
        spec = symmetric_eigen(matrix, precision_bits=bits)
        reference = eigsy_eigenvalues(matrix, 3 * bits)
        with mpmath.workprec(3 * bits):
            tol = mpmath.ldexp(max(abs(v) for v in reference), -bits)
            assert all(abs(mu - ref) <= tol for mu, ref in zip(spec.eigenvalues, reference))
        assert 0 <= spec.residual < 2.0 ** -(bits - 8)

    def test_huge_weight_at_128_bits(self):
        # an entry beyond the float64 range is exact input above 53 bits, whatever its type
        as_int = laplacian(build_graph(3, [(1, 2, 10**400), (2, 3, 1)]))
        spec = symmetric_eigen(HUGE_WEIGHT_LAPLACIAN, precision_bits=128)
        assert symmetric_eigen(as_int, precision_bits=128) == spec
        reference = eigsy_eigenvalues(HUGE_WEIGHT_LAPLACIAN, 384)
        with mpmath.workprec(384):
            tol = mpmath.ldexp(reference[0], -128)
            assert all(abs(mu - ref) <= tol for mu, ref in zip(spec.eigenvalues, reference))
        assert 0 <= spec.residual <= 2.0 ** -128 * 2e400

    @pytest.mark.parametrize("entry, message", [
        pytest.param(math.nan, "non-finite entry", id="nan"),
        pytest.param(-math.inf, "non-finite entry", id="inf"),
        pytest.param(Fraction(10) ** 400, "beyond the float64 range", id="fraction"),
        pytest.param(mpmath.mpf("1e400"), "beyond the float64 range", id="mpf"),
    ])
    def test_53_bit_entry_check_messages(self, entry, message):
        with pytest.raises(RuntimeError, match=message):
            symmetric_eigen([[entry, 0], [0, 1]])

    def test_53_bit_vectors_and_residual_made_on_first_read(self, e2):
        matrix = laplacian(e2)
        spec = symmetric_eigen(matrix)
        assert "eigenvectors" not in vars(spec) and "residual" not in vars(spec)
        array = np.array(matrix, dtype=float)
        values, vectors = np.linalg.eigh(array)
        R = np.einsum("ij,jk->ik", array, vectors) - vectors * values
        order = np.argsort(-values, kind="stable")
        assert spec.residual == float(np.sqrt(np.max(np.einsum("ij,ij->j", R, R))))
        assert spec.eigenvectors == tuple(map(tuple, vectors.T[order].tolist()))
        assert spec == Spectrum(spec.eigenvalues, spec.eigenvectors, spec.residual)

    @pytest.mark.parametrize("zeta", [-1, Fraction(-1, 3)], ids=str)
    @pytest.mark.parametrize("g", [erdos_renyi(20, Fraction(1, 5), 11), erdos_renyi(60, Fraction(1, 2), 3),
                                   build_graph(4, [(1, 2, Fraction(1, 3)), (2, 3, 2), (3, 4, 1)])],
                             ids=["er20", "er60", "fractions"])
    def test_rows_with_their_array_give_the_same_spectrum(self, g, zeta):
        spectra = [symmetric_eigen(_perturbed_rows(g, zeta)), symmetric_eigen(perturbed_matrix(g, zeta))]
        assert len({repr((s.eigenvalues, s.eigenvectors, s.residual)) for s in spectra}) == 1

    @pytest.mark.parametrize("name", list(SPECTRUM_53_SHA256))
    def test_53_bit_spectra_pinned(self, name):
        sha256, graphs = SPECTRUM_53_SHA256[name]
        digest = hashlib.sha256()
        for g in graphs():
            spec = symmetric_eigen(laplacian(g))
            digest.update(repr((spec.eigenvalues, spec.eigenvectors, spec.residual)).encode())
        assert digest.hexdigest() == sha256

    def test_ties_and_signed_zeros_keep_eigh_order(self, monkeypatch):
        # eigh's order is 0.0, 1.0, -0.0, 1.0 on the columns e_1..e_4; the descending
        # sort is stable, so the two 1.0 and the two zeros each keep it
        values = np.array([0.0, 1.0, -0.0, 1.0])
        monkeypatch.setattr(np.linalg, "eigh", lambda array: (values, np.eye(4)))
        spec = symmetric_eigen(np.diag(values))
        assert [(v, math.copysign(1, v)) for v in spec.eigenvalues] == [(1, 1), (1, 1), (0, 1),
                                                                          (0, -1)]
        assert spec.eigenvectors == tuple(tuple(row) for row in np.eye(4)[[1, 3, 0, 2]].tolist())

    @pytest.mark.parametrize("bits", [53, 128])
    @pytest.mark.parametrize("matrix", [[], (), np.zeros((0, 0))], ids=["list", "tuple", "array"])
    def test_rejects_empty(self, matrix, bits):
        with pytest.raises(ValueError, match="^empty matrix$"):
            symmetric_eigen(matrix, bits)

    @pytest.mark.parametrize("bits", [53, 128])
    @pytest.mark.parametrize("matrix", [[[1, 2], [3]], ((1,), (2,)), np.zeros((2, 3))],
                             ids=["ragged", "column", "array"])
    def test_rejects_non_square(self, matrix, bits):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            symmetric_eigen(matrix, bits)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_eigen([[0, 1], [2, 0]])

    def test_rejects_non_symmetric_exactly_above_53_bits(self):
        # entries beyond the float64 range, 1e-10 and 1e-15 apart relative to their size
        big = 10**400
        with pytest.raises(ValueError, match=r"not symmetric at \(1, 2\)"):
            symmetric_eigen([[0, big], [big + 10**390, 0]], precision_bits=128)
        symmetric_eigen([[0, big], [big + 10**385, 0]], precision_bits=128)

    def test_spectrum_json(self, e3):
        import json

        data = json.loads(spectrum_to_json(symmetric_eigen(laplacian(e3))))
        assert len(data["eigenvalues"]) == 10
        assert data["residual"] < 1e-12


class TestAccuracyAlpha:
    def test_example_2_difference_column(self):
        alpha = accuracy_alpha(Fraction("11.6197037971111"), Fraction("11.6199127895910"))
        assert abs(alpha - math.log10(0.000208992)) < 1e-3

    def test_exact_hit_floors(self):
        assert accuracy_alpha(Fraction(7, 2), Fraction(7, 2)) == -300.0
        assert accuracy_alpha(3.5, 3.5) == -300.0
        for value in (7, Fraction(1, 3), mpmath.mpf(3.5), float_domain(256).coerce(Fraction(1, 3))):
            assert accuracy_alpha(value, value) == ALPHA_FLOOR
            assert accuracy_alpha(value, _exact_value(value)) == ALPHA_FLOOR

    def test_unit_difference_is_zero(self):
        assert abs(accuracy_alpha(Fraction(5), Fraction(4))) < 1e-12

    def test_rational_path_resolves_tiny_gaps(self):
        # differences far below double precision still produce finite alpha
        alpha = accuracy_alpha(Fraction(1, 10**40) + 5, Fraction(5))
        assert abs(alpha - (-40)) < 1e-9
        # from a float eigenvalue too: xi is not rounded to 53 bits first
        alpha = accuracy_alpha(Fraction(21) + Fraction(1, 10**20), 21.0)
        assert abs(alpha - (-20)) < 1e-12

    @pytest.mark.parametrize("kinds", [("fraction", "fraction"), ("float", "float"),
                                       ("mpf53", "mpf53"), ("mpf128", "mpf128"),
                                       ("mpf256", "mpf256"), ("fraction", "float"),
                                       ("mpf128", "float"), ("mpf256", "fraction")])
    def test_random_pairs_match_the_log_of_the_exact_difference(self, kinds):
        rng = random.Random("-".join(kinds))
        for _ in range(300):
            mu = _random_rational(rng)
            # half the pairs are near hits, 2^-1 to 2^-200 apart relative to mu
            xi = mu * (1 + Fraction(1, 2 ** rng.randint(1, 200))) if rng.random() < 0.5 \
                else _random_rational(rng)
            xi, mu = (_of_kind(kind, value) for kind, value in zip(kinds, (xi, mu)))
            gap = abs(_exact_value(xi) - _exact_value(mu))
            if gap:
                with mpmath.workprec(256):
                    expected = float(mpmath.log10(gap.numerator) - mpmath.log10(gap.denominator))
                assert abs(accuracy_alpha(xi, mu) - max(expected, ALPHA_FLOOR)) < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, mpmath.nan, mpmath.inf])
    def test_non_finite_input_raises(self, bad):
        with pytest.raises(ValueError, match="not a finite number"):
            accuracy_alpha(bad, 1.0)
        with pytest.raises(ValueError, match="not a finite number"):
            accuracy_alpha(Fraction(1, 3), bad)


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10**40, 10**40), 10**40 - rng.randint(0, 10**30)) \
        * Fraction(2) ** rng.randint(-80, 80)


def _of_kind(kind: str, value: Fraction):
    """``value`` as a Fraction, a float or an mpf rounded to the bits of "mpf<bits>"."""
    if kind == "fraction":
        return value
    if kind == "float":
        return float(value)
    return float_domain(int(kind[3:])).coerce(value)


class TestSpectralBounds:
    def test_antiregular_largest_bound_tight(self, e3):
        report = spectral_bounds(e3)
        assert report.largest_bound == 10
        assert report.all_ok

    def test_e2_second_eigenvalue_bound(self, e2):
        report = spectral_bounds(e2)
        d_sorted = sorted(e2.degrees, reverse=True)
        assert d_sorted[1] == 10
        assert report.eigenvalues[1] >= d_sorted[1] - 2 + 2
        assert report.all_ok

    def test_complete_graph_bounds(self):
        report = spectral_bounds(complete_graph(7))
        assert report.all_ok

    def test_bounds_hold_on_generated_graphs(self):
        graphs = [erdos_renyi(n, p, seed) for n in (6, 12) for p in (0.25, 0.6) for seed in (1, 2)]
        graphs += [ring_with_core(11, 2), antiregular(9), complete_graph(5)]
        for g in graphs:
            assert spectral_bounds(g).all_ok
