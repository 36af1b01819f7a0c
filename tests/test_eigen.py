from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from lap_perturb.digits import matches_printed
from lap_perturb.eigen import accuracy_alpha, spectral_bounds, spectrum_to_json, symmetric_eigen
from lap_perturb.graph import (
    build_graph,
    antiregular,
    complete_graph,
    erdos_renyi,
    laplacian,
    ring_with_core,
)
from lap_perturb.sweep import resolve_graph_source
from oracles import reference_residual


# the Laplacian an infinite weight on edge (1, 2) would give; build_graph rejects that weight
INFINITE_WEIGHT_LAPLACIAN = ((math.inf, -math.inf, 0), (-math.inf, math.inf, -1), (0, -1, 1))
NAN_ENTRY_MATRIX = [[math.nan, 0], [0, 1]]
# a weight beyond the float64 range: LAPACK cannot take it, mpmath can
HUGE_WEIGHT_LAPLACIAN = laplacian(build_graph(3, [(1, 2, Fraction(10) ** 400), (2, 3, 1)]))


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
        # finite eigenvalues with a NaN column: the residual must not read as 0
        def fake_eigh(a):
            return np.array([0.0, 2.0]), np.array([[math.nan, 1.0], [math.nan, 0.0]])

        def fake_eigsy(a):
            return (mpmath.matrix([0, 2]),
                    mpmath.matrix([[mpmath.nan, 1], [mpmath.nan, 0]]))

        monkeypatch.setattr(np.linalg, "eigh", fake_eigh)
        monkeypatch.setattr(mpmath, "eigsy", fake_eigsy)
        with pytest.raises(RuntimeError, match="residual"):
            symmetric_eigen([[1, 1], [1, 1]], precision_bits=bits)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_eigen([[0, 1], [2, 0]])

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

    def test_unit_difference_is_zero(self):
        assert abs(accuracy_alpha(Fraction(5), Fraction(4))) < 1e-12

    def test_rational_path_resolves_tiny_gaps(self):
        # differences far below double precision still produce finite alpha
        alpha = accuracy_alpha(Fraction(1, 10**40) + 5, Fraction(5))
        assert abs(alpha - (-40)) < 1e-9


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
