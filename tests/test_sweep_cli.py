from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import lap_perturb.cli as cli
import lap_perturb.euler as euler
import lap_perturb.perturb as perturb
import lap_perturb.sweep as sweep
from lap_perturb.cli import main
from lap_perturb.domain import NumberDomain, exact_domain, float_domain
from lap_perturb.eigen import accuracy_alpha, symmetric_eigen
from lap_perturb.examples_data import example_graph
from lap_perturb.graph import _ArrayRows, build_graph, format_edge_list, laplacian, perturbed_matrix
from lap_perturb.sweep import ExperimentConfig, resolve_graph_source, run_sweep, select_nodes
from oracles import eigsy_eigenvalues


class TestSelectNodes:
    def test_max_unique_degree(self, e2):
        assert select_nodes(e2, "max_unique_degree") == (7,)

    def test_all_unique(self, e2):
        assert select_nodes(e2, "all_unique") == (3, 4, 7, 13)

    def test_explicit_index(self, e2):
        assert select_nodes(e2, 13) == (13,)
        assert select_nodes(e2, 1) == ()  # degree 4 is shared

    @pytest.mark.parametrize("q", [0, 21, -1])
    def test_index_out_of_range(self, e2, q):
        with pytest.raises(ValueError, match=rf"^node {q} out of range 1\.\.20$"):
            select_nodes(e2, q)

    def test_unknown_selector(self, e2):
        with pytest.raises(ValueError):
            select_nodes(e2, "best")


class TestRunSweep:
    def test_deterministic_rows(self):
        config = ExperimentConfig(trials=8, n_grid=(10,), p_grid=(Fraction(2, 5),), seed=5)
        first, _ = run_sweep(config)
        second, _ = run_sweep(config)
        assert [c.row() for c in first] == [c.row() for c in second]

    def test_skipped_trials_counted(self):
        # dense tiny graphs frequently have no unique-degree node
        config = ExperimentConfig(trials=20, n_grid=(5,), p_grid=(Fraction(9, 10),), seed=1)
        cells, _ = run_sweep(config)
        (cell,) = cells
        assert cell.trials == 20
        assert cell.skipped > 0
        assert 0 <= cell.converged <= cell.trials - cell.skipped

    def test_degenerate_single_graph_sweep(self):
        config = ExperimentConfig(graph_source="example:e2", q_selector=13,
                                  t_grid=(Fraction(-1),), K_max=30, K_check=30)
        cells, details = run_sweep(config, detail=True)
        assert len(cells) == 1 and len(details) == 1
        assert details[0].q == 13 and details[0].converged
        assert run_sweep(config) == (cells, ())

    def test_records_keep_no_instance_dict(self):
        # a run may keep thousands of records; slots hold each in a fixed few words
        config = ExperimentConfig(graph_source="example:e2", q_selector=13,
                                  t_grid=(Fraction(-1),), K_max=30, K_check=30)
        (cell,), (record,) = run_sweep(config, detail=True)
        for obj in (cell, record):
            assert not hasattr(obj, "__dict__")
            with pytest.raises((AttributeError, TypeError)):  # TypeError: frozen slots on 3.10-3.11
                obj.n = 1

    def test_single_graph_is_one_trial(self):
        # one graph, eight unique-degree nodes classified; n_grid, trials and seed are ignored
        config = ExperimentConfig(graph_source="example:e3", q_selector="all_unique",
                                  t_grid=(Fraction(-2),), K_max=100, K_check=100,
                                  trials=5, n_grid=(7, 9), seed=3)
        (cell,), _ = run_sweep(config)
        assert cell.row() == (10, "", "-2", 1, 0, 1, "0.125000")
        assert cell.classified == 8

    def test_multi_node_fraction_at_most_one(self):
        # one ER(8, 1/2) graph with two unique-degree nodes, both converged at t = -2
        config = ExperimentConfig.from_json(
            '{"q_selector": "all_unique", "t_grid": [-2], "trials": 1, "n_grid": [8], '
            '"p_grid": ["1/2"], "seed": 72}')
        (cell,), _ = run_sweep(config)
        assert (cell.trials, cell.skipped, cell.classified, cell.converged) == (1, 0, 2, 2)
        assert cell.fraction == 1.0
        assert cell.row()[-1] == "1.000000"

    def test_partial_sum_beyond_float_range_is_diverged(self):
        # at zeta = -10^12 the K = 30 exact partial sums exceed the float range
        config = ExperimentConfig(trials=3, t_grid=(Fraction(0),), zeta=Fraction(-10**12), seed=1000)
        cells, details = run_sweep(config, detail=True)
        assert len(details) == 3
        assert all(abs(r.xi) == math.inf and not r.converged for r in details)
        assert {r.xi for r in details} == {math.inf, -math.inf}
        assert cells[0].converged == 0

    @pytest.mark.parametrize("value, expected", [
        (Fraction(-10**400), -math.inf),
        (Fraction(10**400, 3), math.inf),
        (mpmath.mpf("-1e400"), -math.inf),
        (Fraction(10**305), 1e305),
        (-Fraction(17, 10) * 10**308, -1.7e308),
    ], ids=["fraction-low", "fraction-high", "mpf-low", "fraction-1e305", "fraction-near-max"])
    def test_xi_keeps_sign_and_double_range(self, value, expected):
        assert sweep._float(value) == expected

    def test_hugely_negative_xi_detail(self, tmp_path, capsys):
        # xi_30 at t = 0 is about -1.56e583: far below the double range
        path = tmp_path / "path.edges"
        path.write_text("n 5\n1 2 1\n2 3 1.00000000000000000001\n3 4 1\n4 5 1\n")
        assert main(["sweep", "--source", f"file:{path}", "--q", "4", "--t", "0", "--detail"]) == 0
        (row,) = capsys.readouterr().out.strip().splitlines()[1:]
        assert row.split(",")[3] == "-inf"

    def test_singular_t_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            ExperimentConfig(t_grid=(Fraction(1),), zeta=Fraction(-1))

    @pytest.mark.parametrize("kwargs, message", [
        ({"K_max": 1, "K_check": 1}, "K_max must be at least 2, not 1"),
        ({"K_check": 1}, "K_check must be at least 2, not 1"),
        ({"K_check": 0, "trials": 0}, "K_check must be at least 2, not 0"),
    ], ids=["K_max-1", "K_check-1", "K_check-0"])
    def test_order_below_two_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig(**kwargs)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig.from_json(json.dumps(kwargs))

    @pytest.mark.parametrize("text, key", [
        ('{"K_max": "30"}', "K_max"),
        ('{"t_grid": 5}', "t_grid"),
        ('{"trails": 3}', "trails"),
    ], ids=["string-int", "scalar-grid", "unknown-key"])
    def test_config_json_bad_key_named(self, text, key):
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            ExperimentConfig.from_json(text)

    def test_config_json_float_domain(self):
        assert ExperimentConfig.from_json('{"domain": "float"}').domain == float_domain(128)

    def test_config_json_must_be_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentConfig.from_json("[1, 2]")

    def test_config_json_round_trip(self):
        text = json.dumps({
            "graph_source": "erdos_renyi", "q_selector": "max_unique_degree",
            "t_grid": ["-1", "-2"], "zeta": "-1", "K_max": 12, "K_check": 12,
            "trials": 3, "n_grid": [8], "p_grid": ["0.3"], "seed": 11,
            "alpha_threshold": -4.0, "domain": "exact_rational",
        })
        config = ExperimentConfig.from_json(text)
        assert config.t_grid == (Fraction(-1), Fraction(-2))
        assert config.p_grid == (Fraction(3, 10),)
        cells, _ = run_sweep(config)
        assert len(cells) == 2  # one per t


# four t, one of them repeated, all regular at zeta = -1/3
MULTI_T = (Fraction(-1), Fraction(-1, 2), Fraction(-3), Fraction(-1))
DOMAINS = [pytest.param(exact_domain(), id="exact"), pytest.param(float_domain(128), id="128")]


def _multi_t_config(domain, source="erdos_renyi", selector="all_unique"):
    return ExperimentConfig(graph_source=source, q_selector=selector, t_grid=MULTI_T,
                            zeta=Fraction(-1, 3), K_max=12, K_check=12, domain=domain,
                            trials=6, n_grid=(12,), p_grid=(Fraction(1, 5),), seed=7)


class TestSweepWorkPerTrial:
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_one_draw_spectrum_and_table_per_trial(self, monkeypatch, domain):
        calls = {"erdos_renyi": [], "symmetric_eigen": [], "coefficients": [], "_stack": []}

        def counted(name, key):
            fn = getattr(sweep, name)

            def wrapper(*args, **kwargs):
                calls[name].append(key(*args))
                return fn(*args, **kwargs)
            monkeypatch.setattr(sweep, name, wrapper)

        counted("erdos_renyi", lambda n, p, seed: seed)
        counted("symmetric_eigen", lambda matrix: matrix)
        counted("coefficients", lambda g, q, K, domain: (g.weights, q))
        counted("_stack", lambda g, nodes, K, domain: (g.weights, nodes))
        expanded, expand = [], perturb._expand

        def counted_expand(g, nodes, *args, **kwargs):
            expanded.append((g.weights, nodes))
            return expand(g, nodes, *args, **kwargs)
        monkeypatch.setattr(perturb, "_expand", counted_expand)
        config = _multi_t_config(domain)
        cells, details = run_sweep(config, detail=True)
        drawn = config.trials - cells[0].skipped
        assert drawn > 0
        assert sum(c.classified for c in cells) == len(details)
        assert all(c.fraction <= 1 for c in cells)
        assert len(calls["erdos_renyi"]) == len(set(calls["erdos_renyi"])) == config.trials
        assert len(calls["symmetric_eigen"]) == drawn
        pairs = calls["coefficients"]
        assert len(pairs) == len(set(pairs))
        assert len(pairs) * len(MULTI_T) == len(details)
        # one residue engine call per drawn graph, which every table of the graph reads
        stacks = calls["_stack"]
        assert len(stacks) == len({weights for weights, _ in stacks}) == drawn
        assert [(weights, q) for weights, nodes in stacks for q in nodes] == pairs
        assert expanded == stacks

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_sweep_builds_no_beta(self, monkeypatch, e2, domain):
        # no verdict reads beta, so a sweep never makes the rows
        built = []
        beta_rows = perturb.beta_rows

        def counted(*args):
            built.append(None)
            return beta_rows(*args)
        monkeypatch.setattr(perturb, "beta_rows", counted)
        _, details = run_sweep(_multi_t_config(domain), detail=True)
        assert details and built == []
        assert perturb.reconstruct_eigenvector(e2, 13, -1, 6, domain)  # a call is counted
        assert len(built) == 1

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("source, selector", [
        ("erdos_renyi", "all_unique"),
        ("erdos_renyi", "max_unique_degree"),
        ("example:e3", "all_unique"),
    ])
    def test_multi_t_sweep_is_concatenated_single_t_sweeps(self, domain, source, selector):
        config = _multi_t_config(domain, source, selector)
        cells, details = run_sweep(config, detail=True)
        singles = [run_sweep(dataclasses.replace(config, t_grid=(t,)), detail=True)
                   for t in MULTI_T]
        assert cells == tuple(c for single_cells, _ in singles for c in single_cells)
        assert details == tuple(r for _, single_details in singles for r in single_details)
        assert len(details) > len(MULTI_T)

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_tables_and_series_stop_at_K_check(self, monkeypatch, domain):
        # a sweep reads no order above K_check, so a larger K_max changes nothing
        tables, series = [], []
        coefficients, euler_series = sweep.coefficients, sweep.euler_series

        def counted_coefficients(g, q, K, domain):
            tables.append(K)
            return coefficients(g, q, K, domain)

        def counted_euler_series(table, params):
            series.append(params.K_max)
            return euler_series(table, params)
        monkeypatch.setattr(sweep, "coefficients", counted_coefficients)
        monkeypatch.setattr(sweep, "euler_series", counted_euler_series)
        config = dataclasses.replace(_multi_t_config(domain), K_max=60, K_check=30)
        cells, details = run_sweep(config, detail=True)
        assert tables and set(tables) == {30}
        assert len(series) == len(details) and set(series) == {30}
        assert (cells, details) == run_sweep(dataclasses.replace(config, K_max=30), detail=True)

    @pytest.mark.parametrize("domain, selector", [
        pytest.param(float_domain(128), "all_unique", id="128-all_unique"),
        pytest.param(exact_domain(), "max_unique_degree", id="exact-max_unique_degree"),
    ])
    def test_a_sweep_makes_no_value_it_does_not_read(self, monkeypatch, domain, selector):
        # every value enters a domain through ``ratio``: a sweep makes the one partial sum
        # it reads per series and a float series' zeta and t, and none of a table's values
        made, series = [], []
        ratio, euler_series = NumberDomain.ratio, sweep.euler_series

        def counted_ratio(self, numerator, denominator):
            made.append(self)
            return ratio(self, numerator, denominator)

        def kept_series(table, params):
            series.append(euler_series(table, params))
            return series[-1]
        monkeypatch.setattr(NumberDomain, "ratio", counted_ratio)
        monkeypatch.setattr(sweep, "euler_series", kept_series)
        config = dataclasses.replace(_multi_t_config(domain, selector=selector), K_max=30,
                                     K_check=30)
        _, details = run_sweep(config, detail=True)
        read = sum(len(s.partial_sums._cache) for s in series)
        assert details and read == len(series) == len(details)
        assert made == [domain] * (read if domain.is_exact else 3 * read)

    def test_tampered_eigenvector_fails_the_residual_check(self, monkeypatch):
        eigh = np.linalg.eigh

        def tampered(array):
            values, vectors = eigh(array)
            vectors[:, 0] = math.nan
            return values, vectors
        monkeypatch.setattr(np.linalg, "eigh", tampered)
        with pytest.raises(RuntimeError, match="residual"):
            run_sweep(_multi_t_config(exact_domain()))


    @pytest.mark.parametrize("zeta", [Fraction(-1), Fraction(-1, 3)], ids=str)
    def test_tampered_eigenvector_fails_the_residual_check_on_drawn_graphs(self, monkeypatch, zeta):
        # the M(zeta) of a drawn graph is made from its weight array, in ints at zeta = -1
        eigh = np.linalg.eigh
        solved = []

        def tampered(array):
            values, vectors = eigh(array)
            vectors[3, -1] = math.nan
            return values, vectors

        def kept(matrix):
            solved.append(matrix)
            return symmetric_eigen(matrix)
        monkeypatch.setattr(np.linalg, "eigh", tampered)
        monkeypatch.setattr(sweep, "symmetric_eigen", kept)
        with pytest.raises(RuntimeError, match="residual"):
            run_sweep(ExperimentConfig(zeta=zeta, trials=3, n_grid=(20,), p_grid=(Fraction(1, 2),)))
        assert len(solved) == 1 and isinstance(solved[0], _ArrayRows)


class TestResolveGraphSource:
    def test_generator_specs(self):
        assert resolve_graph_source("ring_with_core:8,1").degrees[0] == 7
        assert resolve_graph_source("antiregular:10").degrees == (5, 5, 4, 6, 3, 7, 2, 8, 1, 9)
        assert resolve_graph_source("complete:4").degrees == (3, 3, 3, 3)
        assert resolve_graph_source("erdos_renyi:10,0.3,7").n == 10

    def test_file_source(self, tmp_path):
        g = build_graph(4, [(1, 2), (2, 3, Fraction(1, 2))])
        path = tmp_path / "g.edges"
        path.write_text(format_edge_list(g))
        assert resolve_graph_source(f"file:{path}").weights == g.weights

    def test_unknown_source(self):
        with pytest.raises(ValueError, match="unknown graph source"):
            resolve_graph_source("petersen:10")


# SHA-256 of the reproduce CSVs.  e1.csv and e2.csv hold only exact series and
# 128-bit mpmath values; e3.csv and almost_regular.csv also hold LAPACK float64
# eigenvalues and the alphas of their exact differences from the series
REPRODUCE_CSV_SHA256 = {
    "e1": "5237df42ef162320623ea924a2a0ccfefcf94283939e520c3eb89bab41425cc0",
    "e2": "f569135f411a01278b143a926158ed8ae07af49ef779f583664a0b90e0d418e1",
    "e3": "d73b1824da97dc902f36f8d6766c5759691444bca3f9d26a850c065f9a72fa41",
    "almost_regular": "112d86effaabb667775b8ed567d1ea451cc0c7e7dc422b01b0d74d53b80f8371",
}

# SHA-256 of the stdout of `euler` and `taylor`, whose alpha column is
# computed per order against the matched eigenvalue of M(zeta)
SERIES_STDOUT_SHA256 = {
    "euler-e2-exact": (["euler", "--example", "e2", "--q", "13", "--K", "100"],
                       "01b1883cf8788fc48cbb3ad87126daeb6b2daed024d48432dd85a491061fd164"),
    "euler-e2-53": (["euler", "--example", "e2", "--q", "13", "--K", "100", "--prec", "53"],
                    "451629f66b67f956493b826da7e2723ca3de1aaf91e7db2a626f915bfd7528bb"),
    "taylor-e3-exact": (["taylor", "--example", "e3", "--q", "10", "--K", "60", "--zeta", "-1/3"],
                        "086c5c0f39e652697cd93d981a94374dc0fe50e034f4e796e60a07a58ed6efa1"),
    "taylor-e3-53": (["taylor", "--example", "e3", "--q", "10", "--K", "60", "--zeta", "-1/3",
                      "--prec", "53"],
                     "a4287ea155a2355b77dd6a873b1ba3ea0d825c0bf08a4bc8824c32a8f2d603cb"),
}

# SHA-256 of the stdout of a 256-bit Euler series and a 24-bit table, the
# precision extremes of the float domains
PRECISION_STDOUT_SHA256 = {
    "euler-e2-256": (["euler", "--example", "e2", "--q", "13", "--K", "30", "--prec", "256"],
                     "c062205a624202325a989a26c420b63006e11d1b78d237cebf92fed0e4908182"),
    "coeffs-e2-24": (["coeffs", "--example", "e2", "--q", "13", "--K", "8", "--prec", "24",
                      "--json"],
                     "8c2dce59090fc736898eb1190715ab5d23ce4306e6a284e51118bad0e35833a3"),
}

# SHA-256 of the stdout of `oracle`, pinned before it stopped setting a working
# precision: certified 128 and 256-bit spectra, and e3's at 53 bits
ORACLE_STDOUT_SHA256 = {
    "e2-128": (["oracle", "--example", "e2", "--prec", "128"],
               "320bde3afa1f042930911eadc242e3d0b1145851344a2ce08022a4606b5e1da5"),
    "e3-256": (["oracle", "--example", "e3", "--prec", "256"],
               "b406b2e313236119096354063e8c7fb2de5521cfb2773de831c3a38c5e3e4ba6"),
    "e3-53": (["oracle", "--example", "e3"],
              "3003dd9a6f5233926a5427b120b614ba4ffaec35ffa7a93b0fdae6980a5175e9"),
}

# SHA-256 of `sweep --detail` CSVs in the 128-bit domain: the benchmark's
# t-grid shape (ER(20, 1/2), every unique node, t = -1..-5 at zeta = -1) and a
# grid with a fractional zeta, zero and positive t
SWEEP_128_CONFIGS = {
    "tgrid": ({"q_selector": "all_unique", "t_grid": [-1, -2, -3, -4, -5], "zeta": -1,
               "K_max": 30, "K_check": 30, "domain": {"precision_bits": 128}, "trials": 6,
               "n_grid": [20], "p_grid": ["1/2"], "seed": 0},
              "d3491090f0c0774a34ff79aba13c9760c08398630551a040001e8441feda03c1"),
    "zeta-third": ({"q_selector": "all_unique", "t_grid": [-3, -1, "-1/2", 0, 2], "zeta": "-1/3",
                    "K_max": 30, "K_check": 30, "domain": {"precision_bits": 128}, "trials": 3,
                    "n_grid": [12, 20], "p_grid": ["1/5", "1/2"], "seed": 7},
                   "677ae420bd02857c0dbc95cba205eb18a4531c6b8509e7e6115343835b3d2198"),
}

# SHA-256 of the stdout of sweeps at n = 1000: three classified trials, and a
# cell whose three trials have no unique-degree node and are skipped
SWEEP_1000_STDOUT_SHA256 = {
    "detail-p-1/20": (["sweep", "--n", "1000", "--p", "1/20", "--trials", "3", "--detail"],
                      "c29fbb558518aedf6db18f167d4b87ccdd1301b494375f95e5e6d571c2ff4ff9"),
    "skipped-p-1/200": (["sweep", "--n", "1000", "--p", "1/200", "--trials", "3"],
                        "3b9f552995e4d46943f059c2549aac5f267b4b01ef3fdb28de7baebab2ebf208"),
}

# SHA-256 of the stdout of one classified ER(2000, 1/40) trial, made by the
# tuple-backed sweep before graphs kept their weights as an array.  Its
# matched_mu is LAPACK's, whose last bit at this size moves with the number of
# BLAS threads: the digest is that of a 2-thread x86-64 host.
SWEEP_2000_STDOUT_SHA256 = (["sweep", "--n", "2000", "--p", "1/40", "--trials", "1", "--detail"],
                            "0ebac4b3ee9a7a7060be469b4edbc0cfc4893bd70ae779ae0ca5b823a606cbba")

# SHA-256 of `sweep --detail` CSVs on a file graph: e3's edges with weights
# (2^28 + (u v mod 7)) / 3, so rational weights whose scaled row sums take two
# digits, every unique node and three t at 53 bits and exact; the threshold
# 3.9 is about -4 + log10(2^28 / 3), the scale of the weights
FILE_SWEEP_DOMAINS = {"53": {"precision_bits": 53}, "exact": "exact_rational"}
FILE_SWEEP_SHA256 = "c43a9243fb826e800d60b4eb544ba97f6cbeff1317e9117d0ad57568e947c1c8"


def _file_sweep_edges() -> str:
    g = example_graph("e3")
    return "".join([f"n {g.n}\n"] + [f"{u} {v} {Fraction(2**28 + (u * v) % 7, 3)}\n"
                                       for u, v, _ in g.edges()])


# a negative rational after --t or --zeta, in the form argparse would take for a flag
NEGATIVE_RATIONAL_ARGVS = {
    "euler-t": ["euler", "--example", "e2", "--q", "13", "--K", "12", "--t", "-1/2"],
    "euler-zeta": ["euler", "--example", "e2", "--q", "13", "--K", "12", "--zeta", "-1/2"],
    "taylor-zeta": ["taylor", "--example", "e1", "--q", "1", "--K", "6", "--zeta", "-1/3"],
    "euler-zeta-exponent": ["euler", "--example", "e2", "--q", "13", "--K", "12",
                            "--zeta", "-1e-1"],
    "contour-zeta": ["contour", "--gen", "ring_with_core:21,1", "--zeta", "-1/2"],
    "sweep-t": ["sweep", "--n", "8", "--trials", "2", "--t", "-1/2,-1"],
}

# files that the CLI reads: edge lists with a zero denominator and with a
# weight beyond the float64 range that the 53-bit oracle cannot take, and a
# sweep config whose threshold no alpha can be compared with
BAD_INPUT_FILES = {"zero": "n 3\n1 2 -1/0\n2 3\n", "huge": "n 3\n1 2 1e400\n2 3\n",
                   "nan_threshold": '{"alpha_threshold": NaN}'}

BAD_INPUT_ARGVS = {
    "t-zero-denominator": ["euler", "--example", "e2", "--q", "13", "--t", "1/0"],
    "p-zero-denominator": ["sweep", "--n", "6", "--trials", "1", "--p", "1/0"],
    "weight-zero-denominator": ["euler", "--graph", "{zero}", "--q", "3"],
    "huge-weight-euler": ["euler", "--graph", "{huge}", "--q", "3"],
    "huge-weight-oracle": ["oracle", "--graph", "{huge}"],
    "huge-weight-sweep": ["sweep", "--source", "file:{huge}", "--trials", "1"],
    # a threshold or trial count that would make every verdict the same
    "nan-threshold-euler": ["euler", "--example", "e2", "--q", "13", "--alpha-threshold", "nan"],
    "inf-threshold-euler": ["euler", "--example", "e2", "--q", "13", "--alpha-threshold", "inf"],
    "nan-threshold-sweep": ["sweep", "--alpha-threshold", "nan", "--trials", "1"],
    "nan-threshold-config": ["sweep", "--config", "{nan_threshold}"],
    "negative-trials": ["sweep", "--n", "6", "--trials", "-3"],
    # a working precision below 24 bits, or too coarse for the contour's rel_tol
    "prec-0-coeffs": ["coeffs", "--example", "e2", "--q", "13", "--prec", "0"],
    "prec-0-taylor": ["taylor", "--example", "e2", "--q", "13", "--prec", "0"],
    "prec-0-euler": ["euler", "--example", "e2", "--q", "13", "--prec", "0"],
    "prec-20-euler": ["euler", "--example", "e2", "--q", "13", "--prec", "20"],
    "prec-0-exact-euler": ["euler", "--example", "e2", "--q", "13", "--exact", "--prec", "0"],
    "prec-0-oracle": ["oracle", "--example", "e2", "--prec", "0"],
    "prec-16-oracle": ["oracle", "--example", "e2", "--prec", "16"],
    "prec-0-contour": ["contour", "--gen", "ring_with_core:21,1", "--zeta", "-1/2", "--prec", "0"],
    "prec-8-contour": ["contour", "--gen", "ring_with_core:21,1", "--zeta", "-1/2", "--prec", "8"],
    "prec-24-contour": ["contour", "--gen", "ring_with_core:21,1", "--zeta", "-1/2", "--prec", "24"],
}

# a node index outside 1..n (n = 20), on the command line or in a sweep config
OUT_OF_RANGE_NODE_ARGVS = {
    **{f"{cmd}-q{q}": ([cmd, "--example", "e2", "--q", str(q)], q)
       for cmd in ("euler", "taylor", "coeffs") for q in (0, 21)},
    **{f"sweep-q{q}": (["sweep", "--q", str(q), "--trials", "2"], q) for q in (0, 21)},
    "sweep-e2-q99": (["sweep", "--source", "example:e2", "--q", "99"], 99),
    "sweep-config-q99": (["sweep", "--config", "{config}"], 99),
}

REPRODUCE_FIRST_CHECK = {
    "e1": "PASS e1 xi_1;4(-1) = 4.21875",
    "e2": "PASS e2 xi_13;2(-1) = 10.48154762",
    "e3": "PASS e3 Laplacian spectrum = (10, 9, 8, 7, 6, 4, 3, 2, 1, 0)",
    "almost_regular": "PASS ring_with_core(21,1): series at zeta=-1 converges to mu_1",
}


class TestCli:
    def test_coeffs_exact(self, capsys):
        assert main(["coeffs", "--example", "e1", "--q", "1", "--K", "4", "--exact"]) == 0
        assert capsys.readouterr().out.strip() == "c2=2/1,c3=0/1,c4=-5/2"

    def test_coeffs_json(self, capsys):
        assert main(["coeffs", "--example", "e1", "--q", "5", "--K", "4", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["c"] == ["0/1", "0/1", "2/1"]

    def test_coeffs_json_float_matches_plain_line(self, capsys):
        argv = ["coeffs", "--example", "e2", "--q", "13", "--K", "5", "--prec", "53"]
        assert main(argv) == 0
        plain = [part.split("=")[1] for part in capsys.readouterr().out.strip().split(",")]
        assert plain[0] == "1.9261904761904762"
        assert main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"q": 13, "K": 5, "c": plain}

    def test_oracle_integer_spectrum(self, capsys):
        assert main(["oracle", "--example", "e3"]) == 0
        data = json.loads(capsys.readouterr().out)
        values = [round(float(v)) for v in data["eigenvalues"]]
        assert values == [10, 9, 8, 7, 6, 4, 3, 2, 1, 0]

    def test_euler_csv_final_row(self, capsys):
        assert main(["euler", "--example", "e2", "--q", "7", "--t", "-1", "--K", "30"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0].split(",")[:4] == ["q", "t", "K", "xi"]
        last = rows[-1].split(",")
        assert last[:3] == ["7", "-1", "30"]
        assert abs(float(last[3]) - 13.35139267) < 5e-9
        assert last[6] == "true"

    def test_taylor_zeta_zero(self, capsys):
        assert main(["taylor", "--example", "e1", "--q", "1", "--K", "4",
                     "--zeta", "0", "--exact"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert all(row.split(",")[3] == "3/1" for row in rows[1:])

    def test_edge_list_file_input(self, tmp_path, capsys, e1):
        path = tmp_path / "tree.edges"
        path.write_text(format_edge_list(e1))
        assert main(["coeffs", "--graph", str(path), "--q", "1", "--K", "4", "--exact"]) == 0
        assert capsys.readouterr().out.strip() == "c2=2/1,c3=0/1,c4=-5/2"

    def test_contour_json(self, capsys):
        assert main(["contour", "--gen", "ring_with_core:21,1", "--zeta", "-1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"radius", "points", "branch_ok", "value"}
        assert data["branch_ok"] is True
        assert abs(float(data["value"]) - 21) < 1e-12

    @pytest.mark.parametrize("gen, zeta, stdout", [
        ("ring_with_core:21,1", "-1",
         '{"radius": 0.089564392373896, "points": 1024, "branch_ok": true, "value": "21.0"}'),
        ("ring_with_core:21,1", "-1/2",
         '{"radius": 0.089564392373896, "points": 1024, "branch_ok": true, '
         '"value": "20.27361849549570375251642"}'),
        ("ring_with_core:31,3", "-1/2",
         '{"radius": 0.05408329997330664, "points": 1024, "branch_ok": true, '
         '"value": "30.28533025558642256818538"}'),
    ])
    def test_contour_stdout_pinned(self, capsys, gen, zeta, stdout):
        assert main(["contour", "--gen", gen, "--zeta", zeta]) == 0
        assert capsys.readouterr().out == stdout + "\n"

    def test_contour_error_exit_code(self, capsys):
        assert main(["contour", "--gen", "ring_with_core:21,9", "--zeta", "-1"]) == 2
        assert "branch condition" in capsys.readouterr().err

    def test_contour_points_at_or_above_cap_exit_code(self, capsys):
        # the cap is 2**14: 32768 starting points used to run past it
        assert main(["contour", "--gen", "ring_with_core:21,1", "--points", "32768"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: quad_points = 32768 must be below max_points = 16384\n"
        assert captured.out == ""

    @pytest.mark.parametrize("radius, shown", [("0", "0"), ("-0.1", "-1/10")])
    def test_contour_non_positive_radius_exit_code(self, capsys, radius, shown):
        assert main(["contour", "--gen", "ring_with_core:21,1", f"--radius={radius}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: radius must be positive, not {shown}\n"
        assert captured.out == ""

    def test_contour_empty_radius_exit_code(self, capsys):
        # an empty --radius= is an invalid number, as an empty --zeta= is, not the default
        assert main(["contour", "--gen", "ring_with_core:21,1", "--radius="]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: Invalid literal for Fraction: ''\n"
        assert captured.out == ""

    def test_sweep_csv(self, capsys):
        assert main(["sweep", "--n", "10", "--p", "0.4", "--trials", "4", "--seed", "2"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "n,p,t,trials,skipped,converged,fraction"
        assert rows[1].startswith("10,2/5,-1,4,")

    def test_sweep_byte_identical_runs(self, capsys):
        args = ["sweep", "--n", "9", "--p", "0.5", "--trials", "5", "--seed", "9", "--detail"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("example", list(REPRODUCE_FIRST_CHECK))
    def test_reproduce(self, capsys, tmp_path, example):
        assert main(["reproduce", example, "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert REPRODUCE_FIRST_CHECK[example] in out
        assert "FAIL" not in out
        assert "all reference checks passed" in out
        assert (tmp_path / f"{example}.csv").exists()
        if example in REPRODUCE_CSV_SHA256:
            digest = hashlib.sha256((tmp_path / f"{example}.csv").read_bytes()).hexdigest()
            assert digest == REPRODUCE_CSV_SHA256[example]

    def test_reproduce_failed_check_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "E1_LAPLACIAN_MU", ("4.17008",) + cli.E1_LAPLACIAN_MU[1:])
        assert main(["reproduce", "e1", "--out-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL e1 Laplacian eigenvalue = 4.17008\n" in out
        assert out.count("FAIL") == 2  # the check and the summary line
        assert out.endswith("1 reference check(s) FAILED\n")

    def test_reproduce_almost_regular_builds_each_table_once(self, capsys, tmp_path, monkeypatch):
        built = []

        def counted(g, q, K, domain=None):
            built.append(K)
            return perturb.coefficients(g, q, K, domain)
        monkeypatch.setattr(cli, "coefficients", counted)
        assert main(["reproduce", "almost_regular", "--out-dir", str(tmp_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        # ring_with_core(21, 1) and (21, 9), then the three closed-form checks
        assert built == [80, 60, 10, 10, 10]

    @pytest.mark.parametrize("name", list(SERIES_STDOUT_SHA256))
    def test_series_stdout_bytes(self, capsys, name):
        argv, sha256 = SERIES_STDOUT_SHA256[name]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("ambient", [None, 24, 256])
    @pytest.mark.parametrize("name", list(ORACLE_STDOUT_SHA256))
    def test_oracle_stdout_bytes(self, capsys, name, ambient):
        argv, sha256 = ORACLE_STDOUT_SHA256[name]
        with _working_precision(ambient):
            assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("name", list(PRECISION_STDOUT_SHA256))
    def test_precision_extremes_stdout_bytes(self, capsys, name):
        argv, sha256 = PRECISION_STDOUT_SHA256[name]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    def test_reproduce_e3_alpha_calls(self, capsys, tmp_path, monkeypatch):
        # 40 series: 10 to match each, and 4 printed orders
        calls = []

        def counted(xi, mu):
            calls.append(None)
            return accuracy_alpha(xi, mu)
        for module in (cli, euler):
            monkeypatch.setattr(module, "accuracy_alpha", counted)
        assert main(["reproduce", "e3", "--out-dir", str(tmp_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert len(calls) <= 600

    def test_reproduce_e3_solves_its_laplacian_once(self, capsys, tmp_path, monkeypatch):
        # the spectrum check and every classification read one spectrum
        solved = []

        def counted(matrix, *args, **kwargs):
            solved.append(matrix)
            return symmetric_eigen(matrix, *args, **kwargs)
        for module in (cli, sweep):
            monkeypatch.setattr(module, "symmetric_eigen", counted)
        assert main(["reproduce", "e3", "--out-dir", str(tmp_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert solved == [laplacian(example_graph("e3"))]

    @pytest.mark.parametrize("name", list(SWEEP_128_CONFIGS))
    def test_sweep_detail_128_bytes(self, capsys, tmp_path, name):
        config, sha256 = SWEEP_128_CONFIGS[name]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "detail.csv"
        assert main(["sweep", "--config", str(path), "--detail", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("name", list(SWEEP_1000_STDOUT_SHA256))
    def test_sweep_1000_stdout_bytes(self, capsys, name):
        argv, sha256 = SWEEP_1000_STDOUT_SHA256[name]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    def test_sweep_2000_stdout_bytes(self, capsys):
        argv, sha256 = SWEEP_2000_STDOUT_SHA256
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("domain", list(FILE_SWEEP_DOMAINS))
    def test_sweep_detail_file_graph_bytes(self, capsys, tmp_path, domain):
        graph = tmp_path / "g.edges"
        graph.write_text(_file_sweep_edges())
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"graph_source": f"file:{graph}", "q_selector": "all_unique",
                                    "t_grid": [-2, -4, "-11/2"], "alpha_threshold": 3.9,
                                    "domain": FILE_SWEEP_DOMAINS[domain]}))
        out = tmp_path / "detail.csv"
        assert main(["sweep", "--config", str(path), "--detail", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FILE_SWEEP_SHA256

    @pytest.mark.parametrize("argv", list(NEGATIVE_RATIONAL_ARGVS.values()),
                             ids=list(NEGATIVE_RATIONAL_ARGVS))
    def test_negative_rational_values(self, capsys, argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        if argv[0] == "euler":
            assert main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == 0
            assert capsys.readouterr().out == out

    def test_missing_graph_file_exit(self, capsys, tmp_path):
        missing = tmp_path / "absent.edges"
        assert main(["euler", "--graph", str(missing), "--q", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert err.count("\n") == 1

    def test_unwritable_out_exit(self, capsys, tmp_path):
        out = tmp_path / "no-such-dir" / "cells.csv"
        assert main(["sweep", "--n", "6", "--trials", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", BAD_INPUT_ARGVS)
    def test_bad_input_exits_2_with_one_line(self, capsys, tmp_path, name):
        paths = {}
        for key, text in BAD_INPUT_FILES.items():
            paths[key] = tmp_path / key
            paths[key].write_text(text)
        assert main([arg.format(**paths) for arg in BAD_INPUT_ARGVS[name]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", OUT_OF_RANGE_NODE_ARGVS)
    def test_node_out_of_range_exits_2(self, capsys, tmp_path, name):
        argv, q = OUT_OF_RANGE_NODE_ARGVS[name]
        config = tmp_path / "config.json"
        config.write_text('{"q_selector": 99, "trials": 2}')
        assert main([arg.format(config=config) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: node {q} out of range 1..20\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--K-check", "1", "--trials", "0"], "K_check must be at least 2, not 1"),
        (["sweep", "--K-check", "0", "--n", "3", "--p", "0", "--trials", "3"],
         "K_check must be at least 2, not 0"),
        (["sweep", "--K", "1", "--K-check", "1", "--n", "3", "--p", "0", "--trials", "3"],
         "K_max must be at least 2, not 1"),
        (["sweep", "--K-check", "1", "--trials", "2"], "K_check must be at least 2, not 1"),
        (["sweep", "--config", "{config}"], "K_check must be at least 2, not 1"),
    ], ids=["K-check-1-no-trials", "K-check-0", "K-1", "K-check-1", "config-K_check-1"])
    def test_order_below_two_exits_2_before_drawing(self, capsys, tmp_path, monkeypatch,
                                                    argv, message):
        drawn = []
        monkeypatch.setattr(sweep, "erdos_renyi", lambda *args: drawn.append(args))
        config = tmp_path / "config.json"
        config.write_text('{"K_check": 1, "trials": 2}')
        assert main([arg.format(config=config) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and not drawn

    def test_config_K_check_above_K_max_exits_2(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"K_max": 10, "K_check": 12}')
        assert main(["sweep", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: K_check cannot exceed K_max\n"
        assert captured.out == ""

    def test_nonunique_node_error_exit(self, capsys):
        assert main(["coeffs", "--example", "e2", "--q", "1", "--K", "4"]) == 2
        assert "unique degree" in capsys.readouterr().err


# zetas other than -1, none singular for t = 0 or t = -1, and graphs as sweep
# sources with their CLI arguments
MZETAS = (Fraction(-1, 3), Fraction(-1, 2), Fraction(1, 2))
MZETA_GRAPHS = {"example:e1": ["--example", "e1"], "example:e3": ["--example", "e3"],
                "erdos_renyi:12,1/2,7": ["--gen", "erdos_renyi:12,1/2,7"],
                "erdos_renyi:16,1/5,3": ["--gen", "erdos_renyi:16,1/5,3"]}


class TestMatchAgainstMZeta:
    """A series at zeta is matched against the spectrum of its own M(zeta) = diag(d) + zeta A."""

    @pytest.mark.parametrize("zeta", MZETAS)
    def test_matched_mu_is_an_eigenvalue_of_m_zeta(self, capsys, zeta):
        matched = 0
        for source, graph_args in MZETA_GRAPHS.items():
            g = resolve_graph_source(source)
            mus = eigsy_eigenvalues(perturbed_matrix(g, zeta), 128)
            config = ExperimentConfig(graph_source=source, q_selector="all_unique",
                                      t_grid=(Fraction(0), Fraction(-1)), zeta=zeta, K_max=20,
                                      K_check=20)
            found = [r.matched_mu for r in run_sweep(config, detail=True)[1]]
            for q in select_nodes(g, "all_unique")[:1]:
                for command in ("taylor", "euler"):
                    assert main([command, *graph_args, "--q", str(q), "--K", "20",
                                 "--zeta", str(zeta)]) == 0
                    rows = capsys.readouterr().out.splitlines()[1:]
                    found += [float(row.split(",")[5]) for row in rows]
            assert all(min(abs(mu - m) for m in mus) < 1e-9 for mu in found), source
            matched += len(found)
        assert matched > 0

    def test_e1_series_at_minus_a_third_converges(self, capsys):
        assert main(["taylor", "--example", "e1", "--q", "1", "--K", "60", "--zeta", "-1/3",
                     "--exact"]) == 0
        last = capsys.readouterr().out.splitlines()[-1].split(",")
        assert last[5:] == ["3.1979427475575077", "true"]
        assert abs(float(last[4]) - (-10.01)) < 0.01


@contextlib.contextmanager
def _working_precision(bits):
    """mpmath's process-wide working precision set to ``bits`` (kept for None), then restored."""
    ambient = mpmath.mp.prec
    if bits is not None:
        mpmath.mp.prec = bits
    try:
        yield
    finally:
        mpmath.mp.prec = ambient


# all_unique sweeps of e3 in the 128-bit and the exact domain, the exact one at
# zeta = -1/3; most of their series converge, to alphas of -6 to -15
AMBIENT_SWEEPS = {
    "128": {"graph_source": "example:e3", "q_selector": "all_unique", "t_grid": [-2, -3, -4],
            "K_max": 100, "K_check": 100, "domain": {"precision_bits": 128}},
    "exact-third": {"graph_source": "example:e3", "q_selector": "all_unique",
                    "t_grid": [-1, "-1/2", 2], "zeta": "-1/3", "K_max": 100, "K_check": 100},
}


def _sweep_bytes(name: str, directory) -> bytes:
    """The `sweep --detail` CSV of AMBIENT_SWEEPS[name], written under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    config, out = directory / f"{name}.json", directory / f"{name}.csv"
    config.write_text(json.dumps(AMBIENT_SWEEPS[name]))
    assert main(["sweep", "--config", str(config), "--detail", "--out", str(out)]) == 0
    return out.read_bytes()


class TestOutputsReadNoWorkingPrecision:
    """No sweep, series or alpha depends on mpmath's process-wide working precision."""

    @pytest.mark.parametrize("ambient", [24, 256])
    def test_sweeps_and_series_at_any_ambient_precision(self, tmp_path, ambient):
        expected = {name: _sweep_bytes(name, tmp_path / "one") for name in AMBIENT_SWEEPS}
        with _working_precision(ambient):
            got = {name: _sweep_bytes(name, tmp_path / "ambient") for name in AMBIENT_SWEEPS}
            for name, (argv, sha256) in SERIES_STDOUT_SHA256.items():
                out = tmp_path / f"{name}.csv"
                assert main(argv + ["--out", str(out)]) == 0
                assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256, name
        assert got == expected

    def test_sweeps_beside_a_256_bit_contour_thread(self, tmp_path, capsys):
        # a tiny switch interval makes the threads interleave inside every value
        expected = {name: _sweep_bytes(name, tmp_path / "one") for name in AMBIENT_SWEEPS}
        got = {name: [] for name in AMBIENT_SWEEPS}
        done = threading.Event()
        contours = []

        def contour():
            while not (done.is_set() and contours):
                contours.append(main(["contour", "--gen", "ring_with_core:21,1", "--zeta", "-1",
                                      "--prec", "256"]))

        def sweeps(name):
            for i in range(2):
                got[name].append(_sweep_bytes(name, tmp_path / f"{name}-{i}"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            background = threading.Thread(target=contour)
            background.start()
            threads = [threading.Thread(target=sweeps, args=(name,)) for name in AMBIENT_SWEEPS]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            done.set()
            background.join()
        finally:
            sys.setswitchinterval(interval)
        assert contours and set(contours) == {0}
        assert got == {name: [value] * 2 for name, value in expected.items()}
