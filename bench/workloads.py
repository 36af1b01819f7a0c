"""The benchmark's workloads: inputs made from the seed, the timed calls, and
the checks of their outputs.

A run is a few worker processes, each a closed loop from one thread: op
``i`` of worker ``k`` is one call into the program on inputs that no other op
of that process repeats, and the sweeps give every worker its own inputs.
``fixed_ops`` ops always run (they are the fixed work behind ``wall_norm_s``); the
loop then goes on while the time allows, up to ``max_ops``.  The program
functions are bound in this module's namespace, so a traced run wraps them as
this module sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
from fractions import Fraction
from pathlib import Path

from lap_perturb.almost_regular import almost_regular, almost_regular_series, contour_eigenvalue
from lap_perturb.cli import main as cli_main
from lap_perturb.domain import float_domain
from lap_perturb.euler import EulerParams, euler_series
from lap_perturb.examples_data import (
    E2_ADJACENCY,
    E2_Q3_XI,
    E2_Q7_XI,
    E2_Q7_XI_30,
    E2_Q13_XI,
    E2_Q13_XI_15,
    E3_ADJACENCY,
    example_graph,
)
from lap_perturb.graph import ring_with_core
from lap_perturb.perturb import coefficients
from lap_perturb.sweep import ExperimentConfig, run_sweep

import numpy as np

import checks
from checks import require

SEED_STRIDE = 10_000_000    # inputs of run seed s come from [s * SEED_STRIDE, (s + 1) * SEED_STRIDE)
WORKER_STRIDE = 1_000_000   # worker k takes the k-th block of that range


def _tally() -> dict:
    return {"records": 0, "skipped_trials": 0, "threshold_ties": 0, "nearest_ties": 0}


class Workload:
    fixed_ops: int
    max_ops: int | None = None

    @staticmethod
    def failed(result) -> bool:
        """Whether a call that returned ``result`` failed (raising always fails)."""
        return False


class SeededSweep(Workload):
    """A sweep whose op ``i`` is one ``run_sweep`` call on the ``i``-th seed
    of the worker's block that ``qualifies``; the first qualifying seed is
    the warm-up input."""

    def __init__(self, seed: int, worker: int, out_dir: Path) -> None:
        base = seed * SEED_STRIDE + worker * WORKER_STRIDE
        self._candidates = iter(range(base, base + WORKER_STRIDE))
        self.warmup_seed = self._next_seed()
        self.seeds: list = []

    def _next_seed(self) -> int:
        for s in self._candidates:
            if self.qualifies(s):
                return s
        raise RuntimeError("seed range exhausted")

    def setup(self) -> None:
        self.seeds = [self._next_seed() for _ in range(self.fixed_ops)]
        run_sweep(self.config(self.warmup_seed), detail=True)

    def op(self, i: int):
        while len(self.seeds) <= i:
            self.seeds.append(self._next_seed())
        config = self.config(self.seeds[i])
        return config, lambda: run_sweep(config, detail=True)


class ErSweep(SeededSweep):
    """The paper's ensemble experiment: exact rationals, ER(20, p) at p = 1/5
    and 4/5, t = -1, the max_unique_degree node, K = 30.  One op is one
    ``run_sweep`` call with one seeded trial per p (two graphs).  Seeds are
    kept when both graphs have a unique degree, so every op makes two full
    trials; a graph without one is skipped by the program in well under a
    millisecond and would only split the op times into two groups."""

    name = "er_sweep"
    fixed_ops = 30
    P_GRID = (Fraction(1, 5), Fraction(4, 5))

    def qualifies(self, seed: int) -> bool:
        return all(checks.unique_degree_nodes(checks.er_adjacency(20, p, seed + checks.CELL_STRIDE * c))
                   for c, p in enumerate(self.P_GRID))

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(trials=1, n_grid=(20,), p_grid=self.P_GRID,
                                t_grid=(Fraction(-1),), K_max=30, K_check=30, seed=seed)

    def check(self, results) -> dict:
        tally = _tally()
        totals = {p: [0, 0] for p in self.P_GRID}
        for config, (cells, details) in results:
            for p, (trials, converged) in checks.check_ensemble_call(config, cells, details, tally).items():
                totals[p][0] += trials
                totals[p][1] += converged
        low, high = (converged / trials for trials, converged in totals.values())
        require(low > high, f"converged fraction {low:.3f} at p=1/5 does not exceed {high:.3f} at p=4/5")
        tally["converged_fraction"] = {"1/5": low, "4/5": high}
        return tally


class TgridSweep(SeededSweep):
    """128-bit float ensemble on ER(20, 1/2) with ``q_selector="all_unique"``
    and a five-value t-grid.  One op is one ``run_sweep`` call over one graph;
    the graphs are drawn from the seed's range and kept when they have
    exactly three unique-degree nodes, so every op does the same work
    (3 pairs x 5 t)."""

    name = "tgrid_sweep"
    fixed_ops = 8
    P = Fraction(1, 2)
    T_GRID = tuple(Fraction(t) for t in (-1, -2, -3, -4, -5))
    UNIQUE_NODES = 3

    def qualifies(self, seed: int) -> bool:
        return len(checks.unique_degree_nodes(checks.er_adjacency(20, self.P, seed))) == self.UNIQUE_NODES

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(q_selector="all_unique", t_grid=self.T_GRID, zeta=Fraction(-1),
                                K_max=30, K_check=30, domain=float_domain(128), trials=1,
                                n_grid=(20,), p_grid=(self.P,), seed=seed)

    def check(self, results) -> dict:
        tally = _tally()
        for config, (cells, details) in results:
            checks.check_ensemble_call(config, cells, details, tally)
        return tally


E1_PRINTED = {1: {4: "4.21875"}, 5: {4: "2.125", 5: "2.375"}}
E3_T_GRID = (-2, -3, -4, -5, -6)


class PaperTables(Workload):
    """``reproduce`` for e1, e2, e3 and almost_regular through the CLI, plus
    ``contour_eigenvalue`` on ring_with_core(21, 1) at 128 bits: the K = 100
    exact tables, the 128-bit oracle and the contour quadrature.  The inputs
    are the paper's, so the seed does not change them; each call is made
    once per run, the first worker making SHARES[0] and the second SHARES[1]
    in that order (about 6 s and 9 s of calls)."""

    name = "paper_tables"
    CALLS = ("e1", "e2", "e3", "almost_regular", "contour")
    SHARES = (("e1", "e2", "almost_regular"), ("e3", "contour"))

    def __init__(self, seed: int, worker: int, out_dir: Path, calls: tuple | None = None) -> None:
        self.out_dir = out_dir / f"tables-{seed}-{worker}"
        self.calls = calls or self.SHARES[worker]
        self.fixed_ops = self.max_ops = len(self.calls)

    def setup(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        self.ring = almost_regular(ring_with_core(21, 1))
        warmup = self.out_dir / "warmup.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["euler", "--gen", "ring_with_core:8,1", "--q", "1", "--K", "100",
                           "--exact", "--out", str(warmup)])
        require(rc == 0, "warm-up call failed")

    def op(self, i: int):
        call = self.calls[i]
        if call == "contour":
            return call, lambda: contour_eigenvalue(self.ring, Fraction(-1), precision_bits=128)
        argv = ["reproduce", call, "--out-dir", str(self.out_dir)]

        def reproduce():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli_main(argv)
        return call, reproduce

    @staticmethod
    def failed(result) -> bool:
        return isinstance(result, int) and result != 0

    def _rows(self, table: str) -> list:
        with open(self.out_dir / f"{table}.csv", newline="") as f:
            return list(csv.DictReader(f))

    def check(self, results) -> dict:
        """Check the output of every call in ``results`` (its CSV, or the
        contour value)."""
        tally = {"printed_values": 0, "threshold_ties": 0}
        for label, result in results:
            getattr(self, f"_check_{label}")(result, tally)
        return tally

    def _check_e1(self, result, tally) -> None:
        e1 = checks.csv_values(self._rows("e1"))
        for q, refs in E1_PRINTED.items():
            tally["printed_values"] += checks.check_printed(e1, q, "-1", refs, "e1")

    def _check_e2(self, result, tally) -> None:
        e2_rows = self._rows("e2")
        e2 = checks.csv_values(e2_rows)
        for q, refs in ((13, E2_Q13_XI), (13, E2_Q13_XI_15), (7, E2_Q7_XI),
                        (7, E2_Q7_XI_30), (3, E2_Q3_XI)):
            tally["printed_values"] += checks.check_printed(e2, q, "-1", refs, "e2")
        mus = checks.laplacian_spectrum_128(np.array(E2_ADJACENCY))
        require(checks.within(Fraction(e2[(13, "-1", 100)]), mus[1], 1e-12),
                "e2: xi_13;100 is not within 1e-12 of mu_2")
        # The CSV keeps 17 digits; xi_7;100 is rebuilt in full to test 1e-21.
        table = coefficients(example_graph("e2"), 7, 100)
        xi7 = euler_series(table, EulerParams(t=Fraction(-1), zeta=Fraction(-1), K_max=100)).at(100)
        shown = e2[(7, "-1", 100)]
        require(abs(Fraction(shown) - xi7) <= 2 * checks.half_ulp(shown),
                "e2: CSV xi_7;100 differs from the full-precision value")
        require(checks.within(xi7, mus[0], 1e-21), "e2: xi_7;100 is not within 1e-21 of mu_1")
        matched = checks.csv_values(e2_rows, "matched_mu")
        for q, k in ((13, 1), (7, 0), (3, 2)):
            require(checks.within(Fraction(matched[(q, "-1", 100)]), mus[k], 1e-14),
                    f"e2: matched_mu for q={q} is not mu_{k + 1}")

    def _check_e3(self, result, tally) -> None:
        checks.check_e3_rows(self._rows("e3"), np.array(E3_ADJACENCY), E3_T_GRID, {7, 8, 9}, tally)

    @staticmethod
    def _ring_mu1():
        return checks.laplacian_spectrum_128(checks.ring_with_core_adjacency(21, 1))[0]

    def _check_almost_regular(self, result, tally) -> None:
        ar = checks.csv_values(self._rows("almost_regular"))
        require(checks.within(Fraction(ar[(1, "", 80)]), self._ring_mu1(), 1e-9),
                "almost_regular: series at K = 80 is not within 1e-9 of mu_1")

    def _check_contour(self, result, tally) -> None:
        contour = result.value
        series = almost_regular_series(self.ring, Fraction(-1), 120).at(120)
        require(checks.within(contour, series, 1e-8), "contour value differs from the K = 120 series")
        require(checks.within(contour, self._ring_mu1(), 1e-9),
                "contour value is not within 1e-9 of mu_1")


WORKLOADS = {w.name: w for w in (ErSweep, TgridSweep, PaperTables)}
