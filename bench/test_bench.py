"""Tests of the benchmark itself: its checks reject corrupted outputs, and an
untraced run leaves every program function as it found it.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import shutil
import signal
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import run

workloads = run.import_program()

import checks  # noqa: E402  (needs the program on sys.path first)
import tracing  # noqa: E402
from lap_perturb.examples_data import E2_Q7_XI_30, E3_ADJACENCY  # noqa: E402


class OneOp(workloads.ErSweep):
    fixed_ops = 1
    max_ops = 1


@pytest.fixture(scope="module")
def sweep_output():
    """One genuine er_sweep op whose two trials both have a unique degree."""
    workload = OneOp(0, 0, run.OUT_DIR)
    for i in range(50):
        config, call = workload.op(i)
        cells, details = call()
        if len(details) == 2:
            return config, cells, details
    raise AssertionError("no op with two selected trials in 50 seeds")


def _check(config, cells, details):
    tally = {"records": 0, "skipped_trials": 0, "threshold_ties": 0, "nearest_ties": 0}
    return checks.check_ensemble_call(config, cells, details, tally)


def test_sweep_checks_accept_program_output(sweep_output):
    per_p = _check(*sweep_output)
    assert sum(trials for trials, _ in per_p.values()) == 2


@pytest.mark.parametrize("corrupt", [
    lambda r: dict(xi=r.xi + max(0.5, abs(r.xi) * 1e-3)),
    lambda r: dict(matched_mu=r.matched_mu + 1e-3),
    lambda r: dict(alpha=r.alpha + 0.01),
    lambda r: dict(converged=not r.converged),
    lambda r: dict(q=r.q % 20 + 1),
], ids=["shifted_xi", "wrong_matched_mu", "wrong_alpha", "flipped_converged",
        "wrong_q"])
@pytest.mark.parametrize("index", [0, 1])
def test_sweep_checks_reject_corrupted_record(sweep_output, corrupt, index):
    config, cells, details = sweep_output
    details = list(details)
    details[index] = dataclasses.replace(details[index], **corrupt(details[index]))
    with pytest.raises(checks.CheckError):
        _check(config, cells, details)


def test_sweep_checks_reject_another_eigenvalue(sweep_output):
    config, cells, details = sweep_output
    record = details[0]
    spectrum = checks.laplacian_spectrum(checks.er_adjacency(20, config.p_grid[0], config.seed))
    other = max(spectrum, key=lambda mu: abs(mu - record.matched_mu))
    bad = [dataclasses.replace(record, matched_mu=float(other))] + list(details[1:])
    with pytest.raises(checks.CheckError):
        _check(config, cells, bad)


def test_sweep_checks_reject_wrong_cell_counts(sweep_output):
    config, cells, details = sweep_output
    bad = [dataclasses.replace(cells[0], skipped=cells[0].skipped + 1)] + list(cells[1:])
    with pytest.raises(checks.CheckError):
        _check(config, bad, details)
    with pytest.raises(checks.CheckError):
        _check(config, cells, details[:1])


def test_workload_names_match():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_er_adjacency_matches_the_program_generator():
    from lap_perturb.graph import erdos_renyi

    for seed in range(5):
        g = erdos_renyi(20, Fraction(1, 5), seed)
        assert checks.er_adjacency(20, Fraction(1, 5), seed).tolist() == [list(r) for r in g.weights]


def test_printed_digit_check_rejects_a_changed_digit():
    printed = E2_Q7_XI_30[100]
    assert printed.startswith("13.35139267334828399")
    rounded = "13.3513926733482840"
    assert checks.check_printed({(7, "-1", 100): rounded}, 7, "-1", {100: printed}, "e2") == 1
    for wrong in ("13.3513926733482842", "13.3513926733482838", "13.3513926733482839"[:-1]):
        with pytest.raises(checks.CheckError):
            checks.check_printed({(7, "-1", 100): wrong}, 7, "-1", {100: printed}, "e2")
    with pytest.raises(checks.CheckError):
        checks.check_printed({}, 7, "-1", {100: printed}, "e2")


def _e3_rows(converged_degrees):
    """Synthetic e3 CSV rows: xi sits 1e-6 from an eigenvalue for the given
    degrees and halfway between two eigenvalues otherwise."""
    adj = np.array(E3_ADJACENCY)
    degrees = adj.sum(axis=1)
    rows = []
    for q in checks.unique_degree_nodes(adj):
        hit = int(degrees[q - 1]) in converged_degrees
        for t in workloads.E3_T_GRID:
            xi = float(degrees[q - 1]) + (1e-6 if hit else 0.5)
            rows.append({"q": str(q), "t": str(t), "K": "100", "xi": repr(xi),
                         "converged": "true" if hit else "false"})
    return adj, rows


def test_e3_check_rejects_flipped_flag_and_wrong_degrees():
    adj, rows = _e3_rows({7, 8, 9})
    tally = {"threshold_ties": 0}
    checks.check_e3_rows(rows, adj, workloads.E3_T_GRID, {7, 8, 9}, tally)
    flipped = [dict(r) for r in rows]
    flipped[0]["converged"] = "true" if flipped[0]["converged"] == "false" else "false"
    with pytest.raises(checks.CheckError):
        checks.check_e3_rows(flipped, adj, workloads.E3_T_GRID, {7, 8, 9}, tally)
    adj, rows = _e3_rows({7, 8})
    with pytest.raises(checks.CheckError):
        checks.check_e3_rows(rows, adj, workloads.E3_T_GRID, {7, 8, 9}, tally)


def _program_functions():
    modules = [m for name, m in sys.modules.items()
               if name == "lap_perturb" or name.startswith("lap_perturb.")] + [workloads]
    return {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()
            if isinstance(value, types.FunctionType)}


def test_untraced_run_leaves_every_function_unwrapped():
    before = _program_functions()
    result = run.measure(OneOp(0, 0, run.OUT_DIR), 0, None)
    assert not result["failures"]
    assert len(result["windows"]) == 1
    after = _program_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(getattr(fn, "bench_traced", False) for fn in after.values())


def test_traced_run_restores_functions_and_accounts_for_op_time():
    before = _program_functions()
    tracer = tracing.Tracer()
    callers = [m for name, m in sys.modules.items() if name.startswith("lap_perturb")]
    tracer.install(callers + [workloads])
    try:
        assert workloads.run_sweep.bench_traced
        result = run.measure(OneOp(0, 0, run.OUT_DIR), 0, tracer)
    finally:
        tracer.uninstall()
    after = _program_functions()
    assert all(after[key] is before[key] for key in before)

    spans = tracer.spans
    ops = [s for s in spans if s[tracing.NAME] == tracing.OP_SPAN]
    assert len(ops) == len(result["windows"]) == 1
    op_time = sum(s[tracing.END] - s[tracing.START] for s in ops)
    assert sum(tracing.self_times(spans)) == pytest.approx(op_time, rel=1e-9)
    names = {s[tracing.NAME] for s in spans}
    assert {"sweep.run_sweep", "perturb.coefficients", "eigen.symmetric_eigen",
            "euler.euler_series", "graph.erdos_renyi"} <= names
    metrics = tracing.layer_metrics(spans, fixed_ops={0})
    assert list(metrics) == list(tracing.UNITS)
    assert metrics["sweep.tables_per_pair"] == metrics["sweep.spectra_per_graph"] == 1.0


def test_reference_sampler_takes_its_jobs_out_of_the_interval():
    sampler = run.ReferenceSampler()
    sampler.start()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * run.SAMPLE_INTERVAL_S:
            pass
        end = time.perf_counter()
        time.sleep(1.5 * run.SAMPLE_INTERVAL_S)
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    inside = [t for at, t in sampler.samples if start <= at < end]
    assert len(inside) >= 3
    net, reference = sampler.interval(start, end)
    assert net == pytest.approx(end - start - sum(inside))
    assert 0 < reference < run.SAMPLE_INTERVAL_S


def test_normalized_time_scales_with_the_reference_job():
    assert run.normalized(2.0, run.NOMINAL_REFERENCE_S) == 2.0
    assert run.normalized(2.0, 2 * run.NOMINAL_REFERENCE_S) == pytest.approx(1.0)


def test_run_fails_without_program_source(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "er_sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.fixture(scope="module")
def paper_output(tmp_path_factory):
    """All five paper_tables calls in one workload: its CSV directory and
    call results."""
    calls = workloads.PaperTables.CALLS
    workload = workloads.PaperTables(0, 0, tmp_path_factory.mktemp("paper"), calls)
    workload.setup()
    results = [workload.op(i) for i in range(workload.max_ops)]
    return workload, [(label, call()) for label, call in results]


def _rewrite_csv(path: Path, row_match, column: str, new_value) -> None:
    import csv

    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    hit = next(r for r in rows if row_match(r))
    hit[column] = new_value(hit[column])
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_paper_checks_accept_program_output(paper_output):
    workload, results = paper_output
    assert workload.check(results)["printed_values"] == 83


def test_paper_checks_reject_a_shifted_contour_value(paper_output):
    workload, results = paper_output
    shifted = [(label, dataclasses.replace(out, value=out.value + 1e-7) if label == "contour" else out)
               for label, out in results]
    with pytest.raises(checks.CheckError):
        workload.check(shifted)


def test_paper_workers_share_the_calls_once():
    shares = workloads.PaperTables.SHARES
    assert len(shares) == run.WORKERS
    assert sorted(c for share in shares for c in share) == sorted(workloads.PaperTables.CALLS)


@pytest.mark.parametrize("table, row_match, column, new_value", [
    ("e2", lambda r: r["q"] == "13" and r["K"] == "30", "xi", lambda v: v[:-4] + "9999"),
    ("e2", lambda r: r["q"] == "7" and r["K"] == "100", "matched_mu", lambda v: "13.35"),
    ("e1", lambda r: r["q"] == "5" and r["K"] == "5", "xi", lambda v: "2.377"),
    ("e3", lambda r: r["K"] == "100", "converged",
     lambda v: "false" if v == "true" else "true"),
    ("almost_regular", lambda r: r["K"] == "80", "xi", lambda v: "21.00001"),
], ids=["e2_xi", "e2_matched_mu", "e1_xi", "e3_converged", "almost_regular_xi"])
def test_paper_checks_reject_a_corrupted_csv(paper_output, tmp_path, table, row_match, column,
                                             new_value):
    workload, results = paper_output
    shutil.copytree(workload.out_dir, tmp_path / "tables")
    corrupted = workloads.PaperTables(0, 0, tmp_path, workloads.PaperTables.CALLS)
    corrupted.out_dir, corrupted.ring = tmp_path / "tables", workload.ring
    _rewrite_csv(corrupted.out_dir / f"{table}.csv", row_match, column, new_value)
    with pytest.raises(checks.CheckError):
        corrupted.check(results)
