"""Benchmark of lap-perturb: each workload timed per call in fresh processes.

    python3 bench/run.py --workload er_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  A run starts WORKERS worker processes one after another; each
imports the program, sets up its inputs, makes its share of the run's calls
and checks their outputs, and times a reference job throughout, by which
the end-to-end times are normalized.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The line before it, and
``bench/out/<workload>-<seed>-trace<t>.json``, hold the details: sample
counts, raw, reference-job and CPU times, check tallies and, when traced, the
layer breakdown; a traced worker writes its spans to
``bench/out/<workload>-<seed>-w<k>.spans.jsonl``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("er_sweep", "tgrid_sweep", "paper_tables")
# Two fresh processes per run: set-up is measured twice, and each process
# holds its own share of the calls.
WORKERS = 2
RUN_TIMEOUT_S = 170
# The shared host this benchmark was written on changes speed by up to 40% in
# phases of seconds to minutes, and CPU time changes with it.  So a worker
# times a small reference job every SAMPLE_INTERVAL_S throughout its set-up
# and its loop, and each end-to-end time is rescaled by the reference jobs
# around it to the speed at which one job takes NOMINAL_REFERENCE_S (this
# host's speed in its faster phases).
SAMPLE_INTERVAL_S = 0.25
REFERENCE_TERMS = 1000
NOMINAL_REFERENCE_S = 0.003


def reference_job() -> float:
    """Seconds for a fixed stdlib-only job: the exact harmonic sum
    H_(REFERENCE_TERMS - 1); at one job per interval it takes about 1.5% of
    the time.

    It shares no code with the program, and the cyclic garbage collector is
    off while it runs, so the program's heap does not change its cost.  Its
    time measures how fast the machine runs at that moment.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for k in range(1, REFERENCE_TERMS):
            total += Fraction(1, k)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class ReferenceSampler:
    """Runs the reference job from a SIGALRM timer every SAMPLE_INTERVAL_S of
    wall time, between two bytecodes of whatever the process is doing, and
    keeps each job's start and duration."""

    def __init__(self) -> None:
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), reference_job()))

    def start(self) -> None:
        reference_job()  # the first job of a process runs slow
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def interval(self, start: float, end: float) -> tuple:
        """The time from ``start`` to ``end`` less the jobs run inside it, and
        the mean reference time over it and one sampling interval each side."""
        inside = sum(t for at, t in self.samples if start <= at < end)
        near = [t for at, t in self.samples
                if start - SAMPLE_INTERVAL_S <= at < end + SAMPLE_INTERVAL_S]
        return end - start - inside, statistics.mean(near)


def normalized(seconds: float, reference_s: float) -> float:
    """``seconds`` rescaled to a machine on which the reference job takes
    NOMINAL_REFERENCE_S: the time the work would take at nominal speed."""
    return seconds * NOMINAL_REFERENCE_S / reference_s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import the program from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import lap_perturb

    if Path(lap_perturb.__file__).resolve().parent != SRC / "lap_perturb":
        raise SystemExit(f"error: lap_perturb imported from {lap_perturb.__file__}, not {SRC}")
    import workloads
    return workloads


def measure(workload, seconds: float, tracer) -> dict:
    """Run ops until the fixed work is done and the next op would pass ``seconds``."""
    windows, results, failures = [], [], []
    cpu0, start = time.process_time(), time.perf_counter()
    i = 0
    while workload.max_ops is None or i < workload.max_ops:
        if i >= workload.fixed_ops and (time.perf_counter() - start + statistics.median(
                end - begin for begin, end in windows) > seconds):
            break
        label, call = workload.op(i)
        if tracer:
            tracer.begin_op(i)
        t = time.perf_counter()
        try:
            result = call()
            failed = workload.failed(result)
        except Exception:  # a failed op is counted, reported and the loop goes on
            result, failed = traceback.format_exc(limit=3), True
        windows.append((t, time.perf_counter()))
        if tracer:
            tracer.end_op()
        if failed:
            failures.append(f"op {i} failed: {result}"[-2000:])
        else:
            results.append((label, result))
        i += 1
    return {"windows": windows, "results": results, "failures": failures,
            "cpu_s": time.process_time() - cpu0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def worker_main(args) -> None:
    """One worker process: set up, make calls for ``args.seconds``, check, report."""
    sampler = ReferenceSampler()
    sampler.start()
    start = time.perf_counter()
    workloads = import_program()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.worker, OUT_DIR)
    workload.setup()
    setup_window = (start, time.perf_counter())

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        callers = [m for name, m in sys.modules.items()
                   if name == "lap_perturb" or name.startswith("lap_perturb.")]
        tracer.install(callers + [workloads])
    try:
        run = measure(workload, args.seconds, tracer)
        time.sleep(1.5 * SAMPLE_INTERVAL_S)  # a sample after the last op
    finally:
        if tracer:
            tracer.uninstall()
        sampler.stop()
    setup_s, setup_reference = sampler.interval(*setup_window)
    durations, references = zip(*(sampler.interval(*w) for w in run["windows"]))

    try:
        tally, check_error = workload.check(run["results"]), None
    except Exception as exc:  # a check that fails or cannot run makes the run incorrect
        tally, check_error = None, f"{type(exc).__name__}: {exc}"
    stem = f"{args.workload}-{args.seed}-w{args.worker}"
    traced = {}
    if tracer:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
        traced = {"spans": len(tracer.spans), "span_cost_s": tracing.span_cost()}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**traced,
        "setup_s": setup_s, "setup_reference_s": setup_reference,
        "durations_s": durations, "references_s": references,
        "reference_samples": len(sampler.samples),
        "reference_in_ops_s": sum(end - begin for begin, end in run["windows"]) - sum(durations),
        "fixed_ops": workload.fixed_ops,
        "failed": len(durations) - len(run["results"]), "failures": run["failures"][:3],
        "check_error": check_error, "checks": tally, "cpu_s": run["cpu_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }))


def run_workers(args) -> list:
    """Run the workers one after another; all of them must end within
    RUN_TIMEOUT_S of the run's start."""
    deadline = T0 + RUN_TIMEOUT_S
    reports = []
    for k in range(WORKERS):
        report = OUT_DIR / f"{args.workload}-{args.seed}-w{k}.json"
        report.unlink(missing_ok=True)
        subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds / WORKERS), "--trace", str(args.trace),
             "--worker", str(k)],
            timeout=max(deadline - time.perf_counter(), 1), check=True)
        reports.append(json.loads(report.read_text()))
    return reports


def traced_metrics(args, reports) -> tuple:
    """Merge the workers' spans, with op ids made distinct per worker, into
    the per-layer metrics, the layer breakdown and the span count."""
    import tracing

    spans, fixed = [], set()
    for k, report in enumerate(reports):
        offset, op_base = len(spans), k * 1_000_000
        path = OUT_DIR / f"{args.workload}-{args.seed}-w{k}.spans.jsonl"
        for line in path.read_text().splitlines():
            s = json.loads(line)
            spans.append([s["name"], tuple(s["tag"]) if isinstance(s["tag"], list) else s["tag"],
                          s["start"], s["end"],
                          None if s["parent"] is None else s["parent"] + offset,
                          None if s["op"] is None else s["op"] + op_base])
        fixed.update(op_base + i for i in range(report["fixed_ops"]))
    metrics = {name: {"value": value, "unit": tracing.UNITS[name]}
               for name, value in tracing.layer_metrics(spans, fixed).items()}
    return metrics, tracing.layer_breakdown(spans), len(spans)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lap_perturb" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'lap_perturb'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.worker is not None:
        worker_main(args)
        return 0

    reports = run_workers(args)
    durations = [d for r in reports for d in r["durations_s"]]
    references = [t for r in reports for t in r["references_s"]]
    fixed = [(d, t) for r in reports
             for d, t in list(zip(r["durations_s"], r["references_s"]))[:r["fixed_ops"]]]
    scaled = [normalized(d, t) for d, t in zip(durations, references)]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": WORKERS, "ops": len(durations),
        "fixed_ops": len(fixed),
        "setup_s": statistics.median(normalized(r["setup_s"], r["setup_reference_s"])
                                     for r in reports),
        "wall_norm_s": sum(normalized(d, t) for d, t in fixed),
        "op_p50_norm_ms": statistics.median(scaled) * 1e3,
        "raw_setup_s": [r["setup_s"] for r in reports],
        "raw_wall_s": sum(d for d, _ in fixed),
        "raw_op_p50_ms": statistics.median(durations) * 1e3,
        "reference_job_ms": {"min": min(references) * 1e3,
                             "median": statistics.median(references) * 1e3,
                             "max": max(references) * 1e3},
        "cpu_s": sum(r["cpu_s"] for r in reports),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "checks": [r["checks"] for r in reports],
        "check_errors": [r["check_error"] for r in reports if r["check_error"]],
        "failures": [f for r in reports for f in r["failures"]],
    }
    if len(durations) >= 100:
        detail["op_p90_norm_ms"] = {"value": statistics.quantiles(scaled, n=10)[-1] * 1e3,
                                    "samples": len(scaled)}
    if args.trace:
        metrics, detail["layers"], detail["spans"] = traced_metrics(args, reports)
        # The spans also hold the reference jobs that ran inside them.
        detail["reference_in_ops_s"] = sum(r["reference_in_ops_s"] for r in reports)
        detail["traced_ops_s"] = sum(durations) + detail["reference_in_ops_s"]
        detail["span_overhead_estimate_s"] = sum(r["spans"] * r["span_cost_s"] for r in reports)
    else:
        metrics = {name: {"value": detail[name], "unit": unit} for name, unit in (
            ("setup_s", "s"), ("wall_norm_s", "s"), ("op_p50_norm_ms", "ms"),
            ("peak_rss_mb", "MB"))}
    print(json.dumps({"detail": detail}))
    detail["durations_s"], detail["references_s"] = durations, references
    (OUT_DIR / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps({"correct": not detail["check_errors"], "attempted": len(durations),
                      "failed": sum(r["failed"] for r in reports), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
