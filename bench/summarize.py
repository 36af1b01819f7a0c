"""Spread of the end-to-end metrics over the untraced runs in bench/out.

    python3 bench/summarize.py [workload ...]

For each workload and metric: the number of runs, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance
as a share of the median.  The raw (not normalized) times, the median
reference-job time and the CPU time are shown beside them.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"
METRICS = ("setup_s", "wall_norm_s", "op_p50_norm_ms", "peak_rss_mb",
           "raw_setup_s", "raw_wall_s", "raw_op_p50_ms", "reference_job_ms", "cpu_s")


def values(detail: dict) -> dict:
    return {
        **{name: detail[name] for name in METRICS},
        "raw_setup_s": statistics.median(detail["raw_setup_s"]),
        "reference_job_ms": detail["reference_job_ms"]["median"],
    }


def main(argv) -> int:
    runs: dict = {}
    for path in sorted(OUT_DIR.glob("*-trace0.json")):
        detail = json.loads(path.read_text())
        runs.setdefault(detail["workload"], []).append(values(detail))
    print("| workload | metric | runs | median | Q1 | Q3 | (Q3-Q1)/median |")
    print("|---|---|---|---|---|---|---|")
    for workload in argv or sorted(runs):
        for metric in METRICS:
            vs = [r[metric] for r in runs.get(workload, [])]
            if len(vs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vs, n=4)
            print(f"| {workload} | {metric} | {len(vs)} | {statistics.median(vs):.4g} | "
                  f"{q1:.4g} | {q3:.4g} | {(q3 - q1) / statistics.median(vs):.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
