"""Span tracing for the benchmark's traced runs.

A traced run replaces, in every calling module, each public function that
module imported from one of the program's layers by a wrapper that records a
span: name, tag, start, end, parent span and op id.  Calls inside the
defining module are not wrapped, so a span marks a crossing between modules.
The untraced run installs nothing.  Spans stay in memory and are written out
when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

# The program modules under src/lap_perturb whose calls are timed as layers.
# ``domain``, ``digits`` and ``examples_data`` are left unwrapped: their cost
# is too small to measure and falls into the caller's self time.
LAYERS = ("graph", "perturb", "euler", "eigen", "almost_regular", "sweep", "cli")
LAYER_MODULES = {f"lap_perturb.{layer}": layer for layer in LAYERS}
OP_SPAN = "bench.op"

NAME, TAG, START, END, PARENT, OP = range(6)


def _graph_key(g):
    return hash(g.weights)


def _matrix_key(matrix):
    try:
        return hash(matrix)
    except TypeError:
        return None


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Tags record what a span's work was, for metrics that split one function's
# calls (exact against float tables, 53-bit against 128-bit spectra) or count
# distinct inputs.
TAGGERS = {
    "perturb.coefficients": lambda args, kwargs, result: (
        "exact" if result.domain.is_exact else "float",
        _graph_key(_arg(args, kwargs, 0, "g")),
        _arg(args, kwargs, 1, "q"),
    ),
    "eigen.symmetric_eigen": lambda args, kwargs, result: (
        53 if _arg(args, kwargs, 2, "precision_bits", 53) <= 53 else 128,
        _matrix_key(_arg(args, kwargs, 0, "matrix")),
    ),
    "almost_regular.contour_eigenvalue": lambda args, kwargs, result: result.points,
}


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._op = None
        self._patched: list = []

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        tagger = TAGGERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, None, perf_counter(), 0.0, stack[-1] if stack else None, self._op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if tagger is not None:
                record[TAG] = tagger(args, kwargs, result)
            return result

        traced.bench_traced = True
        return traced

    def install(self, callers) -> None:
        """Wrap, in each calling module, the layer functions it imported."""
        for module in callers:
            for attr, value in list(vars(module).items()):
                layer = LAYER_MODULES.get(getattr(value, "__module__", None))
                if (layer is None or attr.startswith("_") or not callable(value)
                        or isinstance(value, type) or value.__module__ == module.__name__):
                    continue
                setattr(module, attr, self.wrap(layer, value))
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, None, perf_counter(), 0.0, None, op_id])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][END] = perf_counter()
        self._op = None

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                name, tag, start, end, parent, op = span
                out.write(json.dumps({"id": index, "name": name, "tag": tag, "start": start,
                                      "end": end, "parent": parent, "op": op}) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a direct call, measured on a no-op."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("bench", noop)
    tracer.begin_op(0)
    start = perf_counter()
    for _ in range(calls):
        wrapped()
    traced = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        noop()
    return (traced - (perf_counter() - start)) / calls


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _under(spans, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


# Units of the per-layer metrics, in the order BENCHMARK.json lists them.
UNITS = {
    "perturb.coefficients_exact_ms": "ms",
    "perturb.coefficients_float_ms": "ms",
    "perturb.coefficients_calls": "count",
    "sweep.tables_per_pair": "calls/pair",
    "sweep.spectra_per_graph": "calls/graph",
    "eigen.symmetric_eigen53_ms": "ms",
    "eigen.symmetric_eigen128_ms": "ms",
    "eigen.symmetric_eigen_calls": "count",
    "euler.euler_series_ms": "ms",
    "euler.convergence_classify_ms": "ms",
    "almost_regular.series_ms": "ms",
    "almost_regular.contour_ms": "ms",
    "almost_regular.contour_points": "count",
    "sweep.self_ms": "ms",
    "cli.reproduce_self_ms": "ms",
    "graph.erdos_renyi_ms": "ms",
}


def layer_metrics(spans, fixed_ops: set) -> dict:
    """Per-layer metrics of a traced run.

    Times are medians per call over the whole run; call counts cover the
    run's fixed work (the ops in ``fixed_ops``), so they repeat exactly for a
    seed.  A path the workload never calls reads 0.
    """
    own = self_times(spans)

    def dur(name, tag_test=lambda tag: True):
        return [s[END] - s[START] for s in spans if s[NAME] == name and tag_test(s[TAG])]

    def fixed(index):
        return spans[index][OP] in fixed_ops

    coeff = [i for i, s in enumerate(spans) if s[NAME] == "perturb.coefficients"]
    eig = [i for i, s in enumerate(spans) if s[NAME] == "eigen.symmetric_eigen"]
    sweep_coeff = [i for i in coeff if _under(spans, i, "sweep.run_sweep")]
    sweep_eig = [i for i in eig if _under(spans, i, "sweep.run_sweep")]
    pairs = {(spans[i][OP],) + spans[i][TAG][1:] for i in sweep_coeff}
    graphs = {(spans[i][OP], spans[i][TAG][1]) for i in sweep_eig}
    cli_self = [own[i] for i, s in enumerate(spans) if s[NAME].startswith("cli.")]
    sweep_calls = [i for i, s in enumerate(spans) if s[NAME] == "sweep.run_sweep"]

    return {
        "perturb.coefficients_exact_ms": _median_ms(dur("perturb.coefficients", lambda t: t[0] == "exact")),
        "perturb.coefficients_float_ms": _median_ms(dur("perturb.coefficients", lambda t: t[0] == "float")),
        "perturb.coefficients_calls": sum(1 for i in coeff if fixed(i)),
        "sweep.tables_per_pair": len(sweep_coeff) / len(pairs) if pairs else 0.0,
        "sweep.spectra_per_graph": len(sweep_eig) / len(graphs) if graphs else 0.0,
        "eigen.symmetric_eigen53_ms": _median_ms(dur("eigen.symmetric_eigen", lambda t: t[0] == 53)),
        "eigen.symmetric_eigen128_ms": _median_ms(dur("eigen.symmetric_eigen", lambda t: t[0] == 128)),
        "eigen.symmetric_eigen_calls": sum(1 for i in eig if fixed(i)),
        "euler.euler_series_ms": _median_ms(dur("euler.euler_series")),
        "euler.convergence_classify_ms": _median_ms(dur("euler.convergence_classify")),
        "almost_regular.series_ms": _median_ms(
            dur("almost_regular.almost_regular_series") + dur("almost_regular.almost_regular_euler")),
        "almost_regular.contour_ms": _median_ms(dur("almost_regular.contour_eigenvalue")),
        "almost_regular.contour_points": statistics.median(
            [s[TAG] for s in spans if s[NAME] == "almost_regular.contour_eigenvalue"] or [0]),
        "sweep.self_ms": _median_ms([own[i] for i in sweep_calls]),
        "cli.reproduce_self_ms": sum(cli_self) * 1e3,
        "graph.erdos_renyi_ms": _median_ms(dur("graph.erdos_renyi")),
    }


def layer_breakdown(spans) -> dict:
    """Self time (s) and span count per layer; ``bench`` is the loop's own share."""
    own = self_times(spans)
    out: dict = {}
    for s, t in zip(spans, own):
        layer = s[NAME].split(".", 1)[0]
        entry = out.setdefault(layer, {"self_s": 0.0, "spans": 0})
        entry["self_s"] += t
        entry["spans"] += 1
    return out
