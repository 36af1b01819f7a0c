"""Sweep orchestration: seeded ensembles, convergence classification, CSV rows.

A sweep draws graphs from a generator ensemble (a single graph is a cell
of one graph), expands around selected unique-degree nodes, classifies each
Euler series at (alpha_threshold, K_check), and reports the converged
fraction per (n, p, t) cell.  A graph is drawn, the spectrum of its M(zeta)
computed and each node's table built once (all from one ``perturb._stack``),
for the whole t grid.  Everything is deterministic given the config seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import cycle, product
from math import inf, isfinite

from .domain import NumberDomain, exact_domain, parse_number
from .eigen import symmetric_eigen
from .euler import EulerParams, convergence_classify, euler_series
from .graph import (
    Graph,
    antiregular,
    complete_graph,
    erdos_renyi,
    parse_edge_list,
    _perturbed_rows,
    ring_with_core,
)
from .perturb import _stack, coefficients

__all__ = [
    "ExperimentConfig",
    "SweepCell",
    "TrialRecord",
    "run_sweep",
    "select_nodes",
    "resolve_graph_source",
]


def resolve_graph_source(spec: str) -> Graph:
    """Turn a source spec into a Graph.

    Accepted forms: "example:e1|e2|e3", "file:PATH" (edge-list format),
    "ring_with_core:n,k", "antiregular:n", "complete:n",
    "erdos_renyi:n,p,seed".
    """
    from .examples_data import example_graph

    kind, _, rest = spec.partition(":")
    if kind == "example":
        return example_graph(rest)
    if kind == "file":
        from pathlib import Path

        return parse_edge_list(Path(rest).read_text())
    if kind == "ring_with_core":
        n, k = (int(v) for v in rest.split(","))
        return ring_with_core(n, k)
    if kind == "antiregular":
        return antiregular(int(rest))
    if kind == "complete":
        return complete_graph(int(rest))
    if kind == "erdos_renyi":
        n, p, seed = rest.split(",")
        return erdos_renyi(int(n), parse_number(p), int(seed))
    raise ValueError(f"unknown graph source: {spec!r}")

CELL_HEADER = ("n", "p", "t", "trials", "skipped", "converged", "fraction")
DETAIL_HEADER = ("q", "t", "K", "xi", "alpha", "matched_mu", "converged")


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep parameters; mirrors the JSON config format field for field.

    ``graph_source`` is "erdos_renyi" for ensembles (then ``n_grid``,
    ``p_grid``, ``trials`` and ``seed`` apply) or any single-graph spec
    accepted by the CLI ("example:e2", "file:PATH", "ring_with_core:21,1",
    ...), for which those four are ignored.
    ``q_selector`` is a 1-based node index, "max_unique_degree", or
    "all_unique".  A sweep reads no order above ``K_check``, so it builds
    its tables and series to that order; ``K_max`` only bounds ``K_check``.
    """

    graph_source: str = "erdos_renyi"
    q_selector: object = "max_unique_degree"
    t_grid: tuple = (Fraction(-1),)
    zeta: object = Fraction(-1)
    K_max: int = 30
    domain: NumberDomain = field(default_factory=exact_domain)
    seed: int = 0
    alpha_threshold: float = -4.0
    K_check: int = 30
    trials: int = 1000
    n_grid: tuple = (20,)
    p_grid: tuple = (Fraction(1, 5),)

    def __post_init__(self) -> None:
        for t in self.t_grid:
            if 1 + t * self.zeta == 0:
                raise ValueError(f"t = {t} is singular for zeta = {self.zeta}")
        if self.K_max < 2:
            raise ValueError(f"K_max must be at least 2, not {self.K_max}")
        if self.K_check < 2:
            raise ValueError(f"K_check must be at least 2, not {self.K_check}")
        if self.K_check > self.K_max:
            raise ValueError("K_check cannot exceed K_max")
        if self.trials < 0:
            raise ValueError(f"trials must be non-negative, not {self.trials}")
        if not isfinite(self.alpha_threshold):
            raise ValueError(f"alpha_threshold must be finite, not {self.alpha_threshold}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse a JSON config object; an unknown or ill-typed key raises ValueError."""
        import json

        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        kwargs = {}
        for key, value in data.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            what, parse = _CONFIG_KEYS[key]
            try:
                kwargs[key] = parse(value)
            except (TypeError, ValueError):
                raise ValueError(f"config key {key!r} must be {what}, not {value!r}") from None
        return cls(**kwargs)


def _of(kinds, convert=lambda v: v):
    """Parser of a JSON value whose type is one of ``kinds`` (never a bool); else TypeError."""
    def parse(value):
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise TypeError
        return convert(value)
    return parse


def _domain(value) -> NumberDomain:
    if value == "exact_rational":
        return exact_domain()
    if value == "float":
        return NumberDomain("float", 128)
    if not isinstance(value, dict) or set(value) - {"precision_bits"}:
        raise ValueError
    return NumberDomain("float", _int(value.get("precision_bits", 128)))


_int = _of(int)
_numbers = _of(list, lambda v: tuple(parse_number(str(x)) for x in v))
_CONFIG_KEYS = {  # key: (what it must be, parser)
    "graph_source": ("a string", _of(str)),
    "q_selector": ("a node index or a selector name", _of((int, str))),
    "t_grid": ("a list of numbers", _numbers),
    "zeta": ("a number", _of((int, float, str), lambda v: parse_number(str(v)))),
    "K_max": ("an integer", _int),
    "domain": ('"exact_rational", "float" or {"precision_bits": <int>}', _domain),
    "seed": ("an integer", _int),
    "alpha_threshold": ("a number", _of((int, float))),
    "K_check": ("an integer", _int),
    "trials": ("an integer", _int),
    "n_grid": ("a list of integers", _of(list, lambda v: tuple(map(_int, v)))),
    "p_grid": ("a list of numbers", _numbers),
}


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One (n, p, t) cell of a sweep; ``p`` is "" for a single-graph source.

    ``trials`` counts graphs drawn, ``skipped`` those with no selected node,
    ``classified`` the (graph, node) series and ``converged`` the converged
    ones; ``fraction`` = converged / (classified + skipped) never exceeds 1.
    """

    n: int
    p: object
    t: object
    trials: int
    skipped: int
    classified: int
    converged: int

    @property
    def fraction(self) -> float:
        total = self.classified + self.skipped
        return self.converged / total if total else 0.0

    def row(self) -> tuple:
        return (self.n, str(self.p), str(self.t), self.trials, self.skipped,
                self.converged, f"{self.fraction:.6f}")


@dataclass(frozen=True, slots=True)
class TrialRecord:
    q: int
    t: object
    K: int
    xi: float
    alpha: float
    matched_mu: float
    converged: bool

    def row(self) -> tuple:
        return (self.q, str(self.t), self.K, repr(self.xi), f"{self.alpha:.6f}",
                repr(self.matched_mu), str(self.converged).lower())


def select_nodes(g: Graph, q_selector) -> tuple:
    """Resolve a q_selector against a graph; empty tuple when nothing qualifies.

    A node index outside 1..n raises ValueError.
    """
    d = g.degrees
    counts = Counter(d)
    unique = [q for q, x in enumerate(d, 1) if counts[x] == 1]
    if isinstance(q_selector, int):
        if not 1 <= q_selector <= g.n:
            raise ValueError(f"node {q_selector} out of range 1..{g.n}")
        return (q_selector,) if counts[d[q_selector - 1]] == 1 else ()
    if q_selector == "max_unique_degree":
        if not unique:
            return ()
        return (max(unique, key=lambda u: d[u - 1]),)
    if q_selector == "all_unique":
        return tuple(unique)
    raise ValueError(f"unknown q_selector: {q_selector!r}")


def _perturbed_spectrum(g: Graph, zeta) -> tuple:
    """The 53-bit descending spectrum of M(zeta) = diag(d) + zeta A; at zeta = -1, L's.

    M(zeta) is the exact ``perturbed_matrix`` of the graph's ``_weight_array``
    at the exact value of zeta, each entry rounded once (``_perturbed_rows``).
    """
    return symmetric_eigen(_perturbed_rows(g, zeta)).eigenvalues


def _float(x) -> float:
    """``x`` rounded to a double, or an infinity of its sign beyond the double range."""
    try:
        return float(x)
    except OverflowError:  # float() of a Fraction overflows; of an mpf it gives the infinity
        return inf if x > 0 else -inf


def _evaluate(g: Graph, nodes: tuple, config: ExperimentConfig, mus: list):
    """Yield (q, t, series, report) for each node of ``nodes`` and each t of the grid.

    ``mus`` is the spectrum of the graph's M(zeta) (``_perturbed_spectrum``);
    it and one coefficient table per node serve the whole t grid.  Each node
    runs through ``config.t_grid`` in order.  Tables and series stop at
    ``config.K_check``, the highest order a sweep reads.
    """
    K = config.K_check
    _stack(g, nodes, K, config.domain)
    for q in nodes:
        table = coefficients(g, q, K, config.domain)
        for t in config.t_grid:
            series = euler_series(table, EulerParams(t=t, zeta=config.zeta, K_max=K))
            yield q, t, series, convergence_classify(series, mus, config.alpha_threshold, K)


def _cells(config: ExperimentConfig):
    """Yield (n, p, graphs) per cell: each seeded (n, p) ensemble, or the one graph."""
    if config.graph_source != "erdos_renyi":
        g = resolve_graph_source(config.graph_source)
        yield g.n, "", (g,)
        return
    for c, (n, p) in enumerate(product(config.n_grid, config.p_grid)):
        yield n, p, (erdos_renyi(n, p, config.seed + 1_000_003 * c + i)
                     for i in range(config.trials))


def run_sweep(config: ExperimentConfig, detail: bool = False):
    """Run the sweep; returns (cells, detail_records), the records only when ``detail``.

    Ensemble mode ("erdos_renyi") runs ``config.trials`` seeded graphs per
    (n, p) cell; trial i of cell c uses seed ``config.seed + 1_000_003*c + i``
    so runs are reproducible and cells independent.  Any other source is one
    cell of one graph, with p = "", and ignores ``n_grid``, ``p_grid``,
    ``trials`` and ``seed``.  Each (n, p, t) cell counts ``trials`` (graphs
    drawn), ``skipped`` (graphs with no selected node, not failures) and
    ``converged``; its ``fraction`` is converged / (classified + skipped),
    over the (graph, node) series classified.  A graph's spectrum and each
    node's table serve the whole t grid.  Cells and detail records come out
    grouped by t, in grid order.
    """
    cells = []
    details = []
    K = config.K_check
    for n, p, graphs in _cells(config):
        trials = skipped = 0
        records = [[] for _ in config.t_grid]  # per t index: t_grid may repeat a value
        for g in graphs:
            trials += 1
            nodes = select_nodes(g, config.q_selector)
            if not nodes:
                skipped += 1
                continue
            evaluated = _evaluate(g, nodes, config, _perturbed_spectrum(g, config.zeta))
            # _evaluate runs each node through the grid in order, so the buckets cycle with it
            for bucket, (q, t, series, report) in zip(cycle(records), evaluated):
                bucket.append(TrialRecord(q=q, t=t, K=K, xi=_float(series.at(K)),
                                          alpha=report.alpha,
                                          matched_mu=float(report.matched_mu),
                                          converged=report.converged))
        for t, bucket in zip(config.t_grid, records):
            cells.append(SweepCell(n=n, p=p, t=t, trials=trials, skipped=skipped,
                                   classified=len(bucket),
                                   converged=sum(r.converged for r in bucket)))
            if detail:
                details.extend(bucket)
    return tuple(cells), tuple(details)
