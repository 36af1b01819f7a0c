"""Command-line driver: reproduce built-in reference tables, run sweeps, and
expose the library operations as subcommands.

    lap-perturb <reproduce|sweep|coeffs|taylor|euler|oracle|contour> [flags]

All machine-readable output is CSV (RFC 4180) or JSON; `--exact` prints
rationals as p/q strings.  `reproduce` exits nonzero when a computed value
stops matching its frozen reference digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

from .almost_regular import (
    almost_regular,
    chc_build,
    cm_closed_form,
    contour_eigenvalue,
)
from .digits import matches_printed
from .domain import NumberDomain, exact_domain, float_domain, format_rational, parse_number
from .eigen import accuracy_alpha, spectrum_to_json, symmetric_eigen
from .euler import EulerParams, convergence_classify, euler_series, taylor_partial_sums
from .examples_data import (
    E1_LAPLACIAN_MU,
    E2_LAMBDA1_ADJ,
    E2_MU1_30,
    E2_MU2_15,
    E3_LAPLACIAN_MU,
    PRINTED_XI,
    example_graph,
)
from .graph import (
    closed_walk_counts,
    laplacian,
    perturbed_matrix,
    ring_with_core,
)
from .perturb import coefficients
from .sweep import (
    CELL_HEADER,
    DETAIL_HEADER,
    ExperimentConfig,
    _evaluate,
    _perturbed_spectrum,
    resolve_graph_source,
    run_sweep,
    select_nodes,
)

DEFAULT_T_GRID = (-2, -3, -4, -5, -6)
_ZETA_HELP = "the series point; alpha is to the nearest eigenvalue of M(zeta) = diag(d) + zeta A"


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", metavar="PATH", help="edge-list file (header 'n <count>')")
    src.add_argument("--example", choices=("e1", "e2", "e3"), help="built-in example graph")
    src.add_argument("--gen", metavar="SPEC",
                     help="generator spec, e.g. ring_with_core:21,1 or erdos_renyi:20,0.2,7")


def _graph_from_args(args) -> object:
    if args.graph:
        return resolve_graph_source(f"file:{args.graph}")
    if args.example:
        return resolve_graph_source(f"example:{args.example}")
    return resolve_graph_source(args.gen)


def _prec(args, default=None):
    """--prec in bits, or ``default`` when it is not given; below 24 raises ValueError."""
    if args.prec is not None and args.prec < 24:
        raise ValueError(f"--prec must be at least 24 bits, not {args.prec}")
    return default if args.prec is None else args.prec


def _domain_from_args(args) -> NumberDomain:
    prec = _prec(args)
    return exact_domain() if args.exact or prec is None else float_domain(prec)


def _format_value(x, exact: bool) -> str:
    if exact and isinstance(x, Fraction):
        return format_rational(x)
    return mpmath.nstr(float_domain(113).coerce(x), 17)  # rounded once to 113 bits


def _write_csv(rows, header, out_path: str | None) -> None:
    stream = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        writer = csv.writer(stream)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out_path:
            stream.close()


def _series_rows(series, mus, alpha_threshold, K_check, exact):
    report = convergence_classify(series, mus, alpha_threshold, min(K_check, max(series.orders)))
    tval = "" if series.t is None else str(series.t)
    rows = []
    for K in series.orders:
        alpha = accuracy_alpha(series.at(K), report.matched_mu)
        rows.append((
            series.q, tval, K, _format_value(series.at(K), exact),
            f"{alpha:.6f}", repr(float(report.matched_mu)),
            str(bool(alpha <= alpha_threshold)).lower(),
        ))
    return rows


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

class _Digest:
    def __init__(self) -> None:
        self.failures = 0

    def check(self, label: str, value, printed: str) -> None:
        ok = matches_printed(value, printed)
        print(f"{'PASS' if ok else 'FAIL'} {label} = {printed}")
        if not ok:
            self.failures += 1

    def check_bool(self, label: str, ok: bool) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        if not ok:
            self.failures += 1


def _printed_xi(digest: _Digest, example: str, K: int) -> tuple:
    """Check every PRINTED_XI row of ``example`` against its Euler series at t = zeta = -1.

    Returns the coefficient tables and the series up to order K, by node.
    """
    g = example_graph(example)
    nodes = dict.fromkeys(q for ex, q, _ in PRINTED_XI if ex == example)
    tables = {q: coefficients(g, q, K) for q in nodes}
    params = EulerParams(t=Fraction(-1), zeta=Fraction(-1), K_max=K)
    series = {q: euler_series(table, params) for q, table in tables.items()}
    for ex, q, printed in PRINTED_XI:
        if ex == example:
            for order, text in printed.items():
                digest.check(f"{example} xi_{q};{order}(-1)", series[q].at(order), text)
    return tables, series


def _reproduce_e1(digest: _Digest) -> list:
    tables, series = _printed_xi(digest, "e1", 12)
    rows = []
    for q, table in tables.items():
        for K in series[q].orders:
            rows.append((q, -1, K, _format_value(series[q].at(K), False), "", "", ""))
        digest.check_bool(
            f"e1 odd coefficients vanish (q={q}, K<=12)",
            all(table.c_at(j) == 0 for j in range(3, 13, 2)),
        )
    for mu, printed in zip(_perturbed_spectrum(example_graph("e1"), -1), E1_LAPLACIAN_MU):
        digest.check("e1 Laplacian eigenvalue", mu, printed)
    return rows


def _reproduce_e2(digest: _Digest) -> list:
    _, series = _printed_xi(digest, "e2", 100)
    g = example_graph("e2")
    spec = symmetric_eigen(laplacian(g), precision_bits=128)
    digest.check("e2 mu_1", spec.eigenvalues[0], E2_MU1_30)
    digest.check("e2 mu_2", spec.eigenvalues[1], E2_MU2_15)
    adj_spec = symmetric_eigen(g.weights)
    digest.check("e2 lambda_1(A)", adj_spec.eigenvalues[0], E2_LAMBDA1_ADJ)

    rows = []
    for q, index in ((13, 1), (7, 0), (3, 2)):  # the eigenvalue each node's series targets
        mu = spec.eigenvalues[index]
        for K in series[q].orders:
            xi = series[q].at(K)
            rows.append((q, -1, K, _format_value(xi, False),
                         f"{accuracy_alpha(xi, mu):.6f}", mpmath.nstr(mu, 17), ""))
    return rows


def _reproduce_e3(digest: _Digest) -> list:
    config = ExperimentConfig(graph_source="example:e3", q_selector="all_unique",
                              t_grid=tuple(map(Fraction, DEFAULT_T_GRID)), K_max=100, K_check=100)
    g = resolve_graph_source(config.graph_source)
    mus = _perturbed_spectrum(g, config.zeta)
    ok = all(abs(mu - ref) <= 1e-9 for mu, ref in zip(mus, E3_LAPLACIAN_MU))
    digest.check_bool(f"e3 Laplacian spectrum = {E3_LAPLACIAN_MU}", ok)
    rows = []
    converged_degrees = set()
    for q, t, series, report in _evaluate(g, select_nodes(g, config.q_selector), config, mus):
        if report.converged:
            converged_degrees.add(int(g.degrees[q - 1]))
        for K in (10, 30, 60, 100):
            rows.append((q, t, K, _format_value(series.at(K), False),
                         f"{accuracy_alpha(series.at(K), report.matched_mu):.6f}",
                         repr(float(report.matched_mu)), str(report.converged).lower()))
    digest.check_bool(
        f"e3 converged degrees over t in {DEFAULT_T_GRID} are exactly {{7, 8, 9}} "
        f"(got {sorted(converged_degrees)})",
        converged_degrees == {7, 8, 9},
    )
    return rows


def _reproduce_almost_regular(digest: _Digest) -> list:
    rows = []

    g = ring_with_core(21, 1)
    table = coefficients(g, 1, 80)
    mu1 = _perturbed_spectrum(g, -1)[0]
    ser = taylor_partial_sums(table, Fraction(-1))
    digest.check_bool(
        "ring_with_core(21,1): series at zeta=-1 converges to mu_1",
        abs(float(ser.at(80)) - mu1) < 1e-9,
    )
    mu1_m2 = _perturbed_spectrum(g, -2)[0]
    eul = euler_series(table, EulerParams(t=Fraction(-1), zeta=Fraction(-2), K_max=80))
    digest.check_bool(
        "ring_with_core(21,1): Euler t=-1 at zeta=-2 converges to mu_1(-2) "
        "while the plain series does not",
        abs(float(eul.at(80)) - mu1_m2) < 1e-9
        and abs(float(taylor_partial_sums(table, Fraction(-2)).at(80)) - mu1_m2) > 1e-3,
    )
    for K in sorted(ser.partial_sums):
        if K % 10 == 0:
            rows.append((1, "", K, _format_value(ser.at(K), False),
                         f"{accuracy_alpha(ser.at(K), mu1):.6f}", repr(mu1), ""))

    g9 = ring_with_core(21, 9)
    table9 = coefficients(g9, 1, 60)
    ser9 = taylor_partial_sums(table9, Fraction(-1))
    digest.check_bool(
        "ring_with_core(21,9): series at zeta=-1 diverges",
        abs(float(ser9.at(60))) > 1e6,
    )
    xis9 = [float(euler_series(table9, EulerParams(t=Fraction(t), zeta=Fraction(-2), K_max=60))
                  .at(60)) for t in (-1, -2, -3)]
    # far from every eigenvalue of its own matrix: the top one, 23, is a cluster
    mus9 = _perturbed_spectrum(g9, -2)
    div9 = all(abs(xi - mu) > 1e3 for xi in xis9 for mu in mus9)
    digest.check_bool("ring_with_core(21,9): Euler at zeta=-2 diverges for t=-1,-2,-3", div9)

    for n, k in ((8, 1), (21, 2), (31, 3)):
        gnk = ring_with_core(n, k)
        argnk = almost_regular(gnk)
        chc = chc_build(closed_walk_counts(gnk, 1, 10), 10)
        gen = coefficients(gnk, 1, 10)
        ok = all(cm_closed_form(argnk, chc, m) == gen.c_at(m) for m in range(2, 11))
        digest.check_bool(f"ring_with_core({n},{k}): closed form == engine (m<=10)", ok)
    return rows


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = {
        "e1": _reproduce_e1,
        "e2": _reproduce_e2,
        "e3": _reproduce_e3,
        "almost_regular": _reproduce_almost_regular,
    }[args.example]
    digest = _Digest()
    rows = runner(digest)
    _write_csv(rows, DETAIL_HEADER, str(out_dir / f"{args.example}.csv"))
    if digest.failures:
        print(f"{digest.failures} reference check(s) FAILED")
        return 1
    print("all reference checks passed")
    return 0


# ---------------------------------------------------------------------------
# library wrappers
# ---------------------------------------------------------------------------

def cmd_coeffs(args) -> int:
    g = _graph_from_args(args)
    domain = _domain_from_args(args)
    table = coefficients(g, args.q, args.K, domain)
    if args.json:
        from .perturb import coefficient_table_to_json

        print(coefficient_table_to_json(table))
    else:
        parts = [f"c{j}={_format_value(table.c_at(j), args.exact)}" for j in range(2, args.K + 1)]
        print(",".join(parts))
    return 0


def cmd_series(args) -> int:
    """`taylor` and `euler`: partial sums of the series at node q as CSV."""
    g = _graph_from_args(args)
    domain = _domain_from_args(args)
    table = coefficients(g, args.q, args.K, domain)
    zeta = parse_number(args.zeta)
    if args.command == "euler":
        series = euler_series(table, EulerParams(t=parse_number(args.t), zeta=zeta, K_max=args.K))
    else:
        series = taylor_partial_sums(table, zeta, args.K)
    mus = _perturbed_spectrum(g, zeta)
    _write_csv(_series_rows(series, mus, args.alpha_threshold, args.K, args.exact),
               DETAIL_HEADER, args.out)
    return 0


def cmd_oracle(args) -> int:
    g = _graph_from_args(args)
    matrix = {
        "laplacian": laplacian(g),
        "adjacency": g.weights,
        "signless": perturbed_matrix(g, 1),
    }[args.matrix]
    prec = _prec(args, 53)
    spec = symmetric_eigen(matrix, precision_bits=prec)
    print(spectrum_to_json(spec, digits=int(prec * 0.302) + 1))
    return 0


def cmd_contour(args) -> int:
    prec = _prec(args, 128)
    g = _graph_from_args(args)
    arg = almost_regular(g)
    result = contour_eigenvalue(
        arg,
        parse_number(args.zeta),
        radius=parse_number(args.radius) if args.radius is not None else None,
        quad_points=args.points,
        precision_bits=prec,
    )
    print(json.dumps({
        "radius": float(result.radius),
        "points": result.points,
        "branch_ok": result.branch_ok,
        "value": mpmath.nstr(result.value, 25),
    }))
    return 0


def cmd_sweep(args) -> int:
    if args.config:
        config = ExperimentConfig.from_json(Path(args.config).read_text())
    else:
        config = ExperimentConfig(
            graph_source=args.source,
            q_selector=args.q if args.q is not None else "max_unique_degree",
            t_grid=tuple(parse_number(t) for t in args.t.split(",")),
            zeta=parse_number(args.zeta),
            K_max=args.K,
            seed=args.seed,
            alpha_threshold=args.alpha_threshold,
            K_check=min(args.K_check, args.K),
            trials=args.trials,
            n_grid=tuple(int(n) for n in args.n.split(",")),
            p_grid=tuple(parse_number(p) for p in args.p.split(",")),
        )
    cells, details = run_sweep(config, detail=args.detail)
    if args.detail:
        _write_csv([r.row() for r in details], DETAIL_HEADER, args.out)
    else:
        _write_csv([c.row() for c in cells], CELL_HEADER, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Takes every token that starts with -<digit> or -.<digit> as a value.

    argparse reads only plain negative decimals such as -1 or -0.5 as values,
    so -1/2 or -1e-1 after --t or --zeta would be taken for an option.  No
    option name starts that way; subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lap-perturb",
        description="Laplacian eigenvalues by degree-perturbation series and Euler acceleration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="recompute built-in reference tables and verify digits")
    p.add_argument("example", choices=("e1", "e2", "e3", "almost_regular"))
    p.add_argument("--out-dir", default="reproduce-out")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("coeffs", help="perturbation coefficients c_2..c_K at a node")
    _add_graph_args(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--K", type=int, default=4)
    p.add_argument("--exact", action="store_true", help="print rationals as p/q")
    p.add_argument("--prec", type=int, help="float precision in bits (default exact)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coeffs)

    for name in ("taylor", "euler"):
        p = sub.add_parser(name, help=f"{name} partial sums as CSV with accuracy column")
        _add_graph_args(p)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--K", type=int, default=30)
        p.add_argument("--zeta", default="-1", help=_ZETA_HELP)
        if name == "euler":
            p.add_argument("--t", default="-1")
        p.add_argument("--alpha-threshold", type=float, default=-4.0)
        p.add_argument("--exact", action="store_true")
        p.add_argument("--prec", type=int)
        p.add_argument("--out")
        p.set_defaults(func=cmd_series)

    p = sub.add_parser("oracle", help="dense symmetric eigensolver spectrum as JSON")
    _add_graph_args(p)
    p.add_argument("--matrix", choices=("laplacian", "adjacency", "signless"), default="laplacian")
    p.add_argument("--prec", type=int)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("contour", help="contour-integral eigenvalue for an almost-regular graph")
    _add_graph_args(p)
    p.add_argument("--zeta", default="-1")
    p.add_argument("--radius")
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--prec", type=int)
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("sweep", help="convergence-fraction sweep over seeded ensembles")
    p.add_argument("--config", help="JSON config file (mirrors ExperimentConfig)")
    p.add_argument("--source", default="erdos_renyi")
    p.add_argument("--n", default="20")
    p.add_argument("--p", default="0.2")
    p.add_argument("--t", default="-1")
    p.add_argument("--zeta", default="-1", help=_ZETA_HELP)
    p.add_argument("--K", type=int, default=30)
    p.add_argument("--K-check", dest="K_check", type=int, default=30)
    p.add_argument("--alpha-threshold", type=float, default=-4.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q", type=int)
    p.add_argument("--detail", action="store_true", help="emit per-trial rows")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
