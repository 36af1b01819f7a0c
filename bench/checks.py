"""Output checks, computed apart from the program under test.

Graphs are rebuilt from their definitions (the splitmix64 Erdos-Renyi rule,
the ring with a core node), spectra come from ``numpy.linalg.eigvalsh`` or
from ``mpmath.eigsy`` at 128 bits, and printed digits are compared in exact
decimal arithmetic.  Nothing here calls the program's own digest or
cross-check code.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np

CONVERGED_GAP = 1e-4   # alpha <= -4 means |xi - mu| <= 1e-4
TIE_BAND = 1e-9        # gaps this close to the threshold are ties, not checked
MATCH_TOL = 1e-9       # matched_mu against the independent spectrum
# The program ranks eigenvalues by float alpha = log10 |xi - mu|; for a far
# divergent xi those alphas agree to the last bit, so distances within this
# relative band of the nearest one are ties, resolved by the program toward
# the larger eigenvalue.
NEAREST_REL_TIE = 1e-12
ALPHA_TOL = 1e-4       # recorded alpha against log10 |xi - matched_mu|
CELL_STRIDE = 1_000_003  # trial i of cell c uses seed + CELL_STRIDE * c + i

_MASK = (1 << 64) - 1


class CheckError(AssertionError):
    """A program output disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Graphs and spectra
# ---------------------------------------------------------------------------

def er_adjacency(n: int, p, seed: int) -> np.ndarray:
    """G(n, p) by the splitmix64 rule: pair (u, v), u < v in lexicographic
    order, takes the next 64-bit draw z and is an edge iff z < floor(p 2^64)."""
    threshold = int(Fraction(p) * (1 << 64))
    state = seed & _MASK
    adj = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            state = (state + 0x9E3779B97F4A7C15) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            if (z ^ (z >> 31)) < threshold:
                adj[u, v] = adj[v, u] = 1
    return adj


def ring_with_core_adjacency(n: int, k: int) -> np.ndarray:
    """Node 1 joined to all others; nodes 2..n on a ring, each joined to its
    k nearest ring neighbours on either side."""
    adj = np.zeros((n, n), dtype=np.int64)
    adj[0, 1:] = adj[1:, 0] = 1
    m = n - 1
    for i in range(m):
        for s in range(1, k + 1):
            j = (i + s) % m
            adj[1 + i, 1 + j] = adj[1 + j, 1 + i] = 1
    return adj


def unique_degree_nodes(adj: np.ndarray) -> tuple:
    """1-based nodes whose degree no other node shares, in increasing order."""
    degrees = adj.sum(axis=1)
    values, counts = np.unique(degrees, return_counts=True)
    unique = set(values[counts == 1].tolist())
    return tuple(i + 1 for i, d in enumerate(degrees.tolist()) if d in unique)


def laplacian_spectrum(adj: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(np.diag(adj.sum(axis=1)) - adj).astype(float)


def laplacian_spectrum_128(adj: np.ndarray) -> list:
    """Laplacian eigenvalues at 128 bits, descending (mpf values)."""
    lap = (np.diag(adj.sum(axis=1)) - adj).tolist()
    with mpmath.workprec(128):
        values = mpmath.eigsy(mpmath.matrix(lap), eigvals_only=True)
        return sorted((values[i] for i in range(len(lap))), reverse=True)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def check_record(record, spectrum: np.ndarray, tally: dict) -> None:
    """matched_mu is the eigenvalue nearest to xi, converged iff it lies
    within CONVERGED_GAP of xi, and alpha is log10 of their distance."""
    xi, mu = record.xi, record.matched_mu
    dist_to = np.abs(spectrum - mu)
    require(dist_to.min() <= MATCH_TOL,
            f"q={record.q} t={record.t}: matched_mu {mu!r} is no eigenvalue")
    if not math.isfinite(xi):
        require(min(abs(mu - spectrum.max()), abs(mu - spectrum.min())) <= MATCH_TOL,
                f"q={record.q} t={record.t}: divergent xi matched an inner eigenvalue")
        require(not record.converged, f"q={record.q} t={record.t}: divergent xi marked converged")
        tally["records"] += 1
        return
    gap = abs(xi - mu)
    nearest = np.abs(spectrum - xi).min()
    if gap > nearest + MATCH_TOL:
        require(gap <= nearest * (1 + NEAREST_REL_TIE),
                f"q={record.q} t={record.t}: matched_mu {mu!r} is not the eigenvalue nearest "
                f"to xi {xi!r} (gap {gap:.3g}, nearest {nearest:.3g})")
        tally["nearest_ties"] += 1
    if gap > 1e-10 * max(1.0, abs(xi)):
        require(abs(record.alpha - math.log10(gap)) <= ALPHA_TOL,
                f"q={record.q} t={record.t}: alpha {record.alpha} but log10|xi - mu| = "
                f"{math.log10(gap):.6f}")
    if abs(gap - CONVERGED_GAP) <= TIE_BAND:
        tally["threshold_ties"] += 1
    else:
        require(bool(record.converged) == (gap < CONVERGED_GAP),
                f"q={record.q} t={record.t}: converged={record.converged} but "
                f"|xi - mu| = {gap:.3g}")
    tally["records"] += 1


def expected_nodes(adj: np.ndarray, selector) -> tuple:
    unique = unique_degree_nodes(adj)
    if selector == "all_unique" or not unique:
        return unique
    if selector == "max_unique_degree":
        degrees = adj.sum(axis=1)
        return (max(unique, key=lambda u: degrees[u - 1]),)
    raise ValueError(f"unsupported selector {selector!r}")


def check_ensemble_call(config, cells, details, tally: dict) -> dict:
    """Check one ensemble ``run_sweep(config, detail=True)`` result.

    Rebuilds every trial graph, so skipped trials must be exactly those with
    no unique degree, the records must cover the selected nodes in order,
    and every record must pass ``check_record``.  Returns, per p, the
    (trials, converged) counts of the call.
    """
    expected_cells = []
    records = iter(details)
    per_p: dict = {}
    cell_index = 0
    for n in config.n_grid:
        for p in config.p_grid:
            graphs = [er_adjacency(n, p, config.seed + CELL_STRIDE * cell_index + i)
                      for i in range(config.trials)]
            for t in config.t_grid:
                skipped = converged = 0
                for adj in graphs:
                    nodes = expected_nodes(adj, config.q_selector)
                    if not nodes:
                        skipped += 1
                        continue
                    spectrum = laplacian_spectrum(adj)
                    for q in nodes:
                        record = next(records, None)
                        require(record is not None, "fewer trial records than selected nodes")
                        require((record.q, record.t, record.K) == (q, t, config.K_check),
                                f"record (q={record.q}, t={record.t}, K={record.K}) where "
                                f"(q={q}, t={t}, K={config.K_check}) was due")
                        check_record(record, spectrum, tally)
                        converged += bool(record.converged)
                expected_cells.append((n, p, t, config.trials, skipped, converged))
                trials, conv = per_p.get(p, (0, 0))
                per_p[p] = (trials + config.trials, conv + converged)
                tally["skipped_trials"] += skipped
            cell_index += 1
    require(next(records, None) is None, "more trial records than selected nodes")
    got = [(c.n, c.p, c.t, c.trials, c.skipped, c.converged) for c in cells]
    require(got == expected_cells, f"sweep cells {got} differ from {expected_cells}")
    return per_p


# ---------------------------------------------------------------------------
# Paper tables
# ---------------------------------------------------------------------------

def half_ulp(text: str) -> Fraction:
    """Half a unit in the last printed digit of a decimal string."""
    return Fraction(1, 2) * Fraction(10) ** Decimal(text.strip()).as_tuple().exponent


def matches_printed(value: str, printed: str) -> bool:
    """Both strings round the same number: they differ by at most the sum of
    their half-ulps."""
    return abs(Fraction(value.strip()) - Fraction(printed.strip())) <= half_ulp(value) + half_ulp(printed)


def csv_values(rows, column: str = "xi") -> dict:
    """{(q, t, K): text} from reproduce CSV rows (dicts)."""
    return {(int(r["q"]), r["t"], int(r["K"])): r[column] for r in rows}


def check_printed(values: dict, q: int, t: str, refs: dict, label: str) -> int:
    for K, printed in refs.items():
        value = values.get((q, t, K))
        require(value is not None, f"{label}: no CSV row for q={q}, K={K}")
        require(matches_printed(value, printed),
                f"{label}: xi_{q};{K} = {value} does not match the printed {printed}")
    return len(refs)


def to_mpf(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def within(a, b, tol: float) -> bool:
    with mpmath.workprec(256):
        return abs(to_mpf(a) - to_mpf(b)) <= mpmath.mpf(tol)


def check_e3_rows(rows, adj: np.ndarray, t_grid, expected_degrees: set, tally: dict) -> None:
    """Every unique-degree node has a row per t; the converged flag at K = 100
    agrees with the independent spectrum; the converged degrees are exactly
    ``expected_degrees``."""
    spectrum = laplacian_spectrum(adj)
    degrees = adj.sum(axis=1)
    final = {(int(r["q"]), int(r["t"])): r for r in rows if int(r["K"]) == 100}
    nodes = unique_degree_nodes(adj)
    require(set(final) == {(q, t) for q in nodes for t in t_grid},
            f"e3 rows cover {sorted(final)}, not every unique-degree node at t in {t_grid}")
    converged_degrees = set()
    for (q, t), row in final.items():
        xi = float(Fraction(row["xi"]))
        gap = float(np.abs(spectrum - xi).min())
        flag = row["converged"] == "true"
        if abs(gap - CONVERGED_GAP) <= TIE_BAND:
            tally["threshold_ties"] += 1
        else:
            require(flag == (gap < CONVERGED_GAP),
                    f"e3 q={q} t={t}: converged={flag} but the nearest eigenvalue is {gap:.3g} away")
        if flag:
            converged_degrees.add(int(degrees[q - 1]))
    require(converged_degrees == expected_degrees,
            f"e3 converged degrees {sorted(converged_degrees)} != {sorted(expected_degrees)}")
