"""Every public name the package advertises, and every name the benchmark
binds, resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import lap_perturb

MODULES = sorted(info.name for info in pkgutil.iter_modules(lap_perturb.__path__))

# names bench/workloads.py imports, by module
BENCH_NAMES = {
    "almost_regular": ("almost_regular", "almost_regular_series", "contour_eigenvalue"),
    "cli": ("main",),
    "domain": ("float_domain",),
    "euler": ("EulerParams", "euler_series"),
    "examples_data": ("E2_ADJACENCY", "E2_Q3_XI", "E2_Q7_XI", "E2_Q7_XI_30", "E2_Q13_XI",
                      "E2_Q13_XI_15", "E3_ADJACENCY", "example_graph"),
    "graph": ("ring_with_core",),
    "perturb": ("coefficients",),
    "sweep": ("ExperimentConfig", "run_sweep"),
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"lap_perturb.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, missing


@pytest.mark.parametrize("name", sorted(BENCH_NAMES))
def test_benchmark_names_resolve(name):
    module = importlib.import_module(f"lap_perturb.{name}")
    missing = [attr for attr in BENCH_NAMES[name] if not hasattr(module, attr)]
    assert not missing, missing
