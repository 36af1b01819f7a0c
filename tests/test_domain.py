from __future__ import annotations

import json
import math
import random
import sys
import threading
import time
from fractions import Fraction

import mpmath
import numpy
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_rational, round_nearest

import lap_perturb.cli as cli
from lap_perturb.almost_regular import almost_regular, contour_eigenvalue
from lap_perturb.domain import (
    NumberDomain,
    _exact_value,
    exact_domain,
    float_domain,
    format_rational,
    parse_number,
    to_mpf,
)
from lap_perturb.eigen import symmetric_eigen
from lap_perturb.euler import EulerParams, euler_series, taylor_partial_sums
from lap_perturb.graph import build_graph, laplacian, ring_with_core
from lap_perturb.perturb import beta_rows, coefficient_table_to_json, coefficients, default_domain
from lap_perturb.sweep import ExperimentConfig, run_sweep

from helpers import mpf_value
from oracles import round_to_nearest


def test_exact_domain_rejects_irrational_inputs():
    with pytest.raises(TypeError, match="exact_rational"):
        exact_domain().coerce(0.5 ** 0.5 * 2)  # an arbitrary non-Rational float

    g = build_graph(3, [(1, 2, 0.3), (2, 3, 0.7)])
    with pytest.raises(TypeError):
        coefficients(g, 2, 4, exact_domain())


def test_default_domain_switches_on_float_weights():
    g = build_graph(3, [(1, 2, 0.3), (2, 3, 0.7)])
    domain = default_domain(g)
    assert not domain.is_exact
    table = coefficients(g, 2, 4, domain)
    assert isinstance(table.c_at(2), mpmath.mpf)


def test_mode_validation():
    with pytest.raises(ValueError, match="unknown number domain"):
        NumberDomain("decimal")
    with pytest.raises(ValueError, match="at least 24"):
        NumberDomain("float", 8)


def test_float_context_pins_precision():
    domain = float_domain(200)
    with domain.context():
        assert mpmath.mp.prec == 200


def test_parse_and_format():
    assert parse_number("-5/2") == Fraction(-5, 2)
    assert parse_number("2.5") == Fraction(5, 2)
    assert parse_number("1e-3") == Fraction(1, 1000)
    assert format_rational(Fraction(2)) == "2/1"
    assert format_rational(Fraction(-5, 2)) == "-5/2"


@pytest.mark.parametrize("text", ["1/0", "-1/0", "abc"])
def test_parse_number_rejects_with_value_error(text):
    with pytest.raises(ValueError):
        parse_number(text)


@pytest.mark.parametrize("value", [math.nan, math.inf, mpmath.nan, -mpmath.inf])
def test_exact_value_rejects_non_finite(value):
    with pytest.raises(ValueError, match="not a finite number"):
        _exact_value(value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -math.inf, numpy.float64("nan"),
                                   numpy.float64("-inf")], ids=["nan", "inf", "-inf", "np-nan", "np-inf"])
def test_exact_value_rejects_non_finite_float(value):
    with pytest.raises(ValueError, match="is not a finite number$"):
        _exact_value(value)


def test_exact_value_of_binary_floats():
    assert _exact_value(0.1) == Fraction(3602879701896397, 2**55)
    with mpmath.workprec(24):  # a float is not rounded to the working precision
        assert _exact_value(0.1) == Fraction(3602879701896397, 2**55)
    with mpmath.workprec(128):
        third = mpmath.mpf(1) / 3
    x = _exact_value(third)  # a dyadic rational within half an ulp of 1/3
    assert x.denominator & (x.denominator - 1) == 0
    assert abs(x - Fraction(1, 3)) <= Fraction(1, 2**130)
    assert _exact_value(3) == Fraction(3)


def test_to_mpf_is_lossless_for_fractions():
    with mpmath.workprec(100):
        x = to_mpf(Fraction(1, 3))
        assert abs(x - mpmath.mpf(1) / 3) < mpmath.mpf(2) ** -99


@pytest.mark.parametrize("bits", [53, 128, 256])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64))
def test_to_mpf_rounds_a_fraction_once(bits, seed):
    # a random 300-bit numerator over a 200-bit denominator (hypothesis's own
    # wide integers have few set bits and round like short ones); mpf(p) / q
    # would round p first, then the quotient
    rng = random.Random(seed)
    x = Fraction(rng.choice((1, -1)) * rng.getrandbits(300), rng.getrandbits(200) | 1)
    with mpmath.workprec(bits):
        value = to_mpf(x)
    assert value._mpf_ == from_rational(x.numerator, x.denominator, bits, round_nearest)
    assert mpf_value(value) == round_to_nearest(x, bits)


@pytest.fixture
def prec_sets(monkeypatch):
    """The values assigned to mpmath's working precision while the test runs, in order."""
    sets = []
    context = type(mpmath.mp)
    prec = context.prec

    def counted(ctx, value):
        sets.append(value)
        prec.fset(ctx, value)
    monkeypatch.setattr(context, "prec", property(prec.fget, counted))
    return sets


def _series_read(g, domain) -> list:
    """Every partial sum of an Euler and a Taylor series of node 13, and their zeta and t."""
    table = coefficients(g, 13, 30, domain)
    euler = euler_series(table, EulerParams(t=Fraction(-1), zeta=Fraction(-1), K_max=30))
    taylor = taylor_partial_sums(table, Fraction(-1, 3))
    return [euler.zeta, euler.t, taylor.zeta, *euler.partial_sums.values(),
            *taylor.partial_sums.values()]


class TestNoWorkingPrecision:
    """Values enter a domain without setting mpmath's process-wide working precision."""

    @pytest.mark.parametrize("made", ["coefficients", "beta_rows", "series", "json", "sweep",
                                      "format", "oracle"])
    def test_nothing_sets_the_working_precision(self, e2, prec_sets, capsys, made):
        domain = float_domain(128)
        if made == "coefficients":
            assert coefficients(e2, 13, 30, domain).c
        elif made == "format":
            third = mpmath.mp.make_mpf(from_rational(1, 3, 600, round_nearest))
            read = _series_read(e2, float_domain(256))[-1]
            values = (Fraction(1, 3), 0.1, 2**200 + 1, third, read, -7)
            assert [cli._format_value(x, False) for x in values] == [  # as under workprec(113)
                "0.33333333333333333", "0.10000000000000001", "1.6069380442589903e+60",
                "0.33333333333333333", "10.212683554825933", "-7.0"]
        elif made == "beta_rows":
            assert beta_rows(e2, 13, 30, domain)
        elif made == "series":
            assert len(_series_read(e2, domain)) == 3 + 2 * 29
        elif made == "json":
            assert coefficient_table_to_json(coefficients(e2, 13, 30, domain))
        elif made == "oracle":
            for prec in ("24", "53"):
                assert cli.main(["oracle", "--example", "e2", "--prec", prec]) == 0
                assert json.loads(capsys.readouterr().out)["eigenvalues"]
        else:
            config = ExperimentConfig(domain=domain, trials=3, q_selector="all_unique",
                                      t_grid=(Fraction(-1), Fraction(-2)))
            assert run_sweep(config, detail=True)[1]
        assert prec_sets == []

    def test_the_contour_command_sets_only_the_contours_precision(self, prec_sets, capsys):
        arg = almost_regular(ring_with_core(21, 1))
        contour_eigenvalue(arg, Fraction(-1), precision_bits=256)
        own = list(prec_sets)
        assert own == [256, mpmath.mp.prec]  # its own enter and exit
        del prec_sets[:]
        assert cli.main(["contour", "--gen", "ring_with_core:21,1", "--zeta", "-1",
                         "--prec", "256"]) == 0
        assert json.loads(capsys.readouterr().out)["branch_ok"]
        assert prec_sets == own

    def test_the_oracle_command_sets_only_the_solvers_precision(self, e2, prec_sets, capsys):
        # the certificate of a spectrum above 53 bits still works at 64 bits
        symmetric_eigen(laplacian(e2), precision_bits=128)
        own = list(prec_sets)
        assert own
        del prec_sets[:]
        assert cli.main(["oracle", "--example", "e2", "--prec", "128"]) == 0
        assert json.loads(capsys.readouterr().out)["eigenvalues"]
        assert prec_sets == own

    def test_the_spy_sees_a_setting(self, prec_sets):
        ambient = mpmath.mp.prec
        with float_domain(200).context():
            pass
        assert prec_sets == [200, ambient]

    def test_two_threads_at_two_precisions_make_their_one_thread_values(self, e2):
        # a tiny switch interval makes the threads interleave inside every rounding
        domains = (float_domain(53), float_domain(256))
        expected = {domain: _series_read(e2, domain) for domain in domains}
        got = {domain: [] for domain in domains}

        def work(domain):
            end = time.perf_counter() + 0.5
            while time.perf_counter() < end or len(got[domain]) < 2:
                got[domain].append(_series_read(e2, domain))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(domain,)) for domain in domains]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for domain in domains:
            assert len(got[domain]) >= 2
            assert all(values == expected[domain] for values in got[domain])
