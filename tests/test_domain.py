from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import numpy
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_rational, round_nearest

from lap_perturb.domain import (
    NumberDomain,
    _exact_value,
    exact_domain,
    float_domain,
    format_rational,
    parse_number,
    to_mpf,
)
from lap_perturb.graph import build_graph
from lap_perturb.perturb import coefficients, default_domain

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
