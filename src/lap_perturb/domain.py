"""Number-domain plumbing: exact rational arithmetic vs extended-precision floats.

Every coefficient/series routine in this package is generic over a scalar
type.  ``NumberDomain`` pins that type down: ``exact_rational`` keeps each
value a :class:`fractions.Fraction` (legal only when all inputs are
rational), while ``float`` returns mpmath reals at a configurable number of
mantissa bits.  Every layer takes each input at its exact value
(``_exact_value``, or its ``_integer_ratio``): a float or mpf is a dyadic
rational, and a list of them is put over one common denominator by
``_over_lcm``.  So ``perturb`` computes every table exactly, from the weights
of ``Graph._weight_array``, and ``euler`` every partial sum; only the
choice of the default domain asks whether every weight is rational
(``_rational``).  An exact value enters a domain in one place,
``NumberDomain.ratio``: a ``Fraction``, or rounded once, to nearest, at the
domain's own precision, whatever mpmath's process-wide working precision is,
so tables and series made in concurrent threads do not depend on each other.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm
from numbers import Rational

import mpmath
from mpmath.libmp import from_rational, round_nearest, to_rational

EXACT_RATIONAL = "exact_rational"
FLOAT = "float"


@dataclass(frozen=True)
class NumberDomain:
    """Arithmetic mode of tables and series, whose values never depend on mpmath's precision."""

    mode: str = EXACT_RATIONAL
    precision_bits: int = 128

    def __post_init__(self) -> None:
        if self.mode not in (EXACT_RATIONAL, FLOAT):
            raise ValueError(f"unknown number domain mode: {self.mode!r}")
        if self.mode == FLOAT and self.precision_bits < 24:
            raise ValueError("precision_bits must be at least 24")

    @property
    def is_exact(self) -> bool:
        return self.mode == EXACT_RATIONAL

    def context(self):
        """Context manager pinning the working precision for arithmetic on values (no-op if exact)."""
        if self.is_exact:
            return nullcontext()
        return mpmath.workprec(self.precision_bits)

    def ratio(self, numerator: int, denominator: int):
        """numerator / denominator (denominator > 0) as a value of this domain.

        A ``Fraction`` in exact mode, else the mpf rounded once, to nearest,
        at ``precision_bits``, whatever the working precision.
        """
        if self.is_exact:
            return Fraction(numerator, denominator)
        return mpmath.mp.make_mpf(from_rational(numerator, denominator, self.precision_bits,
                                                round_nearest))

    def coerce(self, value):
        """Convert ``value`` to this domain's scalar type.

        A float domain rounds the exact value once, as ``ratio`` does, and
        raises the ValueError of ``_integer_ratio`` for a non-finite one.
        Raises TypeError in exact mode for values that are not rational
        numbers; irrational inputs must use a float domain.
        """
        if self.is_exact:
            if isinstance(value, Rational):
                return Fraction(value)
            raise TypeError(
                f"exact_rational domain cannot represent {value!r}; use a float domain"
            )
        return self.ratio(*_integer_ratio(value))


def exact_domain() -> NumberDomain:
    return NumberDomain(EXACT_RATIONAL)


def float_domain(precision_bits: int = 128) -> NumberDomain:
    return NumberDomain(FLOAT, precision_bits)


def _rational(x) -> bool:
    """Whether ``x`` is an exact rational (int, Fraction, or anything with a denominator)."""
    return isinstance(x, (int, Fraction)) or getattr(x, "denominator", None) is not None


def _exact_value(value) -> Fraction:
    """The exact value of a finite int, Fraction, float or mpf (a binary float is dyadic).

    Anything else, NaN and the infinities included, raises ValueError.
    """
    return value if type(value) is Fraction else Fraction(*_integer_ratio(value))


def _integer_ratio(value) -> tuple:
    """(numerator, denominator) of ``_exact_value(value)``: coprime, denominator positive."""
    if isinstance(value, Rational):
        return int(value.numerator), int(value.denominator)
    if isinstance(value, float) and isfinite(value):
        return value.as_integer_ratio()
    if isinstance(value, mpmath.mpf) and mpmath.isfinite(value):
        return to_rational(value._mpf_)
    raise ValueError(f"{value!r} is not a finite number")


def _over_lcm(values) -> tuple:
    """(F, L): the exact values as integers F_k over L, the lcm of their reduced denominators.

    A non-finite value raises the ValueError of ``_integer_ratio``.
    """
    ratios = [(v, 1) if type(v) is int else _integer_ratio(v) for v in values]
    L = lcm(*(den for _, den in ratios))
    return tuple(num * (L // den) for num, den in ratios), L


def to_mpf(value) -> mpmath.mpf:
    """Convert int/Fraction/float/mpf to an mpf at the current working precision.

    A rational is rounded once, to nearest, from its numerator and
    denominator.
    """
    if isinstance(value, Rational) and not isinstance(value, int):
        return mpmath.mp.make_mpf(from_rational(int(value.numerator), int(value.denominator),
                                                mpmath.mp.prec, round_nearest))
    return mpmath.mpf(value)


def parse_number(text: str) -> Fraction:
    """Parse a CLI/file scalar: accepts "3", "-5/2", "2.5", "1e-3".

    Anything else, a zero denominator included, raises ValueError.
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def format_rational(value: Fraction) -> str:
    """Serialize a rational as an explicit "p/q" string (exactness-preserving)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"
