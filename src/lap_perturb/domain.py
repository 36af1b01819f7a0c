"""Number-domain plumbing: exact rational arithmetic vs extended-precision floats.

Every coefficient/series routine in this package is generic over a scalar
type.  ``NumberDomain`` pins that type down: ``exact_rational`` keeps each
value a :class:`fractions.Fraction` (legal only when all inputs are
rational), while ``float`` returns mpmath reals at a configurable number of
mantissa bits.  Every layer takes each input at its exact value
(``_exact_value``, or its ``_integer_ratio``): a float or mpf is a dyadic
rational.  So ``perturb`` computes every table exactly, from the weights of
``Graph._integer_weights``, and a float domain rounds each value once
(``_rounded_ratio``); only the choice of the default domain asks whether
every weight is rational (``_rational``).  ``euler`` rounds each partial
sum once, from its unreduced integer ratio, when it is read.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from numbers import Rational

import mpmath
from mpmath.libmp import from_rational, round_nearest, to_rational

EXACT_RATIONAL = "exact_rational"
FLOAT = "float"


@dataclass(frozen=True)
class NumberDomain:
    """Arithmetic mode used for coefficient tables and series sums."""

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
        """Context manager pinning the mpmath working precision (no-op if exact)."""
        if self.is_exact:
            return nullcontext()
        return mpmath.workprec(self.precision_bits)

    def coerce(self, value):
        """Convert ``value`` to this domain's scalar type.

        Raises TypeError in exact mode for values that are not rational
        numbers; irrational inputs must use a float domain.
        """
        if self.is_exact:
            if isinstance(value, Rational):
                return Fraction(value)
            raise TypeError(
                f"exact_rational domain cannot represent {value!r}; use a float domain"
            )
        return to_mpf(value)


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


def to_mpf(value) -> mpmath.mpf:
    """Convert int/Fraction/float/mpf to an mpf at the current working precision.

    A rational is rounded once, to nearest, from its numerator and
    denominator.
    """
    if isinstance(value, Rational) and not isinstance(value, int):
        return _rounded_ratio(int(value.numerator), int(value.denominator))
    return mpmath.mpf(value)


def _rounded_ratio(numerator: int, denominator: int) -> mpmath.mpf:
    """numerator / denominator (denominator > 0) rounded once, to nearest, at the working precision."""
    return mpmath.mp.make_mpf(from_rational(numerator, denominator, mpmath.mp.prec, round_nearest))


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
