"""Printed-digit comparisons: match a computed value against a reference string.

A value "matches" a printed reference iff it lies within half an ulp of the
reference's last printed digit, i.e. the reference is the correctly rounded
rendering of the value at that precision.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .domain import _exact_value, parse_number

__all__ = ["printed_half_ulp", "matches_printed"]


def printed_half_ulp(text: str) -> Fraction:
    """Half an ulp of the last printed digit of ``text``."""
    s = text.strip().lstrip("+-")
    m = re.fullmatch(r"([0-9]*)(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?", s)
    if m is None:
        raise ValueError(f"not a printed decimal: {text!r}")
    frac_digits = len(m.group(2) or "")
    exponent = int(m.group(3) or 0)
    return Fraction(1, 2) * Fraction(10) ** (exponent - frac_digits)


def matches_printed(value, text: str) -> bool:
    """True iff |value - printed| <= half an ulp of the last printed digit.

    ``value`` (int, Fraction, float or mpf) is compared at its exact value;
    NaN or an infinity raises ValueError.
    """
    return abs(_exact_value(value) - parse_number(text)) <= printed_half_ulp(text)
