"""Exact rational scalars and their text form.

Every scalar in this package (q, A, B, weights, probabilities) is a
`fractions.Fraction`. The wire format used by the CLI and in emitted files
is "p" or "p/q" in base 10 with an optional leading minus sign; decimal
notation is rejected so that no value ever passes through floating point.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

_RATIONAL_RE = re.compile(r"^-?\d+(?:/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction, rejecting any other syntax."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational in p or p/q form: {text!r}")
    return Fraction(s)


@contextmanager
def _unlimited_digits():
    """Lift the limit on digits in int-to-str conversion, then restore it.

    Python refuses to convert integers of more digits than
    sys.get_int_max_str_digits() to text; that guard is for untrusted
    input, so it is lifted here, for output only.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def format_rational(value) -> str:
    """Render an exact value as "p" or "p/q" (lowest terms)."""
    value = Fraction(value)
    with _unlimited_digits():
        return str(value)


def format_ratios(masses, total: int) -> list[str]:
    """Render each integer mass over a positive integer total as
    format_rational(Fraction(mass, total)) would, with one gcd per mass
    and the digit limit lifted once for the whole batch."""
    out = []
    with _unlimited_digits():
        for m in masses:
            g = gcd(m, total)
            num, den = m // g, total // g
            out.append(str(num) if den == 1 else f"{num}/{den}")
    return out
