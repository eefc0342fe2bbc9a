"""Exact rational scalars and their text form.

Every scalar in this package (q, A, B, weights, probabilities) is a
`fractions.Fraction`. The wire format used by the CLI and in emitted files
is "p" or "p/q" in base 10 with an optional leading minus sign; decimal
notation is rejected so that no value ever passes through floating point.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^-?\d+(?:/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction, rejecting any other syntax."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational in p or p/q form: {text!r}")
    return Fraction(s)


def format_rational(value) -> str:
    """Render an exact value as "p" or "p/q" (lowest terms).

    Python refuses to convert integers of more digits than
    sys.get_int_max_str_digits() to text; that guard is for untrusted
    input, so it is lifted here, for output only, and restored after.
    """
    value = Fraction(value)
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)
