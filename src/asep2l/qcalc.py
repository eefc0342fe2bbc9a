"""Exact q-calculus primitives.

Provides q-numbers, q-factorials, q-Pochhammer symbols, dense polynomials
over rationals, and the q-difference (Jackson) derivative

    (D_q f)(z) = (f(z) - f(q z)) / ((1 - q) z)

realized as an exact operator on the closed family of rational functions

    sum_j c_j * z**j / (z;q)_n.

Such a function is stored as a :class:`BasisElement` with denominator depth
``n`` and numerator coefficients ``c_j``. Applying ``D_q`` raises the depth
by exactly one:

    D_q [z^j / (z;q)_n] = ([j]_q z^(j-1) + q^j [n-j]_q z^j) / (z;q)_(n+1)

and D_q . z (multiply by z, then differentiate) is D_q on the shifted
numerator, since (D_q . z) f = D_q (z f). The action formula is pinned by
tests against the raw difference quotient at rational sample points. It
runs on integers: with q = a/b, b**(k-1) [k]_q is an integer, so the
numerators at depth n+1 times b**(n-1) are integer combinations of those
at depth n. Everything here is exact; q must be a rational with 0 <= q < 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

from .record import Record

Rational = Fraction


def q_number(n: int, q: Rational) -> Fraction:
    """[n]_q = 1 + q + ... + q**(n-1); zero for n = 0."""
    if n < 0:
        raise ValueError(f"q-number needs n >= 0, got {n}")
    q = Fraction(q)
    total = Fraction(0)
    power = Fraction(1)
    for _ in range(n):
        total += power
        power *= q
    return total


def q_factorial(n: int, q: Rational) -> Fraction:
    """[n]_q! = product of [k]_q for k = 1..n; one for n = 0."""
    if n < 0:
        raise ValueError(f"q-factorial needs n >= 0, got {n}")
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= q_number(k, q)
    return out


def q_pochhammer(a: Rational, q: Rational, n: int) -> Fraction:
    """(a;q)_n = product of (1 - a q**k) for k = 0..n-1; one for n = 0."""
    if n < 0:
        raise ValueError(f"q-Pochhammer needs n >= 0, got {n}")
    a = Fraction(a)
    q = Fraction(q)
    out = Fraction(1)
    power = Fraction(1)
    for _ in range(n):
        out *= 1 - a * power
        power *= q
    return out


class QPolynomial(Record, frozen=True):
    """Dense univariate polynomial over Fraction, trailing zeros trimmed.

    coefficient i multiplies z**i; the zero polynomial has no coefficients,
    so equality of values is structural equality.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        self._init(tuple(_trimmed([Fraction(c) for c in coeffs])))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Rational) -> "QPolynomial":
        c = Fraction(c)
        return QPolynomial(ci * c for ci in self.coeffs)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if self.is_zero() or other.is_zero():
            return QPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPolynomial(out)

    def shift(self, k: int = 1) -> "QPolynomial":
        """Multiply by z**k."""
        if self.is_zero():
            return self
        return QPolynomial((Fraction(0),) * k + self.coeffs)

    def __call__(self, z: Rational) -> Fraction:
        return poly_eval(self, z)

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)!r})"


def poly_eval(p: QPolynomial, z: Rational) -> Fraction:
    """Exact Horner evaluation of p at z."""
    z = Fraction(z)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def pochhammer_polynomial(q: Rational, n: int) -> QPolynomial:
    """(z;q)_n expanded in z: product of (1 - q**k z) for k = 0..n-1."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    q = Fraction(q)
    out = QPolynomial([1])
    power = Fraction(1)
    for _ in range(n):
        out = out * QPolynomial([1, -power])
        power *= q
    return out


class BasisElement(Record, frozen=True):
    """Exact element sum_j c_j z**j / (z;q)_depth with q supplied per call.

    Trailing zero coefficients are trimmed so equal values compare equal
    structurally. The difference-operator actions keep numerator degree
    strictly below the depth, so iterated applications stay in the family.
    The weights step with dq_scaled on integer numerators; this class,
    geometric_unit, jackson_dq and jackson_dq_z carry the D_q chain that
    bench/probe.py times.
    """

    __slots__ = ("depth", "coeffs")

    def __init__(self, depth: int, coeffs: Iterable[Rational]):
        if depth < 0:
            raise ValueError(f"depth must be nonnegative, got {depth}")
        self._init(depth, tuple(_trimmed([Fraction(c) for c in coeffs])))

    def shift(self) -> "BasisElement":
        """Multiply by z at fixed depth."""
        return BasisElement(self.depth, (Fraction(0),) + self.coeffs)

    def __repr__(self) -> str:
        return f"BasisElement(depth={self.depth}, coeffs={list(self.coeffs)!r})"


def geometric_unit() -> BasisElement:
    """1/(1-z) = 1/(z;q)_1, the seed of every operator product."""
    return BasisElement(1, (Fraction(1),))


@lru_cache(maxsize=None)
def _action_tables(a: int, b: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Integer factors of the actions at depth n, for q = a/b in lowest
    terms: the scaled q-numbers b**(k-1) [k]_q, the powers a**k and the
    powers b**k, for k = 0..n. Keyed by integers, so no Fraction is
    hashed."""
    numbers, a_powers, b_powers = [0], [1], [1]
    for _ in range(n):
        numbers.append(numbers[-1] * b + a_powers[-1])
        a_powers.append(a_powers[-1] * a)
        b_powers.append(b_powers[-1] * b)
    return tuple(numbers), tuple(a_powers), tuple(b_powers)


def _trimmed(out: list) -> list:
    while out and out[-1] == 0:
        out.pop()
    return out


def dq_scaled(nums: Sequence[int], n: int, q: Fraction) -> list[int]:
    """D_q on integer numerators at depth n, for q = a/b.

    The result holds the numerators at depth n + 1 times b**(n-1) (nothing
    is scaled at n = 0, where the action is zero), so no division occurs.
    D_q . z on the same numerators is dq_scaled([0, *nums], n, q).
    """
    numbers, a_powers, b_powers = _action_tables(q.numerator, q.denominator, n)
    out = [0] * (len(nums) + 1)
    for j, c in enumerate(nums):
        if c == 0:
            continue
        if j > n:
            raise ValueError("D_q action needs numerator degree <= depth")
        if j >= 1:
            out[j - 1] += c * numbers[j] * b_powers[n - j]
        out[j] += c * a_powers[j] * numbers[n - j]
    return _trimmed(out)


def jackson_dq(e: BasisElement, q: Rational) -> BasisElement:
    """Apply D_q, on integers over the common denominator of e's
    coefficients; the result has depth e.depth + 1."""
    q = Fraction(q)
    den = lcm(*(c.denominator for c in e.coeffs))
    nums = [c.numerator * (den // c.denominator) for c in e.coeffs]
    out = dq_scaled(nums, e.depth, q)
    den *= q.denominator ** max(e.depth - 1, 0)
    return BasisElement(e.depth + 1, (Fraction(c, den) for c in out))


def jackson_dq_z(e: BasisElement, q: Rational) -> BasisElement:
    """Apply D_q after multiplying by z; the result has depth e.depth + 1."""
    return jackson_dq(e.shift(), q)
