"""Composition weight polynomials and the two-layer weight function.

A composition (s_0, ..., s_r) of L+1 carries a polynomial w in one
variable, computed two independent ways:

* operator route: starting from 1/(1-z), apply for each part (right to
  left) one q-difference derivative followed by s_j - 1 applications of
  "multiply by z then differentiate", each of them one D_q step
  (qcalc.dq_scaled) on the numerator, shifted by z for the latter. After
  L+1 applications the basis denominator has depth L+2 and the numerator
  coefficients are w. The walk runs on integer numerators over a power
  of den(q), one D_q step from the element of a smaller composition, and
  is memoized by suffix of the parts.
* series route: multiply the truncated power series
  sum_n z^n prod_j ([n+j+1]_q)^(s_j) by the expanded (z;q)_(L+2); all
  product coefficients beyond degree L-r must cancel exactly.

The two-layer weight of a pair (tau, xi) with path gamma is

    Q = B**(end - min) * A**(-min) * w_{comp(gamma)}(A*B),

a polynomial in A and B with nonnegative coefficients, well defined at
A = 0 or B = 0. The rescaled weight multiplies Q by
(AB;q)_2 / (AB;q)_(L+2) = 1 / prod_(k=2..L+1) (1 - A*B*q**k), which the
factors (1 - AB)(1 - ABq) cancel out of; it is only defined away from the
poles A*B*q**k = 1 for k = 2..L+1. ModelParams.tilde_scale forms that
factor as one quotient of two integer products, each pole a zero factor.

The weight depends on the path only through its key (composition, start
height, end height), and _weigh_keys weighs the keys of one length on
integers over one denominator known before the first key is weighed:
every composition of L+1 has its w over the same power of den(q), and
the powers of A, B and the denominator of AB are bounded by the largest
height and the longest numerator list. That denominator is not the least
one, and nothing reduces it: every Fraction read from the weights, and
every law over them, reduces or cross-multiplies when it is read.

Every sum over paths is a fold over one walk of those keys, _key_levels,
which grows the distinct keys one length at a time (about 7 * 2**L of
them, against 3**L paths) and links each length's keys to the previous
one's by a down, a level and an up step, as compact id arrays. Only the
folds beside the walk index those links: partition_Z carries each key's
multiplicity forward along them, _fold_masses folds the key weights
backward into the top-layer masses, and _next_ids gathers the key ids
of the paths forward into step-lexicographic order. ensemble collects
one walk for the marginal, the path law and the sampler and hands its
links to those folds; the identity checkers fold and gather, for every
size, from one walk of their own.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from operator import add
from typing import Iterable

from .errors import SingularParameter
from .lattice import (
    LatticePath,
    Occupation,
    admit,
    composition_of,
    path_of,
)
from .qcalc import (
    QPolynomial,
    Rational,
    _action_tables,
    dq_scaled,
    pochhammer_polynomial,
    q_number,
)
from .record import Record


def _validate_composition(sigma) -> tuple[int, ...]:
    parts = tuple(int(s) for s in sigma)
    if not parts or any(s <= 0 for s in parts):
        raise ValueError(f"composition needs positive parts, got {sigma!r}")
    return parts


# Integer numerators and the power of den(q) under them, of the element
# reached from 1/(1-z) by applying a suffix of the parts: one dict per q,
# keyed by q's numerator and denominator (no Fraction is hashed) and then
# by suffix; every shorter suffix of a key is a key too
_suffix_elements: dict[tuple[int, int], dict[tuple[int, ...], tuple[list[int], int]]] = {}


def _w_scaled(parts: tuple[int, ...], q: Fraction) -> tuple[list[int], int]:
    """Coefficients of w_parts as integers over den(q)**shift, with shift.

    The element of (h, *rest) is one D_q step from a smaller one: D_q . z
    of the element of (h - 1, *rest) when h >= 2, and D_q of the element of
    rest when h = 1; the element of () is 1/(1-z). The walk goes down that
    chain to the first element already known, then back up one step per
    element, and memoizes the suffixes of parts it passes. Compositions
    taken in sorted order find each (h - 1, *rest) memoized as a suffix of
    (1, h - 1, *rest), so each costs one step. Each step at depth k adds
    k - 1 to the shift, so every composition of L+1 has shift L(L+1)/2.
    """
    memo = _suffix_elements.setdefault((q.numerator, q.denominator), {})
    chain = []
    key = parts
    while key and key not in memo:
        chain.append(key)
        key = (key[0] - 1, *key[1:]) if key[0] > 1 else key[1:]
    nums, shift = memo[key] if key else ([1], 0)
    for key in reversed(chain):
        depth = sum(key)  # the element reached has depth + 1
        nums = dq_scaled(nums if key[0] == 1 else [0, *nums], depth, q)
        shift += depth - 1
        if key[0] == parts[-len(key)]:  # a suffix of parts
            memo[key] = (nums, shift)
    return nums, shift


def w_sigma_operator(sigma, q: Rational) -> QPolynomial:
    """Composition polynomial via the iterated difference-operator product:
    one D_q and then s - 1 applications of D_q . z per part."""
    q = Fraction(q)
    nums, shift = _w_scaled(_validate_composition(sigma), q)
    den = q.denominator ** shift
    return QPolynomial(Fraction(c, den) for c in nums)


def w_sigma_series(sigma, q: Rational) -> QPolynomial:
    """Composition polynomial via the truncated q-series route.

    Raises AssertionError if any product coefficient beyond degree L-r
    survives; that would mean one of the two routes is broken.
    """
    parts = _validate_composition(sigma)
    q = Fraction(q)
    L = sum(parts) - 1
    r = len(parts) - 1
    # series term n: prod_j [n+j+1]_q ** s_j, needed for n = 0..L+2
    terms = []
    for n in range(L + 3):
        t = Fraction(1)
        for j, s in enumerate(parts):
            t *= q_number(n + j + 1, q) ** s
        terms.append(t)
    poch = pochhammer_polynomial(q, L + 2)
    coeffs = []
    for k in range(L + 3):
        c = Fraction(0)
        for i in range(k + 1):
            c += poch.coefficient(i) * terms[k - i]
        coeffs.append(c)
    for k in range(L - r + 1, L + 3):
        if coeffs[k] != 0:
            raise AssertionError(
                f"series route leaked degree {k} > {L - r} for sigma={parts}, q={q}"
            )
    return QPolynomial(coeffs[: L - r + 1])


class ModelParams(Record, frozen=True):
    """Exact model parameters: 0 <= q < 1 and boundary strengths A, B >= 0."""

    __slots__ = ("q", "A", "B")

    def __init__(self, q: Rational, A: Rational, B: Rational):
        self._init(Fraction(q), Fraction(A), Fraction(B))
        if not 0 <= self.q < 1:
            raise ValueError(f"q must satisfy 0 <= q < 1, got {self.q}")
        if self.A < 0 or self.B < 0:
            raise ValueError(f"A and B must be nonnegative, got {self.A}, {self.B}")

    @property
    def ab(self) -> Fraction:
        return self.A * self.B

    def tilde_scale(self, L: int) -> Fraction:
        """(AB;q)_2 / (AB;q)_(L+2) in its cancelled form
        1 / prod_(k=2..L+1) (1 - AB q**k), refusing the poles
        AB q**k = 1 with SingularParameter.

        With q = c/d and AB = u/v, 1 - AB q**k = (v d**k - u c**k) / (v d**k),
        so the factor is one quotient of two integer products, reduced once.
        """
        c, d = self.q.numerator, self.q.denominator
        u, v = self.ab.numerator, self.ab.denominator
        num = den = 1
        c_power, d_power = c * c, d * d
        for k in range(2, L + 2):
            factor = v * d_power - u * c_power
            if factor == 0:
                raise SingularParameter(
                    f"A*B*q**{k} == 1 makes the rescaled weight singular at L={L}"
                )
            num *= v * d_power
            den *= factor
            c_power *= c
            d_power *= d
        return Fraction(num, den)


def _weigh_keys(keys, p: ModelParams):
    """Weights B**end A**start w_sigma(AB) of the keys (sigma, start, end)
    of one length, as a stream of integers over one denominator, which is
    returned with it and is known before the first key is weighed.

    With d = den(q), w_sigma(z) = sum c_k z**k / d**s, s the same for
    every composition of one length (see _w_scaled). With AB = u/v,
    A = a/a' and B = b/b' in lowest terms, n the longest numerator list
    and h the largest height, a key weighs
    W_sigma a**start a'**(h - start) b**end b'**(h - end), where
    W_sigma = sum c_k u**k v**(n - 1 - k), over d**s v**(n - 1) (a'b')**h.
    The compositions are read once each, in sorted order; keys is
    iterated three times.
    """
    u, v = p.ab.numerator, p.ab.denominator
    a, a_den = p.A.numerator, p.A.denominator
    b, b_den = p.B.numerator, p.B.denominator
    scaled = {sigma: _w_scaled(sigma, p.q) for sigma in sorted({key[0] for key in keys})}
    n = max(len(nums) for nums, _ in scaled.values())
    h = max(max(start, end) for _, start, end in keys)
    values = {}
    for sigma, (nums, shift) in scaled.items():  # one shift for the length
        acc, v_power = 0, v ** (n - len(nums))  # Horner's rule
        for c in reversed(nums):
            acc = acc * u + c * v_power
            v_power *= v
        values[sigma] = acc
    a_powers = [a ** i * a_den ** (h - i) for i in range(h + 1)]
    b_powers = [b ** j * b_den ** (h - j) for j in range(h + 1)]
    weights = (values[sigma] * (a_powers[start] * b_powers[end]) for sigma, start, end in keys)
    return weights, p.q.denominator ** shift * v ** (n - 1) * (a_den * b_den) ** h


def path_weight(gamma: LatticePath, p: ModelParams) -> Fraction:
    """Two-layer weight read off a path: B**(end-min) A**(-min) w(AB)."""
    key = (composition_of(gamma), -gamma.minimum, gamma.end - gamma.minimum)
    weights, den = _weigh_keys([key], p)
    return Fraction(next(weights), den)


def q_weight(tau: Occupation, xi: Occupation, p: ModelParams) -> Fraction:
    """Two-layer weight of a pair; nonnegative, positive when A, B > 0."""
    return path_weight(path_of(tau, xi), p)


def tilde_q_weight(tau: Occupation, xi: Occupation, p: ModelParams) -> Fraction:
    """Rescaled two-layer weight; its sign may vary with L when A*B*q*q > 1."""
    if tau.length != xi.length:
        raise ValueError("length mismatch between tau and xi")
    return p.tilde_scale(tau.length) * q_weight(tau, xi, p)


def _extend(key: tuple[tuple[int, ...], int, int], step: int):
    """The key of a path extended by one step.

    A key is (composition, start height, end height), with heights counted
    from the path's minimum; a path's weight depends on nothing else.
    """
    sigma, start, end = key
    h = end + step
    if h < 0:
        return (1,) + sigma, start + 1, 0
    if h == len(sigma):
        return sigma + (1,), start, h
    return sigma[:h] + (sigma[h] + 1,) + sigma[h + 1 :], start, h


def _key_levels(L: int):
    """Walk the distinct keys of the paths of each length 0..L.

    Yields, for each length in turn, its keys and three id arrays, down,
    level and up: entry i of each is the position among these keys of the
    key that the previous length's key i reaches by that step. Length 0
    has no previous length, so its id arrays are empty. Each key is
    extended once and only one length's keys are held. The ids are
    array('I') entries, 4 bytes each against a list's 8-byte pointer, so
    they must stay below 2**32, which array enforces with OverflowError;
    L = 16 has 478,652 keys.
    """
    keys, down, level, up = [((1,), 0, 0)], array("I"), array("I"), array("I")
    for _ in range(L):
        yield keys, down, level, up
        index: dict = {}
        down, level, up = (
            array("I", [index.setdefault(_extend(key, step), len(index)) for key in keys])
            for step in (-1, 0, 1)
        )
        keys = list(index)
        del index
    yield keys, down, level, up


def _fold_masses(links: list, weights: Iterable[int]) -> list[int]:
    """Top-layer masses of the paths, in enumerate_occupations order, from
    the weights of the keys at the end of links, the (down, level, up) id
    arrays of lengths 1..L of one walk.

    Folded back one length at a time: a key's masses, over the top layers
    of the sites after it, are those of its down and level children added
    entrywise (the next site empty) followed by those of its up and level
    children (the next site occupied); a key of the last length has its
    weight as its only mass. A length holds about 7 * 2**L masses in all.
    """
    masses = [[w] for w in weights]
    for down, level, up in reversed(links):
        masses = [
            [*map(add, masses[d], masses[h]), *map(add, masses[u], masses[h])]
            for d, h, u in zip(down, level, up)
        ]
    return masses[0]


def _next_ids(ids: list, down: array, level: array, up: array) -> list:
    """Key ids of the paths one step longer, in step-lexicographic order,
    from those of the paths of the previous length. Each link is read out
    of its array once, so the paths share the ints of their key ids."""
    moves = list(zip(down, level, up))
    return [child for i in ids for child in moves[i]]


def partition_Z(L: int, p: ModelParams, max_L: int | None = None) -> Fraction:
    """Normalization: the sum of Q over all 4**L pairs, summed by key.

    A path with H level steps stands for 2**H pairs, so a key's
    multiplicity, carried forward one length at a time, is the sum of
    2**H over the paths that reach it.
    """
    admit("paths", L, max_L)
    mult = [1]
    for keys, down, level, up in _key_levels(L):
        if down:
            grown = [0] * len(keys)
            for m, d, h, u in zip(mult, down, level, up):
                grown[d] += m
                grown[h] += 2 * m
                grown[u] += m
            mult = grown
    weights, den = _weigh_keys(keys, p)  # a stream: no list of them is held
    return Fraction(sum(m * w for m, w in zip(mult, weights)), den)


def clear_weight_caches() -> None:
    """Drop memoized composition polynomials and the q-difference tables
    under them (mainly for tests)."""
    _action_tables.cache_clear()
    _suffix_elements.clear()
