"""Differential property tests over the parameter space.

The acceptance grid fixes its points, while the code branches on
parameter regimes and bit sizes that no fixed point crosses. Here
(q, A, B) is drawn from rationals of several bit sizes, with the regimes
the code branches on mixed in, and for each point the marginal is checked
against the oracle's exact solve and against the reflection symmetry.

Reversing the sites and swapping particles with holes maps the chain at
(q, A, B) onto the chain at (q, B, A), so mu_{q,A,B}(tau) equals
mu_{q,B,A}(R tau), with (R tau)_i = 1 - tau_{L+1-i}. The walk grows every
path from site 1, so the two sides are not computed the same way.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asep2l.ensemble import stationary_mu
from asep2l.lattice import Occupation
from asep2l.oracle import build_generator, rates_from_params, stationary_exact
from asep2l.weights import ModelParams

# scaled rates near 84 bits, so the oracle's lifting runs on Python ints
NINE_DIGIT = (F(123456789, 987654321), F(1000000007, 3), F(5, 999999937))
BITS = st.sampled_from([1, 3, 8, 20, 40])
REGIMES = ["drawn", "q = 0", "A = 0", "B = 0", "AB = 1", "AB q^2 = 1", "9-digit"]


@st.composite
def points(draw):
    """(q, A, B) of drawn bit sizes, moved into one drawn regime."""

    def rational(below_one: bool) -> F:  # two ints of one drawn bit size
        bits = draw(BITS)
        x, y = (draw(st.integers(2 ** (bits - 1), 2**bits - 1)) for _ in "xy")
        return F(x, x + y) if below_one else F(x, y)

    q, A, B = rational(True), rational(False), rational(False)
    regime = draw(st.sampled_from(REGIMES))
    if regime == "q = 0":
        q = F(0)
    elif regime == "A = 0":
        A = F(0)
    elif regime == "B = 0":
        B = F(0)
    elif regime == "AB = 1":
        A = A or F(1)
        B = 1 / A
    elif regime == "AB q^2 = 1":  # a pole of the rescaled weight, not of mu
        q, A = q or F(1, 2), A or F(1)
        B = 1 / (A * q * q)
    elif regime == "9-digit":
        q, A, B = NINE_DIGIT
    return q, A, B


def reflected(tau: Occupation) -> Occupation:
    return Occupation.from_bits([1 - b for b in reversed(tau.bits())])


def check(point, sizes):
    q, A, B = point
    p, swapped = ModelParams(q, A, B), ModelParams(q, B, A)
    for L in sizes:
        mu = stationary_mu(L, p)
        mirror = stationary_mu(L, swapped)
        assert all(mu.prob(tau) == mirror.prob(reflected(tau)) for tau in mu.states)
        if L:
            assert mu == stationary_exact(build_generator(L, rates_from_params(p)))


FIXED = [(F(1, 2), F(4), F(1)), NINE_DIGIT, (F(0), F(0), F(0))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(points())
@example(FIXED[0])
@example(FIXED[1])
@example(FIXED[2])
def test_marginal_matches_the_oracle_and_the_reflection(point):
    check(point, range(7))


@pytest.mark.parametrize("point", FIXED, ids=["pole", "9-digit", "zero"])
def test_fixed_points_above_the_drawn_sizes(point):
    check(point, (7, 8))
