"""Tests for the exact q-calculus layer.

The two difference-operator action formulas are the computational heart
of the package, so they are checked here against the raw difference
quotient (f(z) - f(qz)) / ((1-q) z) at rational sample points, not against
themselves.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asep2l.qcalc import (
    BasisElement,
    QPolynomial,
    dq_scaled,
    geometric_unit,
    jackson_dq,
    jackson_dq_z,
    pochhammer_polynomial,
    poly_eval,
    q_factorial,
    q_number,
    q_pochhammer,
)

QS = [F(0), F(1, 3), F(1, 2), F(2, 3)]
SAMPLE_POINTS = [F(1, 5), F(2, 5), F(3, 5), F(7, 5), F(-1, 3), F(-4, 7), F(9, 11)]


def value(depth: int, coeffs, q: F, z: F) -> F:
    """sum_j c_j z**j / (z;q)_depth at a point z off its poles."""
    return poly_eval(QPolynomial(coeffs), z) / q_pochhammer(z, q, depth)


def difference_quotient(depth: int, coeffs, q: F, z: F) -> F:
    """(f(z) - f(qz)) / ((1 - q) z) for f = sum_j c_j z**j / (z;q)_depth."""
    return (value(depth, coeffs, q, z) - value(depth, coeffs, q, q * z)) / ((1 - q) * z)


def raised_numerator(e: BasisElement, q: F) -> QPolynomial:
    """e's numerator at depth e.depth + 1: times the factor (1 - q**depth z)
    that the larger denominator adds."""
    return QPolynomial(e.coeffs) * QPolynomial([1, -q ** e.depth])


def safe_points(q: F, depth: int):
    """Sample points avoiding z = 0 and the poles q**-k of either side."""
    out = []
    for z in SAMPLE_POINTS:
        power = F(1)
        hit = False
        for _ in range(depth + 2):
            if z * power == 1:
                hit = True
                break
            power *= q
        if not hit:
            out.append(z)
    return out


class TestScalars:
    def test_q_number_values(self):
        assert q_number(0, F(1, 2)) == 0
        assert q_number(3, F(1, 2)) == F(7, 4)
        assert q_number(4, F(0)) == 1

    def test_q_number_rejects_negative(self):
        with pytest.raises(ValueError):
            q_number(-1, F(1, 2))

    def test_q_factorial_values(self):
        assert q_factorial(0, F(1, 2)) == 1
        assert q_factorial(3, F(0)) == 1
        assert q_factorial(3, F(1, 2)) == F(21, 8)

    def test_q_pochhammer_values(self):
        assert q_pochhammer(F(3), F(1, 2), 0) == 1
        assert q_pochhammer(F(1), F(1, 2), 3) == 0
        assert q_pochhammer(F(1, 2), F(1, 2), 2) == F(3, 8)

    @pytest.mark.parametrize("q", QS)
    def test_pochhammer_recurrence(self, q):
        a = F(3, 7)
        for n in range(11):
            assert q_pochhammer(a, q, n + 1) == q_pochhammer(a, q, n) * (
                1 - a * q ** n
            )


class TestPolynomials:
    def test_trims_trailing_zeros(self):
        assert QPolynomial([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert QPolynomial([0, 0]).coeffs == ()
        assert QPolynomial([]).degree == -1

    def test_structural_equality(self):
        assert QPolynomial([1, 2]) == QPolynomial([F(1), F(2), F(0)])

    def test_eval(self):
        assert poly_eval(QPolynomial([]), F(5)) == 0
        assert poly_eval(QPolynomial([1, -1]), F(1)) == 0
        assert poly_eval(QPolynomial([1, F(1, 2)]), F(2)) == 2

    def test_arithmetic(self):
        p = QPolynomial([1, 1])
        assert (p * p).coeffs == (F(1), F(2), F(1))
        assert (p - p).is_zero()
        assert p.shift(2).coeffs == (F(0), F(0), F(1), F(1))

    def test_pochhammer_polynomial(self):
        assert pochhammer_polynomial(F(1, 2), 0) == QPolynomial([1])
        assert pochhammer_polynomial(F(1, 2), 1) == QPolynomial([1, -1])
        assert pochhammer_polynomial(F(1, 2), 2) == QPolynomial([1, F(-3, 2), F(1, 2)])

    @pytest.mark.parametrize("q", QS)
    def test_pochhammer_polynomial_matches_scalar(self, q):
        for n in range(6):
            poly = pochhammer_polynomial(q, n)
            for z in SAMPLE_POINTS:
                assert poly_eval(poly, z) == q_pochhammer(z, q, n)


def random_elements(q):
    """Small deterministic zoo of basis elements for operator tests."""
    els = [geometric_unit()]
    for depth in range(1, 7):
        els.append(BasisElement(depth, [F(1)]))
        coeffs = [F((i * 7 + 3) % 5 - 2, i + 1) for i in range(depth)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = F(1)
        els.append(BasisElement(depth, coeffs))
    return els


class TestJacksonOperators:
    @pytest.mark.parametrize("q", QS)
    def test_dq_matches_difference_quotient(self, q):
        for e in random_elements(q):
            if not e.coeffs:
                continue
            d = jackson_dq(e, q)
            pts = safe_points(q, d.depth)
            assert len(pts) >= 5
            for z in pts:
                assert value(d.depth, d.coeffs, q, z) == difference_quotient(
                    e.depth, e.coeffs, q, z
                )

    @pytest.mark.parametrize("q", QS)
    def test_dq_z_matches_difference_quotient(self, q):
        for e in random_elements(q):
            if not e.coeffs:
                continue
            d = jackson_dq_z(e, q)
            shifted = BasisElement(e.depth, (F(0),) + e.coeffs)
            pts = safe_points(q, d.depth)
            assert len(pts) >= 5
            for z in pts:
                assert value(d.depth, d.coeffs, q, z) == difference_quotient(
                    shifted.depth, shifted.coeffs, q, z
                )

    @pytest.mark.parametrize("q", QS)
    def test_dq_scaled_matches_difference_quotient(self, q):
        # integer numerators at depth n + 1, times den(q)**(n - 1) for n >= 1
        for n in range(7):
            scale = q.denominator ** max(n - 1, 0)
            for nums in ([1], [(-1) ** i * (i + 2) for i in range(n + 1)]):
                out = dq_scaled(nums, n, q)
                pts = safe_points(q, n + 1)
                assert len(pts) >= 5
                for z in pts:
                    assert value(n + 1, out, q, z) / scale == difference_quotient(
                        n, nums, q, z
                    )

    def test_depth_increases_by_one(self):
        q = F(1, 2)
        e = geometric_unit()
        for op in (jackson_dq, jackson_dq_z, jackson_dq, jackson_dq_z):
            out = op(e, q)
            assert out.depth == e.depth + 1
            e = out

    @pytest.mark.parametrize("q", QS)
    def test_derivative_of_geometric_family(self, q):
        # D_q 1/(z;q)_n = [n]_q / (z;q)_(n+1)
        for n in (1, 3, 5):
            e = BasisElement(n, [F(1)])
            assert jackson_dq(e, q) == BasisElement(n + 1, [q_number(n, q)])

    def test_dq_z_on_geometric_unit(self):
        q = F(1, 2)
        out = jackson_dq_z(geometric_unit(), q)
        assert out == BasisElement(2, [F(1)])

    def test_action_on_z_over_depth_two(self):
        q = F(1, 2)
        e = BasisElement(2, [F(0), F(1)])  # z/(z;q)_2
        assert jackson_dq(e, q) == BasisElement(3, [F(1), F(1, 2)])

    @pytest.mark.parametrize("q", QS)
    def test_q_commutation(self, q):
        # (D_q . z) e - q * z * (D_q e) = e at a common depth
        for e in random_elements(q):
            lhs = QPolynomial(jackson_dq_z(e, q).coeffs) + QPolynomial(
                jackson_dq(e, q).shift().coeffs
            ).scale(-q)
            rhs = raised_numerator(e, q)
            assert lhs == rhs

    def test_dq_z_identity_at_q_zero(self):
        # D_0 [z f(z)] = f(z): same coefficients one depth up
        for e in random_elements(F(0)):
            out = jackson_dq_z(e, F(0))
            assert out.coeffs == e.coeffs
            assert out.depth == e.depth + 1

    @pytest.mark.parametrize("q", QS)
    def test_monomial_derivative(self, q):
        # D_q z^n = [n]_q z^(n-1), straight from the difference quotient
        for n in range(9):
            for z in SAMPLE_POINTS:
                quotient = (z ** n - (q * z) ** n) / ((1 - q) * z)
                expected = q_number(n, q) * z ** (n - 1) if n else F(0)
                assert quotient == expected

    @pytest.mark.parametrize("q", QS)
    def test_q_product_rule_on_monomials(self, q):
        # D_q (f g) = g(z) D_q f + f(qz) D_q g for f = z^m, g = z^k
        def dq_poly(p: QPolynomial) -> QPolynomial:
            return QPolynomial(
                [q_number(n + 1, q) * c for n, c in enumerate(p.coeffs[1:], 0)]
            )

        def at_qz(p: QPolynomial) -> QPolynomial:
            return QPolynomial([c * q ** n for n, c in enumerate(p.coeffs)])

        for m in range(6):
            for k in range(6):
                f = QPolynomial([F(0)] * m + [F(1)])
                g = QPolynomial([F(0)] * k + [F(1)])
                lhs = dq_poly(f * g)
                rhs = g * dq_poly(f) + at_qz(f) * dq_poly(g)
                assert lhs == rhs

    def test_guards_against_out_of_family_degree(self):
        q = F(1, 2)
        with pytest.raises(ValueError):
            jackson_dq(BasisElement(1, [F(0), F(0), F(1)]), q)
        with pytest.raises(ValueError):
            jackson_dq_z(BasisElement(1, [F(0), F(1)]), q)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=0, max_value=20),
    num=st.integers(min_value=0, max_value=8),
    den=st.integers(min_value=9, max_value=12),
)
def test_q_number_recurrence_property(n, num, den):
    q = F(num, den)
    assert q_number(n + 1, q) == 1 + q * q_number(n, q)
    assert q_number(n + 1, q) == q_number(n, q) + q ** n


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    coeffs=st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=1,
        max_size=4,
    ),
    depth_extra=st.integers(min_value=0, max_value=3),
    qi=st.integers(min_value=0, max_value=3),
)
def test_commutation_property(coeffs, depth_extra, qi):
    q = QS[qi]
    depth = len(coeffs) + depth_extra
    e = BasisElement(depth, coeffs)
    lhs = QPolynomial(jackson_dq_z(e, q).coeffs) + QPolynomial(
        jackson_dq(e, q).shift().coeffs
    ).scale(-q)
    assert lhs == raised_numerator(e, q)
