"""Tests for composition polynomials and the two-layer weight."""

import sys
from fractions import Fraction as F
from functools import cache
from itertools import product
from math import lcm

import pytest
from test_acceptance import AB_GRID, Q_GRID

from asep2l.ensemble import _path_weights
from asep2l.errors import SingularParameter
from asep2l.lattice import (
    Occupation,
    composition_of,
    enumerate_occupations,
    enumerate_paths,
    path_of,
)
from asep2l.qcalc import QPolynomial, _action_tables, poly_eval, q_factorial, q_number
from asep2l.weights import (
    ModelParams,
    _key_levels,
    _w_scaled,
    _weigh_keys,
    clear_weight_caches,
    partition_Z,
    q_weight,
    tilde_q_weight,
    w_sigma_operator,
    w_sigma_series,
)

QS = [F(0), F(1, 3), F(1, 2)]


def compositions_of(total: int):
    """All compositions of a positive integer, as tuples."""
    for cuts in product((0, 1), repeat=total - 1):
        parts = []
        run = 1
        for c in cuts:
            if c:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


PARAM_POINTS = [
    ModelParams(F(1, 2), F(2), F(1)),
    ModelParams(F(1, 3), F(1, 2), F(1, 3)),
    ModelParams(F(0), F(1), F(2)),
    ModelParams(F(2, 3), F(3), F(1, 5)),
    ModelParams(F(1, 2), F(0), F(2)),
    ModelParams(F(9, 10), F(1), F(1)),
]


class TestCompositionPolynomial:
    def test_all_ones_is_q_factorial(self):
        for L in range(6):
            for q in (F(1, 3), F(1, 2)):
                poly = w_sigma_operator((1,) * (L + 1), q)
                assert poly == QPolynomial([q_factorial(L + 1, q)])

    def test_identically_one_at_q_zero(self):
        for L in range(5):
            for sigma in compositions_of(L + 1):
                assert w_sigma_operator(sigma, F(0)) == QPolynomial([1])

    @pytest.mark.parametrize("q", QS)
    def test_operator_equals_series(self, q):
        # q and 2/3 interleave in one memo, which must keep them apart
        clear_weight_caches()
        assert _action_tables.cache_info().currsize == 0
        for L in range(7):
            for sigma in compositions_of(L + 1):
                for r in (q, F(2, 3)):
                    assert w_sigma_operator(sigma, r) == w_sigma_series(sigma, r)

    @pytest.mark.parametrize("q", QS)
    def test_nonnegative_coefficients_and_degree(self, q):
        for L in range(7):
            for sigma in compositions_of(L + 1):
                poly = w_sigma_operator(sigma, q)
                r = len(sigma) - 1
                assert all(c >= 0 for c in poly.coeffs)
                assert poly.degree <= L - r
                if q > 0:
                    assert poly.degree == L - r

    def test_value_at_zero(self):
        for q in (F(1, 3), F(1, 2)):
            for L in range(6):
                for sigma in compositions_of(L + 1):
                    expected = F(1)
                    for j, s in enumerate(sigma):
                        expected *= q_number(j + 1, q) ** s
                    assert poly_eval(w_sigma_series(sigma, q), F(0)) == expected

    def test_value_at_one(self):
        for q in (F(1, 3), F(1, 2)):
            for L in range(6):
                target = q_factorial(L + 1, q)
                for sigma in compositions_of(L + 1):
                    assert poly_eval(w_sigma_operator(sigma, q), F(1)) == target

    def test_shift_is_fixed_by_the_length(self):
        # each of the L + 1 D_q steps, at depths 1..L + 1, adds depth - 1
        for q in (F(0), F(1, 3), F(9, 10)):
            for L in range(9):
                for sigma in compositions_of(L + 1):
                    assert _w_scaled(sigma, q)[1] == L * (L + 1) // 2

    def test_single_part_has_degree_L(self):
        for L in range(6):
            assert w_sigma_operator((L + 1,), F(1, 2)).degree == L

    def test_monotone_bounds_between_extremes(self):
        # on [0,1): single-part composition below, all-ones above
        grid = [F(0), F(1, 5), F(1, 2), F(4, 5), F(9, 10)]
        for q in (F(1, 3), F(1, 2)):
            for L in range(6):
                lo = w_sigma_operator((L + 1,), q)
                hi = w_sigma_operator((1,) * (L + 1), q)
                for sigma in compositions_of(L + 1):
                    mid = w_sigma_operator(sigma, q)
                    for z in grid:
                        assert poly_eval(lo, z) <= poly_eval(mid, z) <= poly_eval(hi, z)

    def test_rejects_bad_compositions(self):
        for bad in ((), (0, 1), (-1,), (2, 0)):
            with pytest.raises(ValueError):
                w_sigma_operator(bad, F(1, 2))
            with pytest.raises(ValueError):
                w_sigma_series(bad, F(1, 2))

    def test_example_7_3_1(self):
        q = F(1, 2)
        assert w_sigma_operator((7, 3, 1), q) == w_sigma_series((7, 3, 1), q)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(F(1), F(1), F(1))
        with pytest.raises(ValueError):
            ModelParams(F(-1, 2), F(1), F(1))
        with pytest.raises(ValueError):
            ModelParams(F(1, 2), F(-1), F(1))

    def test_tilde_scale_values_and_poles(self):
        p = ModelParams(F(1, 2), F(4), F(1))  # AB = 4 = q**-2
        # (ab;q)_2 / (ab;q)_2 = 1 at L = 0: pole factor k=2 not yet included
        assert p.tilde_scale(0) == 1
        for _ in range(2):  # every call refuses
            with pytest.raises(SingularParameter):
                p.tilde_scale(1)
        ok = ModelParams(F(1, 2), F(1), F(3))
        assert ok.tilde_scale(1) == 1 / (1 - 3 * F(1, 4))
        # same A*B, another q: another scale
        assert ModelParams(F(1, 4), F(3), F(1)).tilde_scale(1) == 1 / (1 - 3 * F(1, 16))
        # AB = 1 is no pole: (1 - AB)(1 - ABq) cancels out of the ratio
        ab1 = ModelParams(F(1, 3), F(1), F(1))
        assert ab1.tilde_scale(0) == 1
        assert ab1.tilde_scale(2) == 1 / ((1 - F(1, 9)) * (1 - F(1, 27)))


class TestTwoLayerWeight:
    @pytest.mark.parametrize("p", PARAM_POINTS)
    def test_size_one_table(self, p):
        o0 = Occupation.from_string("0")
        o1 = Occupation.from_string("1")
        ab = p.ab
        assert q_weight(o0, o0, p) == 1 + p.q * ab
        assert q_weight(o0, o1, p) == p.A * (1 + p.q)
        assert q_weight(o1, o0, p) == p.B * (1 + p.q)
        assert q_weight(o1, o1, p) == 1 + p.q * ab

    @pytest.mark.parametrize("p", PARAM_POINTS)
    def test_size_one_rescaled_table(self, p):
        if p.ab * p.q ** 2 == 1:
            pytest.skip("pole")
        o = [Occupation.from_string("0"), Occupation.from_string("1")]
        denom = 1 - p.ab * p.q ** 2
        for xi in (0, 1):
            assert tilde_q_weight(o[0], o[xi], p) == (
                p.A ** xi + p.q * p.A * p.B ** (1 - xi)
            ) / denom
            assert tilde_q_weight(o[1], o[xi], p) == (
                p.B ** (1 - xi) + p.q * p.A ** xi * p.B
            ) / denom

    def test_weight_depends_only_on_path(self):
        p = ModelParams(F(1, 2), F(2), F(3))
        groups = {}
        for tau in enumerate_occupations(4):
            for xi in enumerate_occupations(4):
                key = path_of(tau, xi).values
                groups.setdefault(key, set()).add(q_weight(tau, xi, p))
        assert all(len(vals) == 1 for vals in groups.values())

    def test_nonnegativity_and_positivity(self):
        for p in PARAM_POINTS:
            for tau in enumerate_occupations(3):
                for xi in enumerate_occupations(3):
                    w = q_weight(tau, xi, p)
                    assert w >= 0
                    if p.A > 0 and p.B > 0:
                        assert w > 0

    def test_zero_boundary_strengths(self):
        # A = B = 0 keeps exactly the Motzkin pairs positive
        p = ModelParams(F(1, 2), F(0), F(0))
        from asep2l.lattice import is_motzkin

        for tau in enumerate_occupations(3):
            for xi in enumerate_occupations(3):
                g = path_of(tau, xi)
                w = q_weight(tau, xi, p)
                if is_motzkin(g):
                    expected = F(1)
                    comp = [0] * (g.maximum + 1)
                    for v in g.values:
                        comp[v] += 1
                    for j, s in enumerate(comp):
                        expected *= q_number(j + 1, p.q) ** s
                    assert w == expected
                else:
                    assert w == 0

    def test_q_zero_weight_is_geometric(self):
        p = ModelParams(F(0), F(2), F(3))
        for tau in enumerate_occupations(3):
            for xi in enumerate_occupations(3):
                g = path_of(tau, xi)
                assert q_weight(tau, xi, p) == p.B ** (
                    g.end - g.minimum
                ) * p.A ** (-g.minimum)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            q_weight(
                Occupation.from_string("01"),
                Occupation.from_string("0"),
                PARAM_POINTS[0],
            )
        with pytest.raises(ValueError):
            tilde_q_weight(
                Occupation.from_string("01"),
                Occupation.from_string("0"),
                PARAM_POINTS[0],
            )


class TestPartitionFunction:
    @pytest.mark.parametrize("p", PARAM_POINTS)
    def test_size_one_closed_form(self, p):
        assert partition_Z(1, p) == 2 * (1 + p.q * p.ab) + (p.A + p.B) * (1 + p.q)

    def test_size_zero(self):
        assert partition_Z(0, PARAM_POINTS[0]) == 1

    @pytest.mark.parametrize("p", PARAM_POINTS)
    def test_matches_pair_sum(self, p):
        for L in range(6):
            direct = sum(
                q_weight(tau, xi, p)
                for tau in enumerate_occupations(L)
                for xi in enumerate_occupations(L)
            )
            assert partition_Z(L, p) == direct

    def test_motzkin_count_at_origin(self):
        # q = 0, A = B = 0: Z counts the Motzkin pairs
        from asep2l.lattice import is_motzkin

        p = ModelParams(F(0), F(0), F(0))
        for L in range(5):
            count = sum(
                1
                for tau in enumerate_occupations(L)
                for xi in enumerate_occupations(L)
                if is_motzkin(path_of(tau, xi))
            )
            assert partition_Z(L, p) == count

    def test_positive(self):
        for p in PARAM_POINTS:
            for L in range(4):
                assert partition_Z(L, p) > 0


ACCEPTANCE_GRID = [ModelParams(q, A, B) for q in Q_GRID for A, B in AB_GRID]
# A or B with numerator and denominator both above 1, which no grid point has
SHARED_DENOMINATORS = [
    ModelParams(F(123456789, 987654321), F(1000000007, 3), F(5, 999999937)),
    ModelParams(F(9, 10), F(1, 7), F(5, 3)),
]


def fraction_tilde_scale(p: ModelParams, L: int) -> F:
    """The slow reference: 1 / prod_(k=2..L+1) (1 - AB q**k) over Fractions,
    refusing the first pole k."""
    denom = F(1)
    for k in range(2, L + 2):
        factor = 1 - p.ab * p.q ** k
        if factor == 0:
            raise SingularParameter(
                f"A*B*q**{k} == 1 makes the rescaled weight singular at L={L}"
            )
        denom *= factor
    return 1 / denom


class TestTildeScale:
    @pytest.mark.parametrize("p", ACCEPTANCE_GRID + SHARED_DENOMINATORS)
    def test_equals_fraction_product(self, p):
        for L in range(31):
            try:
                expected = fraction_tilde_scale(p, L)
            except SingularParameter as refusal:
                with pytest.raises(SingularParameter) as raised:
                    p.tilde_scale(L)
                assert str(raised.value) == str(refusal)
            else:
                assert p.tilde_scale(L) == expected

    @pytest.mark.parametrize(
        "p, first_pole",
        [(ModelParams(F(1, 2), F(4), F(1)), 2), (ModelParams(F(1, 3), F(27), F(1)), 3)],
    )
    def test_refuses_the_first_pole(self, p, first_pole):
        assert p.tilde_scale(first_pole - 2) == fraction_tilde_scale(p, first_pole - 2)
        for L in range(first_pole - 1, first_pole + 4):
            with pytest.raises(SingularParameter) as raised:
                p.tilde_scale(L)
            assert str(raised.value) == (
                f"A*B*q**{first_pole} == 1 makes the rescaled weight singular at L={L}"
            )


@cache
def _w_at(sigma, q, z):
    return poly_eval(w_sigma_operator(sigma, q), z)


def fraction_weight(gamma, p):
    """The slow reference: B**(end - min) A**(-min) w_sigma(AB) as a
    product of Fractions, w_sigma from the operator route by Horner."""
    w = _w_at(composition_of(gamma), p.q, p.A * p.B)
    return p.B ** (gamma.end - gamma.minimum) * p.A ** (-gamma.minimum) * w


class TestIntegerKeyWeights:
    @pytest.mark.parametrize("p", ACCEPTANCE_GRID + SHARED_DENOMINATORS)
    def test_path_table_equals_fraction_products(self, p):
        for L in range(8):
            weights, den = _path_weights(L, p)
            slow = [fraction_weight(g, p) for g in enumerate_paths(L)]
            assert [F(w, den) for w in weights] == slow
            # the closed form d**s v**(n - 1) (a'b')**h of _weigh_keys: the
            # keys of length L have s = L(L+1)/2 and largest height h = L,
            # and the flat path's w_(L+1) has degree L, or 0 at q = 0
            n = L + 1 if p.q else 1
            d, v = p.q.denominator, p.ab.denominator
            assert den == d ** (L * (L + 1) // 2) * v ** (n - 1) * (
                p.A.denominator * p.B.denominator
            ) ** L
            # not always the least common denominator, but a multiple of it
            assert den % lcm(*(w.denominator for w in slow)) == 0

    @pytest.mark.parametrize("p", ACCEPTANCE_GRID + SHARED_DENOMINATORS)
    def test_partition_equals_fraction_sum(self, p):
        for L in range(7):
            slow = sum(
                (fraction_weight(g, p) * 2 ** g.horizontal for g in enumerate_paths(L)),
                F(0),
            )
            assert partition_Z(L, p) == slow

    def test_walk_links_take_under_five_bytes_an_id(self):
        # array('I') holds 4 bytes an id; a list holds an 8-byte pointer
        size = ids = 0
        for _, *links in _key_levels(12):
            size += sum(map(sys.getsizeof, links))
            ids += sum(map(len, links))
        assert size < 5 * ids

    def test_weighing_hashes_no_fraction(self, monkeypatch):
        for keys, *_ in _key_levels(8):
            pass
        p = ModelParams(F(1, 2), F(1), F(2))
        real = F.__hash__
        calls = []

        def counted(self):
            calls.append(self)
            return real(self)

        clear_weight_caches()
        monkeypatch.setattr(F, "__hash__", counted)
        list(_weigh_keys(keys, p)[0])
        assert calls == []
