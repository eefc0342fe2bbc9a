"""Tests for the two-layer ensemble, marginals, and comparison measure."""

import sys
import tracemalloc
from fractions import Fraction as F
from math import gcd

import pytest
from test_acceptance import AB_GRID, Q_GRID

from asep2l.errors import (
    EnumerationCapExceeded,
    NotInConfigurationSpace,
    SingularParameter,
)
from asep2l.ensemble import (
    Distribution,
    _path_weights,
    _walk,
    duchi_distribution,
    duchi_weight,
    path_law,
    path_law_top_marginal,
    phi_table,
    stationary_mu,
    top_marginal,
    two_layer_law,
)
from asep2l.lattice import (
    MAX_L,
    LatticePath,
    Occupation,
    enumerate_occupations,
    enumerate_paths,
    is_motzkin,
    path_of,
)
from asep2l.oracle import build_generator, rates_from_params, stationary_exact
from asep2l.weights import (
    ModelParams,
    _fold_masses,
    partition_Z,
    path_weight,
    q_weight,
    tilde_q_weight,
)

GRID = [
    ModelParams(F(0), F(1), F(2)),
    ModelParams(F(1, 3), F(1, 2), F(1, 3)),
    ModelParams(F(1, 2), F(2), F(3)),
    ModelParams(F(1, 2), F(0), F(2)),
    ModelParams(F(1, 3), F(3), F(0)),
    ModelParams(F(1, 2), F(0), F(0)),
    ModelParams(F(1, 2), F(1), F(1)),
]


class TestDistribution:
    def test_validates_sum(self):
        # masses need not sum to 1: they are normalized by their total
        d = Distribution(["a", "b"], [F(1, 2), F(1, 3)])
        assert d.total == F(5, 6)
        assert d.probs == (F(3, 5), F(2, 5))
        for masses in ([0, F(0)], [0, 0]):
            with pytest.raises(ValueError):
                Distribution(["a", "b"], masses)
        with pytest.raises(ValueError):
            Distribution([], [])

    def test_validates_negatives_and_duplicates(self):
        for states, masses in (
            (["a", "b"], [F(3, 2), F(-1, 2)]),
            (["a", "b"], [2, -1]),
            (["a", "a"], [F(1, 2), F(1, 2)]),
            (["a", "a"], [1, 1]),
            (["a", "b"], [1]),  # and a length mismatch
            (["a", "b"], [0.5, 0.5]),  # and float masses
        ):
            with pytest.raises(ValueError):
                Distribution(states, masses)

    def test_lookup_and_support(self):
        d = Distribution(["a", "b", "c"], [F(1, 2), F(0), F(1, 2)])
        assert d.prob("a") == F(1, 2)
        assert d.support() == ("a", "c")
        assert "b" in d and "z" not in d

    def test_views_divide_the_masses_by_their_total(self):
        d = Distribution("abc", [3, 0, 9])
        assert (d.masses, d.total) == ((3, 0, 9), 12)
        assert d.probs == (F(1, 4), F(0), F(3, 4))
        assert d.prob("c") == F(3, 4)
        assert list(d.items()) == list(zip("abc", d.probs))
        assert d.as_dict() == {"a": F(1, 4), "b": F(0), "c": F(3, 4)}
        assert d.support() == ("a", "c")  # masses of 0 are outside it

    def test_proportional_masses_are_one_law(self):
        a = Distribution("ab", [2, 4])
        b = Distribution("ab", [1, 2])
        c = Distribution("ab", [F(1, 6), F(1, 3)])
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert a.probs == b.probs == c.probs == (F(1, 3), F(2, 3))

    def test_one_mass_more_is_another_law(self):
        a = Distribution("abc", [2, 4, 6])
        for i in range(3):
            bumped = [2, 4, 6]
            bumped[i] += 1
            assert a != Distribution("abc", bumped)
        assert a != Distribution("abd", [2, 4, 6])
        assert a != Distribution("ab", [2, 4])
        assert a != "abc"

    @pytest.mark.parametrize("p", GRID[:4])
    def test_exact_laws_keep_integer_masses(self, p):
        for L in range(1, 6):
            pi = stationary_exact(build_generator(L, rates_from_params(p)))
            mu = stationary_mu(L, p)
            for law in (pi, mu):
                assert all(type(m) is int for m in (*law.masses, law.total))
            assert all(gcd(pr.numerator, pr.denominator) == 1 for pr in pi.probs)
            assert pi == mu and pi.probs == mu.probs


class TestTwoLayerLaw:
    def test_uniform_at_origin(self):
        law = two_layer_law(1, ModelParams(F(0), F(1), F(1)))
        assert set(law.probs) == {F(1, 4)}

    @pytest.mark.parametrize("p", GRID)
    def test_proportional_to_weight(self, p):
        law = two_layer_law(2, p)
        z = sum(q_weight(t, x, p) for t, x in law.states)
        for (tau, xi), pr in law.items():
            assert pr == q_weight(tau, xi, p) / z

    def test_support_at_zero_boundary_strengths(self):
        law = two_layer_law(3, ModelParams(F(1, 2), F(0), F(0)))
        for (tau, xi), pr in law.items():
            assert (pr > 0) == is_motzkin(path_of(tau, xi))


class TestStationaryMu:
    def test_size_one_reference_value(self):
        mu = stationary_mu(1, ModelParams(F(1, 2), F(2), F(1)))
        assert mu.prob(Occupation.from_string("1")) == F(7, 17)

    def test_size_one_symmetric(self):
        for q in (F(0), F(1, 2), F(9, 10)):
            mu = stationary_mu(1, ModelParams(q, F(3), F(3)))
            assert mu.prob(Occupation.from_string("1")) == F(1, 2)

    def test_size_zero(self):
        mu = stationary_mu(0, GRID[0])
        assert mu.states == (Occupation(0, 0),) and mu.probs == (F(1),)

    @pytest.mark.parametrize("p", GRID)
    def test_equals_pair_marginal(self, p):
        for L in range(5):
            assert top_marginal(two_layer_law(L, p)) == stationary_mu(L, p)

    @pytest.mark.parametrize("p", GRID)
    def test_equals_path_pushforward(self, p):
        for L in range(8):
            assert path_law_top_marginal(path_law(L, p)) == stationary_mu(L, p)

    def test_holds_less_than_a_table_of_its_paths(self):
        p = ModelParams(F(1, 2), F(1), F(2))
        stationary_mu(12, p)  # memoizes the composition polynomials
        tracemalloc.start()
        try:
            stationary_mu(12, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a list of 3**12 one-digit ints: a pointer and an int per entry
        assert peak < 3 ** 12 * (8 + sys.getsizeof(1 << 29))

    def test_fold_drops_the_key_weights_after_its_first_level(self):
        # at 80-digit parameters the key weights are large integers; the
        # same walk and fold with the weight list held peaks higher
        p = ModelParams(F(10**60 + 7, 10**61 + 9), F(10**80 + 3, 7**90), F(3, 7))
        L = 8

        def held():
            links, weights, _ = _walk(L, p)
            weights = list(weights)
            _fold_masses(links, weights)

        stationary_mu(L, p)  # memoizes the composition polynomials
        peaks = []
        for run in (lambda: stationary_mu(L, p), held):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.85 * peaks[1]

    def test_strictly_positive(self):
        # strict positivity is promised for A, B > 0 and holds at the edges
        # as well because the flat path supports every top layer
        for p in GRID:
            assert all(pr > 0 for pr in stationary_mu(4, p).probs)

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            stationary_mu(MAX_L["marginal"] + 1, GRID[0])
        with pytest.raises(EnumerationCapExceeded):
            stationary_mu(3, GRID[0], max_L=2)


class TestPhiTable:
    def test_empty_system_is_one(self):
        t = phi_table(0, GRID[1])
        assert t.value(Occupation(0, 0)) == 1

    def test_size_one_closed_form(self):
        p = ModelParams(F(1, 2), F(1), F(3))
        t = phi_table(1, p)
        denom = 1 - p.ab * p.q ** 2
        assert t.value(Occupation.from_string("0")) == (
            1 + p.q * p.ab + p.A * (1 + p.q)
        ) / denom
        assert t.value(Occupation.from_string("1")) == (
            p.B * (1 + p.q) + 1 + p.q * p.ab
        ) / denom

    def test_normalization_reproduces_mu(self):
        for p in GRID:
            for L in range(5):
                try:
                    t = phi_table(L, p)
                except SingularParameter:
                    continue
                assert t.normalized() == stationary_mu(L, p)

    @pytest.mark.parametrize(
        "p", [ModelParams(q, A, B) for q in Q_GRID for A, B in AB_GRID]
    )
    def test_normalized_is_the_marginal_itself(self, p):
        # the law of the same folded masses, not one rebuilt by a division
        for L in range(9):
            try:
                law = phi_table(L, p).normalized()
            except SingularParameter:
                continue
            mu = stationary_mu(L, p)
            assert all(type(m) is int for m in law.masses)
            assert (law.states, law.masses, law.total) == (mu.states, mu.masses, mu.total)

    def test_values_are_the_rescaled_bottom_sums(self):
        # Phi_L(tau) = sum over xi of tilde_q_weight, sign included at AB q**2 > 1
        for p in (ModelParams(F(1, 2), F(3), F(2)), ModelParams(F(1, 3), F(1), F(2))):
            for L in range(4):
                table = phi_table(L, p)
                expected = {
                    tau: sum(
                        (tilde_q_weight(tau, xi, p) for xi in enumerate_occupations(L)), F(0)
                    )
                    for tau in enumerate_occupations(L)
                }
                assert table.values == expected
                assert all(table.value(tau) == v for tau, v in expected.items())

    @pytest.mark.parametrize(
        "p",
        [
            ModelParams(F(1, 2), F(1), F(2)),  # AB = 1/q
            ModelParams(F(1, 3), F(1), F(1)),  # AB = 1
            ModelParams(F(0), F(1), F(1)),  # AB = 1
            ModelParams(F(1, 2), F(2), F(1, 2)),  # AB = 1
        ],
    )
    def test_cancelled_factors_are_no_poles(self, p):
        for L in range(7):
            assert phi_table(L, p).normalized() == stationary_mu(L, p)

    def test_singular_parameters_refused(self):
        with pytest.raises(SingularParameter):
            phi_table(2, ModelParams(F(1, 2), F(4), F(1)))
        # AB = 1 is no pole: Phi_1 = (1 - q**2)**-1 * (4/3 + 4/3) = 3 at q = 1/3
        table = phi_table(1, ModelParams(F(1, 3), F(1), F(1)))
        assert table.values == {
            Occupation.from_string("0"): 3,
            Occupation.from_string("1"): 3,
        }


class TestPathLaw:
    @pytest.mark.parametrize(
        "p",
        [
            ModelParams(F(1, 2), F(1), F(2)),
            ModelParams(F(1, 3), F(0), F(2)),
            ModelParams(F(1, 2), F(2), F(0)),
            ModelParams(F(9, 10), F(1, 7), F(5, 3)),
        ],
    )
    def test_masses_are_level_multiplicity_times_weight(self, p):
        for L in range(6):
            law = path_law(L, p)
            masses = [(1 << g.horizontal) * path_weight(g, p) for g in enumerate_paths(L)]
            total = sum(masses)
            assert law.states == tuple(enumerate_paths(L))
            assert law.probs == tuple(m / total for m in masses)

    def test_size_one_at_origin(self):
        law = path_law(1, ModelParams(F(0), F(1), F(1)))
        flat = LatticePath([0, 0])
        up = LatticePath([0, 1])
        down = LatticePath([0, -1])
        assert law.prob(flat) == F(1, 2)
        assert law.prob(up) == F(1, 4)
        assert law.prob(down) == F(1, 4)

    def test_support_constraints(self):
        no_left = path_law(4, ModelParams(F(1, 2), F(0), F(2)))
        for g, pr in no_left.items():
            assert (pr > 0) == (g.minimum >= 0)
        no_right = path_law(4, ModelParams(F(1, 2), F(2), F(0)))
        for g, pr in no_right.items():
            assert (pr > 0) == (g.end == g.minimum)
        neither = path_law(4, ModelParams(F(1, 2), F(0), F(0)))
        for g, pr in neither.items():
            assert (pr > 0) == is_motzkin(g)


class TestComparisonMeasure:
    def test_reference_configuration(self):
        # zero-level steps at sites 1, 2, 9, 10; only site 1 has the bottom
        # layer occupied, so one W label and no B labels survive
        tau = Occupation.from_string("1011001000")
        xi = Occupation.from_string("1000110100")
        for A, B in ((F(1), F(1)), (F(2), F(3)), (F(1, 2), F(1, 5))):
            assert duchi_weight(tau, xi, A, B) == 1 + B

    def test_all_level_zero_with_empty_bottom(self):
        for L in range(1, 5):
            occ = Occupation(L, 0)
            assert duchi_weight(occ, occ, F(2), F(3)) == (1 + F(2)) ** L

    def test_all_level_zero_with_full_bottom(self):
        L = 4
        occ = Occupation(L, (1 << L) - 1)
        assert duchi_weight(occ, occ, F(2), F(3)) == (1 + F(3)) ** L

    def test_uniform_at_zero_strengths(self):
        d = duchi_distribution(3, F(0), F(0))
        assert len(set(d.probs)) == 1

    def test_rejects_outside_configuration_space(self):
        with pytest.raises(NotInConfigurationSpace):
            duchi_weight(
                Occupation.from_string("11"),
                Occupation.from_string("00"),
                F(1),
                F(1),
            )

    def test_w_blocks_later_b_labels(self):
        # bottom occupied at site 1 makes site 1 a W label; later zero-level
        # sites with empty bottom are then never B-labeled
        tau = Occupation.from_string("1100")
        xi = Occupation.from_string("1100")
        assert duchi_weight(tau, xi, F(2), F(3)) == (1 + F(3)) ** 2

    @pytest.mark.parametrize(
        "A,B", [(F(0), F(0)), (F(1), F(2)), (F(1, 2), F(1, 2)), (F(3), F(1, 3))]
    )
    def test_top_marginal_matches_mu_at_q_zero(self, A, B):
        for L in range(1, 5):
            mu = stationary_mu(L, ModelParams(F(0), A, B))
            assert top_marginal(duchi_distribution(L, A, B)) == mu


FOLD_POINTS = [
    *(ModelParams(q, A, B) for q in Q_GRID for A, B in AB_GRID),
    ModelParams(F(1, 2), F(4), F(1)),  # A B q**2 = 1, a pole of the rescaling
]


@pytest.mark.parametrize("p", FOLD_POINTS)
def test_folds_of_the_key_walk_agree(p):
    # the top masses, the path table and partition_Z are three folds of
    # one walk; the masses must also be the Fraction pushforward's, which
    # is checked up to L = 8 (at L = 9 it alone takes 0.6 s a point)
    for L in range(10):
        links, key_weights, den = _walk(L, p)
        masses = _fold_masses(links, key_weights)
        table, table_den = _path_weights(L, p)
        assert table_den == den
        levels = [g.horizontal for g in enumerate_paths(L)]
        assert sum(masses) == sum(w << h for w, h in zip(table, levels))
        assert sum(masses) == partition_Z(L, p) * den
        if L <= 8:
            law = path_law_top_marginal(path_law(L, p))
            assert law.masses == tuple(masses)
