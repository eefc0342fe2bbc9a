"""Tests for exact inverse-CDF sampling and empirical comparison."""

import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest

from asep2l.cli import main
from asep2l.ensemble import path_law, stationary_mu, two_layer_law
from asep2l.lattice import is_motzkin, path_of, tau_from_path, xi_of
from asep2l.sampler import MAX_DRAWS, empirical_compare, sample_two_layer
from asep2l.weights import ModelParams


def reference_draws(L, p, n, seed):
    """The slow sampler: a Fraction CDF over the tabulated path law, then
    validated paths and occupations per draw."""
    law = path_law(L, p)
    cum = []
    acc = F(0)
    for pr in law.probs:
        acc += pr
        cum.append(acc)
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        u = F(rng.getrandbits(128), 2 ** 128)
        gamma = law.states[bisect_right(cum, u)]
        eta = [rng.getrandbits(1) if step == 0 else 0 for step in gamma.steps()]
        tau = tau_from_path(gamma, eta)
        draws.append((tau, xi_of(tau, gamma)))
    return tuple(draws)


REFERENCE_POINTS = [
    ModelParams(F(1, 2), F(1), F(2)),
    ModelParams(F(1, 3), F(0), F(2)),
    ModelParams(F(1, 2), F(2), F(0)),
    ModelParams(F(1, 2), F(0), F(0)),
    ModelParams(F(9, 10), F(1, 7), F(5, 3)),
    ModelParams(F(0), F(1), F(1)),
]


@pytest.mark.parametrize("p", REFERENCE_POINTS)
def test_draws_equal_the_fraction_cdf_reference(p):
    for L in range(7):
        for seed in (0, 1, 2024):
            batch = sample_two_layer(L, p, 300, seed)
            assert batch.draws == reference_draws(L, p, 300, seed), (L, seed)


class TestSampling:
    def test_seed_determinism(self):
        p = ModelParams(F(1, 2), F(1), F(2))
        a = sample_two_layer(3, p, 200, seed=42)
        b = sample_two_layer(3, p, 200, seed=42)
        assert a.draws == b.draws
        c = sample_two_layer(3, p, 200, seed=43)
        assert a.draws != c.draws

    def test_draws_are_valid_pairs(self):
        p = ModelParams(F(1, 3), F(1, 2), F(2))
        batch = sample_two_layer(2, p, 100, seed=1)
        assert (batch.L, batch.params, batch.seed, batch.count) == (2, p, 1, 100)
        for tau, xi in batch.draws:
            assert tau.length == xi.length == 2

    def test_negative_count(self):
        with pytest.raises(ValueError):
            sample_two_layer(2, ModelParams(F(0), F(1), F(1)), -1, 0)

    def test_count_is_limited_before_any_table(self, capsys):
        p = ModelParams(F(1, 2), F(1), F(2))
        with pytest.raises(ValueError, match="draws"):
            sample_two_layer(1, p, MAX_DRAWS + 1, 0)
        # a size no table could be built for still fails on the count
        with pytest.raises(ValueError, match="draws"):
            sample_two_layer(10 ** 6, p, MAX_DRAWS + 1, 0)
        argv = ["sample", "--L", "1", "--q", "1/2", "--A", "1", "--B", "2"]
        assert main(argv + ["--n", str(MAX_DRAWS + 1)]) == 2
        assert "draws" in capsys.readouterr().err

    def test_no_left_strength_forces_nonnegative_paths(self):
        p = ModelParams(F(1, 2), F(0), F(2))
        batch = sample_two_layer(4, p, 400, seed=5)
        for tau, xi in batch.draws:
            assert path_of(tau, xi).minimum >= 0

    def test_no_right_strength_forces_minimum_at_end(self):
        p = ModelParams(F(1, 2), F(2), F(0))
        batch = sample_two_layer(4, p, 400, seed=6)
        for tau, xi in batch.draws:
            g = path_of(tau, xi)
            assert g.end == g.minimum

    def test_zero_strengths_force_motzkin_pairs(self):
        p = ModelParams(F(1, 2), F(0), F(0))
        batch = sample_two_layer(4, p, 400, seed=7)
        assert all(is_motzkin(path_of(t, x)) for t, x in batch.draws)

    def test_empty_batch(self):
        p = ModelParams(F(0), F(1), F(1))
        batch = sample_two_layer(2, p, 0, seed=0)
        assert batch.draws == ()


class TestEmpiricalCompare:
    def test_uniform_small_case(self):
        p = ModelParams(F(0), F(1), F(1))
        batch = sample_two_layer(1, p, 40000, seed=3)
        report = empirical_compare(batch, two_layer_law(1, p))
        assert report.n == 40000
        assert report.max_abs_z < 4.0
        assert report.count_exceeding(3.0) <= 1

    def test_compare_against_top_layer(self):
        p = ModelParams(F(1, 2), F(1), F(2))
        batch = sample_two_layer(3, p, 20000, seed=8)
        report = empirical_compare(batch, stationary_mu(3, p))
        assert report.max_abs_z < 4.0

    def test_pair_statistics(self):
        # the draws against the law tabulated over all 4**L pairs
        p = ModelParams(F(1, 2), F(1), F(2))
        batch = sample_two_layer(2, p, 20000, seed=9)
        report = empirical_compare(batch, two_layer_law(2, p))
        assert report.max_abs_z < 4.0

    def test_perturbed_distribution_is_detected(self):
        # sample one law, compare against a deliberately different one
        p_true = ModelParams(F(1, 2), F(1), F(2))
        p_wrong = ModelParams(F(1, 2), F(3), F(1, 3))
        small = sample_two_layer(3, p_true, 2000, seed=10)
        big = sample_two_layer(3, p_true, 50000, seed=10)
        z_small = empirical_compare(small, stationary_mu(3, p_wrong)).max_abs_z
        z_big = empirical_compare(big, stationary_mu(3, p_wrong)).max_abs_z
        assert z_big > z_small
        assert z_big > 10.0

    def test_state_space_mismatch(self):
        p = ModelParams(F(0), F(1), F(1))
        batch = sample_two_layer(2, p, 10, seed=0)
        with pytest.raises(ValueError):
            empirical_compare(batch, two_layer_law(3, p))

    def test_zero_probability_states_never_drawn(self):
        p = ModelParams(F(1, 2), F(0), F(0))
        batch = sample_two_layer(3, p, 2000, seed=11)
        law = two_layer_law(3, p)
        assert any(pr == 0 for pr in law.probs)
        report = empirical_compare(batch, law)
        for state, pr in law.items():
            if pr == 0:
                assert report.z_scores[state] == 0.0


class TestPushforwardIdentity:
    def test_exact_pushforward_equals_mu(self):
        from asep2l.ensemble import path_law_top_marginal

        for p in (
            ModelParams(F(1, 2), F(1), F(2)),
            ModelParams(F(1, 3), F(0), F(2)),
            ModelParams(F(0), F(1, 2), F(1, 3)),
        ):
            for L in range(1, 6):
                assert path_law_top_marginal(path_law(L, p)) == stationary_mu(L, p)
