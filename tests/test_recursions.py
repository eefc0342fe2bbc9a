"""Tests for the exhaustive identity checkers."""

from fractions import Fraction as F
from functools import cache

import pytest
from test_acceptance import AB_GRID, Q_GRID

from asep2l import recursions, weights
from asep2l.errors import SingularParameter
from asep2l.ensemble import phi_table, stationary_mu
from asep2l.lattice import (
    LatticePath,
    Occupation,
    enumerate_occupations,
    enumerate_pairs,
)
from asep2l.recursions import (
    FAILURES_KEPT,
    VerificationReport,
    check_basic_weight_equations,
    check_bulk,
    check_left_boundary,
    check_right_boundary,
)
from asep2l.weights import ModelParams, tilde_q_weight

GRID = [
    ModelParams(F(0), F(1, 2), F(1, 3)),
    ModelParams(F(1, 3), F(1, 2), F(1, 3)),
    ModelParams(F(1, 2), F(2), F(3)),
    ModelParams(F(1, 3), F(0), F(2)),
    ModelParams(F(1, 2), F(3), F(0)),
    ModelParams(F(1, 3), F(0), F(0)),
]
ACCEPTANCE_GRID = [ModelParams(q, A, B) for q in Q_GRID for A, B in AB_GRID]
SHOCK = ModelParams(F(1, 2), F(9), F(7))


# The per-pair Fraction checkers that the path-table checkers replaced, kept
# as the slow reference. weight(tau, xi) is the rescaled weight Qt.


def reference_left_boundary(L, p, weight):
    report = VerificationReport("left-boundary", f"L={L}", p)
    qa = p.q * p.A
    for xi_new in (0, 1):
        a_pow = p.A ** xi_new
        for tau, xi in enumerate_pairs(L):
            xi_ext = xi.prepend(xi_new)
            lhs = weight(tau.prepend(0), xi_ext) - qa * weight(tau.prepend(1), xi_ext)
            rhs = a_pow * weight(tau, xi)
            report.check(lhs, rhs, {"tau": tau, "xi": xi, "xi_new": xi_new})
    return report


def reference_right_boundary(L, p, weight):
    report = VerificationReport("right-boundary", f"L={L}", p)
    qb = p.q * p.B
    for xi_new in (0, 1):
        b_pow = p.B ** (1 - xi_new)
        for tau, xi in enumerate_pairs(L):
            xi_ext = xi.append(xi_new)
            lhs = weight(tau.append(1), xi_ext) - qb * weight(tau.append(0), xi_ext)
            rhs = b_pow * weight(tau, xi)
            report.check(lhs, rhs, {"tau": tau, "xi": xi, "xi_new": xi_new})
    return report


def reference_bulk(L1, L2, p, weight):
    report = VerificationReport("bulk", f"L1={L1},L2={L2}", p)
    one_zero = Occupation.from_bits((1, 0))
    zero_one = Occupation.from_bits((0, 1))
    for xi_a in (0, 1):
        for xi_b in (0, 1):
            mid2 = Occupation.from_bits((xi_a, xi_b))
            mid1 = Occupation.from_bits((xi_a,))
            keep = Occupation.from_bits((1 - xi_b,))
            for tau1, xi1 in enumerate_pairs(L1):
                for tau2, xi2 in enumerate_pairs(L2):
                    xi_long = xi1.concat(mid2).concat(xi2)
                    lhs = weight(
                        tau1.concat(one_zero).concat(tau2), xi_long
                    ) - p.q * weight(tau1.concat(zero_one).concat(tau2), xi_long)
                    rhs = weight(
                        tau1.concat(keep).concat(tau2), xi1.concat(mid1).concat(xi2)
                    )
                    report.check(
                        lhs,
                        rhs,
                        {
                            "tau1": tau1,
                            "xi1": xi1,
                            "tau2": tau2,
                            "xi2": xi2,
                            "xi_mid": f"{xi_a}{xi_b}",
                        },
                    )
    return report


def reference_basic_weight_equations(L, p):
    """The four equations for Phi on Fraction tables, one tau at a time."""
    report = VerificationReport("basic-weight-equations", f"L<={L}", p)
    phis = [phi_table(ell, p).values for ell in range(L + 1)]
    empty = Occupation(0, 0)
    report.check(phis[0][empty], F(1), {"equation": "initial"})
    qa = p.q * p.A
    qb = p.q * p.B
    for ell in range(L):
        lo, hi = phis[ell], phis[ell + 1]
        for tau in enumerate_occupations(ell):
            lhs = hi[tau.prepend(0)] - qa * hi[tau.prepend(1)]
            report.check(
                lhs, (1 + p.A) * lo[tau], {"equation": "left", "tau": tau}
            )
            lhs = hi[tau.append(1)] - qb * hi[tau.append(0)]
            report.check(
                lhs, (1 + p.B) * lo[tau], {"equation": "right", "tau": tau}
            )
    one_zero = Occupation.from_bits((1, 0))
    zero_one = Occupation.from_bits((0, 1))
    bit = [Occupation.from_bits((0,)), Occupation.from_bits((1,))]
    for total in range(L - 1):
        lo, hi = phis[total + 1], phis[total + 2]
        for n1 in range(total + 1):
            n2 = total - n1
            for tau1 in enumerate_occupations(n1):
                for tau2 in enumerate_occupations(n2):
                    lhs = hi[tau1.concat(one_zero).concat(tau2)] - p.q * hi[
                        tau1.concat(zero_one).concat(tau2)
                    ]
                    rhs = (
                        lo[tau1.concat(bit[0]).concat(tau2)]
                        + lo[tau1.concat(bit[1]).concat(tau2)]
                    )
                    report.check(
                        lhs, rhs, {"equation": "bulk", "tau1": tau1, "tau2": tau2}
                    )
    return report


def both_routes(p, max_L=5, max_bulk=4):
    """(path-table report, reference report) dicts for every boundary size
    up to max_L and every bulk split with L1 + L2 <= max_bulk."""
    # each pair's weight is computed once per point, by tilde_q_weight
    weight = cache(lambda tau, xi: tilde_q_weight(tau, xi, p))
    cases = [
        (check, reference, (L,))
        for L in range(max_L + 1)
        for check, reference in (
            (check_left_boundary, reference_left_boundary),
            (check_right_boundary, reference_right_boundary),
        )
    ] + [
        (check_bulk, reference_bulk, (L1, L2))
        for L1 in range(max_bulk + 1)
        for L2 in range(max_bulk + 1 - L1)
    ]
    return [
        (check(*sizes, p).to_dict(), reference(*sizes, p, weight).to_dict())
        for check, reference, sizes in cases
    ]


def perturb_weight(monkeypatch, sigma):
    """Add 1 to w_sigma(z) for the chosen sigma only: its constant
    numerator gains den(q)**shift, the power of den(q) under it."""
    real = weights._w_scaled

    def perturbed(parts, q):
        nums, shift = real(parts, q)
        if parts == sigma:
            nums = [nums[0] + q.denominator ** shift, *nums[1:]]
        return nums, shift

    monkeypatch.setattr(weights, "_w_scaled", perturbed)


class TestPathTableRoute:
    @pytest.mark.parametrize("p", GRID + ACCEPTANCE_GRID + [SHOCK])
    def test_reports_equal_the_fraction_reference(self, p):
        for fast, slow in both_routes(p):
            assert fast == slow

    def test_perturbed_weight_fails_both_routes_alike(self, monkeypatch):
        perturb_weight(monkeypatch, (2, 1))
        failing = capped = 0
        for p in (GRID[1], GRID[2], GRID[3], GRID[4], SHOCK):
            for fast, slow in both_routes(p, max_L=4, max_bulk=3):
                assert fast == slow
                failing += not fast["passed"]
                capped += len(fast["failures"]) == FAILURES_KEPT
        # composition (2, 1) is read at sizes 2 and 3; some reports keep
        # only the first FAILURES_KEPT of their failures
        assert failing > 0 and capped > 0

    def test_every_failure_is_found_in_pair_order(self, monkeypatch):
        perturb_weight(monkeypatch, (2, 2))
        for fast, slow in both_routes(GRID[1], max_L=3, max_bulk=2):
            assert fast == slow
        # with no cap, the path route must name every failing pair, in order
        monkeypatch.setattr(recursions, "FAILURES_KEPT", 10 ** 6)
        routes = both_routes(GRID[1], max_L=3, max_bulk=2)
        assert all(fast == slow for fast, slow in routes)
        assert max(len(fast["failures"]) for fast, _ in routes) > FAILURES_KEPT

    def test_no_lattice_path_is_built(self, monkeypatch):
        def refuse(self, values):
            raise AssertionError("LatticePath built on the path-table route")

        monkeypatch.setattr(LatticePath, "__init__", refuse)
        p = ModelParams(F(1, 3), F(1), F(2))
        assert check_left_boundary(4, p).passed
        assert check_right_boundary(4, p).passed
        assert check_bulk(1, 2, p).passed

    def test_passing_run_walks_no_pair(self, monkeypatch):
        def refuse(L):
            raise AssertionError("pairs or occupations walked on a passing run")

        monkeypatch.setattr(recursions, "enumerate_pairs", refuse)
        monkeypatch.setattr(recursions, "enumerate_occupations", refuse)
        reports = recursions._verify(6, ModelParams(F(1, 3), F(1), F(2)), "all")
        assert all(report.passed for report in reports)


def basic_routes(p, max_L=5):
    """(integer report, reference report) dicts of the basic weight
    equations for every L up to max_L."""
    return [
        (
            check_basic_weight_equations(L, p).to_dict(),
            reference_basic_weight_equations(L, p).to_dict(),
        )
        for L in range(max_L + 1)
    ]


class TestBasicRoute:
    @pytest.mark.parametrize("p", GRID + ACCEPTANCE_GRID + [SHOCK])
    def test_reports_equal_the_fraction_reference(self, p):
        for fast, slow in basic_routes(p):
            assert fast == slow

    @pytest.mark.parametrize("kept", [FAILURES_KEPT, 10 ** 6])
    @pytest.mark.parametrize("sigma", [(2, 1), (1,)])
    def test_perturbed_weight_fails_both_routes_alike(self, monkeypatch, sigma, kept):
        perturb_weight(monkeypatch, sigma)
        monkeypatch.setattr(recursions, "FAILURES_KEPT", kept)
        failures = []
        for p in (GRID[1], GRID[2], GRID[3], GRID[4], SHOCK):
            for fast, slow in basic_routes(p):
                assert fast == slow
                failures.append(fast["failures"])
        assert any(failures)
        longest = max(len(kept_failures) for kept_failures in failures)
        if sigma == (2, 1):
            # some report fails more often than FAILURES_KEPT
            capped = kept == FAILURES_KEPT
            assert longest == FAILURES_KEPT if capped else longest > FAILURES_KEPT
        # w_(1) is the weight of the empty path, so Phi_0 is no longer 1
        initial = {"equation": "initial"}
        assert any(f and f[0]["inputs"] == initial for f in failures) == (sigma == (1,))


class TestBoundaryIdentities:
    def test_left_boundary_at_size_zero(self):
        p = ModelParams(F(1, 2), F(2), F(3))
        empty = Occupation(0, 0)
        o = [Occupation.from_string("0"), Occupation.from_string("1")]
        for xi_new in (0, 1):
            lhs = tilde_q_weight(o[0], o[xi_new], p) - p.q * p.A * tilde_q_weight(
                o[1], o[xi_new], p
            )
            assert lhs == p.A ** xi_new * tilde_q_weight(empty, empty, p)

    def test_right_boundary_at_size_zero(self):
        p = ModelParams(F(1, 2), F(2), F(3))
        empty = Occupation(0, 0)
        o = [Occupation.from_string("0"), Occupation.from_string("1")]
        for xi_new in (0, 1):
            lhs = tilde_q_weight(o[1], o[xi_new], p) - p.q * p.B * tilde_q_weight(
                o[0], o[xi_new], p
            )
            assert lhs == p.B ** (1 - xi_new) * tilde_q_weight(empty, empty, p)

    @pytest.mark.parametrize("p", GRID)
    def test_boundaries_exhaustive(self, p):
        for L in range(4):
            left = check_left_boundary(L, p)
            right = check_right_boundary(L, p)
            assert left.passed and left.instances == 2 * 4 ** L
            assert right.passed and right.instances == 2 * 4 ** L

    @pytest.mark.parametrize("p", GRID)
    def test_bulk_exhaustive(self, p):
        for L1 in range(3):
            for L2 in range(3 - L1):
                report = check_bulk(L1, L2, p)
                assert report.passed
                assert report.instances == 4 * 4 ** L1 * 4 ** L2

    @pytest.mark.parametrize("L1, L2", [(-1, 2), (-3, 1), (2, -1)])
    def test_bulk_refuses_a_negative_part(self, L1, L2, monkeypatch):
        def refuse(L):
            raise AssertionError("keys walked for a negative part")

        monkeypatch.setattr(recursions, "_key_levels", refuse)
        with pytest.raises(ValueError, match="nonnegative"):
            check_bulk(L1, L2, GRID[1])

    def test_bulk_exceptional_junction_instance(self):
        # (xi', xi'') = (1, 0) with the short pair's minimum at the junction
        p = ModelParams(F(1, 2), F(2), F(3))
        tau1 = Occupation.from_string("0")
        xi1 = Occupation.from_string("1")
        empty = Occupation(0, 0)
        one_zero = Occupation.from_string("10")
        zero_one = Occupation.from_string("01")
        xi_long = xi1.concat(Occupation.from_string("10"))
        lhs = tilde_q_weight(tau1.concat(one_zero), xi_long, p) - p.q * tilde_q_weight(
            tau1.concat(zero_one), xi_long, p
        )
        rhs = tilde_q_weight(
            tau1.concat(Occupation.from_string("1")),
            xi1.concat(Occupation.from_string("1")),
            p,
        )
        assert lhs == rhs

    def test_singular_parameters_raise(self):
        p = ModelParams(F(1, 2), F(4), F(1))  # AB = q**-2
        with pytest.raises(SingularParameter):
            check_left_boundary(1, p)
        with pytest.raises(SingularParameter):
            check_bulk(1, 1, p)


class TestBasicWeightEquations:
    @pytest.mark.parametrize("p", GRID)
    def test_exhaustive(self, p):
        report = check_basic_weight_equations(4, p)
        assert report.passed
        assert report.instances > 1

    def test_phi_empty_is_one(self):
        p = GRID[1]
        assert phi_table(0, p).value(Occupation(0, 0)) == 1

    def test_size_one_left_equation_from_table(self):
        p = ModelParams(F(1, 2), F(1), F(3))
        phi0 = phi_table(0, p).values
        phi1 = phi_table(1, p).values
        empty = Occupation(0, 0)
        lhs = phi1[Occupation.from_string("0")] - p.q * p.A * phi1[
            Occupation.from_string("1")
        ]
        assert lhs == (1 + p.A) * phi0[empty]

    def test_singular_parameters_raise(self):
        with pytest.raises(SingularParameter):
            check_basic_weight_equations(2, ModelParams(F(1, 2), F(4), F(1)))


class TestShockSign:
    def test_rescaled_sign_uniform_per_size_and_alternating(self):
        # AB q**k > 1 for k = 2..5 flips the scaling sign size by size
        p = ModelParams(F(1, 2), F(9), F(7))
        signs = []
        for L in range(1, 6):
            vals = [
                tilde_q_weight(tau, xi, p) for tau, xi in enumerate_pairs(L)
            ]
            assert all(v != 0 for v in vals)
            level_signs = {v > 0 for v in vals}
            assert len(level_signs) == 1
            signs.append(level_signs.pop())
        assert signs == [False, True, False, True, True]

    def test_normalized_phi_still_matches_mu_in_shock(self):
        p = ModelParams(F(1, 2), F(9), F(7))
        for L in range(1, 5):
            assert phi_table(L, p).normalized() == stationary_mu(L, p)


class TestReportMechanics:
    def test_failures_are_capped_and_recorded(self):
        report = VerificationReport("synthetic", "L=0", GRID[0])
        for k in range(FAILURES_KEPT + 5):
            report.check(F(k), F(k + 1), {"k": k})
        assert not report.passed
        assert report.instances == FAILURES_KEPT + 5
        assert len(report.failures) == FAILURES_KEPT
        as_dict = report.to_dict()
        assert as_dict["passed"] is False
        assert as_dict["failures"][0]["inputs"] == {"k": "0"}
        assert as_dict["failures"][0]["lhs"] == "0"

    def test_passing_report_serializes(self):
        report = check_left_boundary(0, GRID[1])
        d = report.to_dict()
        assert d["passed"] is True and d["instances"] == 2
