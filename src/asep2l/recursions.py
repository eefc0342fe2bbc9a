"""Exhaustive exact verification of the weight recursions.

The rescaled two-layer weight satisfies one left-boundary, one
right-boundary, and one bulk identity relating sizes L+1 (or L+2) to L;
summing each identity over the bottom layer yields the four basic weight
equations for the table Phi. Every checker enumerates its full instance
space at concrete rational parameters and compares sides exactly,
recording the first few failures verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ensemble import _phi_table
from .lattice import Occupation, enumerate_occupations, enumerate_pairs
from .weights import ModelParams, tilde_q_weight

FAILURES_KEPT = 10


@dataclass
class Failure:
    inputs: dict
    lhs: Fraction
    rhs: Fraction

    def to_dict(self) -> dict:
        return {
            "inputs": {k: str(v) for k, v in self.inputs.items()},
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


@dataclass
class VerificationReport:
    identity: str
    sizes: str
    params: ModelParams
    instances: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, lhs: Fraction, rhs: Fraction, inputs: dict) -> None:
        self.instances += 1
        if lhs != rhs and len(self.failures) < FAILURES_KEPT:
            self.failures.append(Failure(inputs, lhs, rhs))

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "sizes": self.sizes,
            "q": str(self.params.q),
            "A": str(self.params.A),
            "B": str(self.params.B),
            "instances": self.instances,
            "passed": self.passed,
            "failures": [f.to_dict() for f in self.failures],
        }


def check_left_boundary(L: int, p: ModelParams) -> VerificationReport:
    """Prepending a site: Qt(0 tau | x' xi) - qA Qt(1 tau | x' xi) = A**x' Qt(tau | xi)."""
    report = VerificationReport("left-boundary", f"L={L}", p)
    qa = p.q * p.A
    for xi_new in (0, 1):
        a_pow = p.A ** xi_new
        for tau, xi in enumerate_pairs(L):
            xi_ext = xi.prepend(xi_new)
            lhs = tilde_q_weight(tau.prepend(0), xi_ext, p) - qa * tilde_q_weight(
                tau.prepend(1), xi_ext, p
            )
            rhs = a_pow * tilde_q_weight(tau, xi, p)
            report.check(lhs, rhs, {"tau": tau, "xi": xi, "xi_new": xi_new})
    return report


def check_right_boundary(L: int, p: ModelParams) -> VerificationReport:
    """Appending a site: Qt(tau 1 | xi x') - qB Qt(tau 0 | xi x') = B**(1-x') Qt(tau | xi)."""
    report = VerificationReport("right-boundary", f"L={L}", p)
    qb = p.q * p.B
    for xi_new in (0, 1):
        b_pow = p.B ** (1 - xi_new)
        for tau, xi in enumerate_pairs(L):
            xi_ext = xi.append(xi_new)
            lhs = tilde_q_weight(tau.append(1), xi_ext, p) - qb * tilde_q_weight(
                tau.append(0), xi_ext, p
            )
            rhs = b_pow * tilde_q_weight(tau, xi, p)
            report.check(lhs, rhs, {"tau": tau, "xi": xi, "xi_new": xi_new})
    return report


def check_bulk(L1: int, L2: int, p: ModelParams) -> VerificationReport:
    """Swapping an interior 10 to 01 against dropping one site."""
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
                    lhs = tilde_q_weight(
                        tau1.concat(one_zero).concat(tau2), xi_long, p
                    ) - p.q * tilde_q_weight(
                        tau1.concat(zero_one).concat(tau2), xi_long, p
                    )
                    rhs = tilde_q_weight(
                        tau1.concat(keep).concat(tau2),
                        xi1.concat(mid1).concat(xi2),
                        p,
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


def check_basic_weight_equations(L: int, p: ModelParams) -> VerificationReport:
    """The four equations for Phi, over all sizes up to L."""
    report = VerificationReport("basic-weight-equations", f"L<={L}", p)
    phis = [_phi_table(ell, p).values for ell in range(L + 1)]
    empty = Occupation(0, 0)
    report.check(phis[0][empty], Fraction(1), {"equation": "initial"})
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
